//===- expr/Fold.h - Constant folding --------------------------*- C++ -*-===//
///
/// \file
/// Constant folding over expression trees: operator applications whose
/// operands are literals are evaluated at optimization time, and the
/// boolean/conditional identities (true && e, cond(true, a, b), ...) are
/// simplified. Runs before CSE in the code generator so that, e.g., range
/// bounds synthesized from literals collapse into single constants in the
/// generated code. Folding is semantics-preserving for this pure
/// expression language with one carve-out: an integer division/modulo
/// that traps (rt::divTraps: a zero divisor, or INT64_MIN / -1) is left
/// unfolded, so the generated code keeps the trap behavior of the
/// original program point.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_FOLD_H
#define STENO_EXPR_FOLD_H

#include "expr/Expr.h"

namespace steno {
namespace expr {

/// Returns a constant-folded equivalent of \p E (possibly \p E itself
/// when nothing folds).
ExprRef foldConstants(const ExprRef &E);

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_FOLD_H
