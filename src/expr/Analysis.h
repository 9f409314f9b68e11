//===- expr/Analysis.h - Expression-tree analyses and rewrites -*- C++ -*-===//
///
/// \file
/// Free-parameter analysis and parameter substitution. Substitution
/// implements the rewrite of paper §5.2: before generating code for a
/// nested query, occurrences of the outer lambda's parameter inside the
/// nested query are rewritten to the outer query's current element
/// variable. Also the trap analyses the code generator decides with:
/// which divisors need no check, and which expressions may run on
/// elements the query's semantics would not have evaluated them on.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_ANALYSIS_H
#define STENO_EXPR_ANALYSIS_H

#include "expr/Expr.h"
#include "expr/Lambda.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace steno {
namespace expr {

/// Names of every Param node reachable from \p E.
std::set<std::string> freeParams(const Expr &E);

/// Indices of every Capture slot reachable from \p E.
std::set<unsigned> usedCaptureSlots(const Expr &E);

/// Indices of every source-buffer slot referenced by BufferSlice/SourceLen
/// nodes reachable from \p E.
std::set<unsigned> usedSourceSlots(const Expr &E);

/// Rewrites every Param named in \p Replacements with its mapped
/// expression; parameters not in the map are preserved. Replacement
/// expressions must have exactly the type of the parameter they replace.
ExprRef substituteParams(const ExprRef &E,
                         const std::map<std::string, ExprRef> &Replacements);

/// True for an int64 constant divisor that traps on no dividend, as in
/// absint::divisionIsSafe: generated code divides by it with a bare `/`
/// or `%`. INT64_MIN is the dividend every trapping divisor traps on.
bool isSafeConstDivisor(const Expr &E);

/// True when \p E is defined and cannot trap on any value of its free
/// parameters, so generated code may evaluate it for an element the
/// query rejects: comparisons, logic, double arithmetic, the wrapping
/// int64 `+ - *` and negation, min/max/abs/sqrt/floor/ceil, conditionals
/// and pairs over such operands, and int64 `/` `%` by a safe constant
/// divisor. Not speculatable: any other int64 division (a divSafe() mark
/// does not count: the proof may rest on the very filter the caller
/// wants to evaluate past), a double -> int64 conversion (undefined out
/// of range), VecIndex and BufferSlice (unchecked reads), and exp/log/pow,
/// whose cost per element outweighs a branch.
bool speculatable(const Expr &E);

/// Structural hash of a type (structurally equal types hash equally).
std::uint64_t hashType(const Type &Ty);

/// Structural hash of an expression: equal structure (kinds, operators,
/// literals, names, slots, types) hashes equally. Used by the query cache
/// to fingerprint queries.
std::uint64_t hashExpr(const Expr &E);

/// Deep structural equality of expressions (the equality that justifies
/// reusing a compiled query).
bool equalExprs(const Expr &A, const Expr &B);

/// Hash/equality over lambdas (parameters' names and types included —
/// bodies reference parameters by name).
std::uint64_t hashLambda(const Lambda &L);
bool equalLambdas(const Lambda &A, const Lambda &B);

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_ANALYSIS_H
