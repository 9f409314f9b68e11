//===- vec/VecEval.h - Columnar expression evaluation ----------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates an expression over a whole batch of elements at once: the
/// element parameter becomes a column, every other subexpression is
/// evaluated once per batch with the scalar evaluator and broadcast.
///
/// Semantics contract (the vectorize-on/off fuzz oracle enforces it): a
/// columnar evaluation over lanes L must be indistinguishable from
/// scalar-evaluating the expression on each live lane in order. The two
/// places this bites are laziness and traps:
///
///   * And / Or / Cond evaluate their lazy operand only on the lanes that
///     need it (a refined selection), exactly as the scalar evaluator
///     short-circuits per element — so `x != 0 && 10 / x > 1` never
///     divides on the zero lanes.
///   * Integer Div / Mod call rt::ckdiv / rt::ckmod per live lane, like
///     expr::evalExpr and generated code, so they raise the same ST2001
///     trap. Every operator runs through the expr/Ops.h dispatch.
///
/// compileVecExpr() decides once per plan whether an expression is
/// columnar-executable (scalar element type at every lane-dependent node,
/// supported kinds) and precomputes the per-node facts (element-free,
/// may-trap) the batch kernels need, so the per-batch path does no
/// analysis at all.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_VEC_VECEVAL_H
#define STENO_VEC_VECEVAL_H

#include "expr/Eval.h"
#include "expr/Expr.h"
#include "vec/Batch.h"

#include <string>
#include <vector>

namespace steno {
namespace vec {

/// One compiled expression node. ElemFree nodes are leaves here: the whole
/// subtree is evaluated with expr::evalExpr once per batch and broadcast.
struct VecExpr {
  const expr::Expr *E = nullptr;
  bool ElemFree = false;
  /// The subtree contains an int64 Div/Mod that could raise ST2001, so it
  /// must never be evaluated on a lane the scalar path would not reach.
  bool MayTrap = false;
  std::vector<VecExpr> Kids;
};

/// A compiled expression: the VecExpr tree plus the root reference that
/// keeps the expression nodes alive.
struct CompiledExpr {
  bool Ok = false;
  expr::ExprRef Root;
  VecExpr Tree;
};

/// True when evaluating \p E can raise the ST2001 division trap (contains
/// an int64 Div/Mod; divSafe proofs are deliberately ignored — the flag
/// only gates which lanes an expression may be speculated on).
bool exprMayTrap(const expr::Expr &E);

/// Compiles \p E for columnar evaluation with \p ElemName as the element
/// parameter. Fails (Ok = false) when the expression references other free
/// parameters, or when a lane-dependent node has a non-scalar type or an
/// unsupported kind (pair construction/projection over lanes, vec-typed
/// lane values).
CompiledExpr compileVecExpr(const expr::ExprRef &E,
                            const std::string &ElemName);

/// Batch evaluation context: the scalar environment (captures + sources
/// installed, no parameter bindings), the element column, and the scratch
/// pool for temporaries.
struct EvalCtx {
  expr::Env *Env = nullptr;
  Col Elem;
  Scratch *Scr = nullptr;
};

/// Evaluates \p N over the live lanes \p L (which must be non-empty).
/// The returned column is valid until the scratch pool is reset.
Col evalVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L);

/// Evaluates \p N on a single lane by scalar evaluation of the original
/// expression (used by the order-sensitive TakeWhile/SkipWhile path when
/// the predicate may trap). \p ElemName names the element parameter.
expr::Value evalLane(const VecExpr &N, const std::string &ElemName,
                     const EvalCtx &Ctx, std::int64_t Lane);

/// The element value of \p C at \p Lane as a scalar Value.
expr::Value laneValue(const Col &C, std::int64_t Lane);

} // namespace vec
} // namespace steno

#endif // STENO_VEC_VECEVAL_H
