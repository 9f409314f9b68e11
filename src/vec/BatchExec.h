//===- vec/BatchExec.h - Batched chain planning and execution --*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plans a lowered QUIL chain for vectorized execution and runs it
/// batch-at-a-time (DESIGN.md §5i). planChain() decides once, at compile
/// time, whether the chain fits the columnar model — linear Src
/// (Trans|Pred)* Agg? Ret over scalar elements, no nested queries, no
/// early-exit aggregates — and compiles every lambda body with
/// compileVecExpr. Chains that do not fit keep the scalar interpreter
/// path; the plan records why in WhyNot.
///
/// executeBatched() is the interpreter-backend executor: it slices the
/// source into batches of Plan.BatchSize elements and pushes each batch
/// through the operator chain — Trans maps a column, Pred narrows the
/// lane selection, Agg folds the surviving lanes into the accumulator.
/// The batch loop ends where the generated loop `break`s (DESIGN.md §5):
/// at the element that finds the plan's Exit step exhausted, which the
/// steps before it reach and nothing after it sees. Profile accounting
/// is per batch: rows-in/rows-out move by the lane counts up to that
/// element, so they equal the scalar loop's, and no clock is read.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_VEC_BATCHEXEC_H
#define STENO_VEC_BATCHEXEC_H

#include "expr/Eval.h"
#include "obs/Profile.h"
#include "quil/Quil.h"
#include "steno/Result.h"
#include "vec/VecEval.h"

#include <cstdint>
#include <string>
#include <vector>

namespace steno {
namespace vec {

/// Kind of one planned operator step (between Src and Agg/Ret).
enum class VStepKind { Trans, Where, Take, Skip, TakeWhile, SkipWhile };

/// How the chain's Agg (if any) executes.
enum class VAggMode {
  None,   ///< Collection chain: surviving lanes become rows.
  Reduce, ///< acc = acc op g(elem): typed tight-loop fold.
  Generic ///< Per-lane applyLambda fold (pair accumulators, odd steps).
};

/// One planned Trans/Pred step.
struct VStep {
  VStepKind K = VStepKind::Trans;
  /// Compiled lambda body (Trans / Where / TakeWhile / SkipWhile).
  CompiledExpr Body;
  /// The lambda's element parameter name (per-lane fallback binding).
  std::string ElemName;
  /// Take/Skip count expression (the op's Seed).
  expr::ExprRef Count;
  /// Element kind after this step (Trans changes it; Preds keep it).
  expr::TypeKind OutK = expr::TypeKind::Double;
  /// A Take/TakeWhile whose exhaustion ends the batch loop: the
  /// generated loop's `break` (cpptree::Program::ExitOp).
  bool Exit = false;
  /// This op's index in the chain's profile slots.
  std::size_t ProfSlot = 0;
};

/// A chain compiled for batch execution.
struct VecPlan {
  bool Ok = false;
  std::string WhyNot; ///< Reason the chain stays scalar when !Ok.

  query::SourceDesc Src;
  expr::TypeKind SrcK = expr::TypeKind::Double;
  std::size_t SrcProfSlot = 0;

  std::vector<VStep> Steps;

  VAggMode Agg = VAggMode::None;
  /// Whether the accumulator is the first operand of the Reduce step, the
  /// operator at the root of AggStep's body (fixes the operand order of
  /// Sub and the NaN behavior of Min/Max).
  bool AccFirst = true;
  /// Compiled element-side expression g of `acc = acc op g(elem)`.
  CompiledExpr AggArg;
  expr::TypeKind AccK = expr::TypeKind::Double;
  expr::Lambda AggStep;   ///< Fn2, for the Generic fold.
  expr::ExprRef AggSeed;  ///< Evaluated in the prologue, chain order.
  expr::Lambda AggResult; ///< Fn3; may be invalid (result = acc).
  std::size_t AggProfSlot = 0;

  std::size_t RetProfSlot = 0;
  bool ScalarResult = false;
  /// Chain.Ops.size(): the ProfileSink this plan accounts into must have
  /// exactly this many op slots.
  std::size_t NumProfOps = 0;
  /// Elements per batch; planChain always plans 1024.
  std::size_t BatchSize = 1024;
};

/// Plans \p C for batched execution; Ok=false (with WhyNot) means the
/// chain keeps the scalar path. Op \p ExitOp of \p C, the generated
/// program's cpptree::Program::ExitOp, becomes the Exit step. Without one
/// (~0u, cpptree::NoExitOp) the batch loop reads the whole source: the
/// same rows, but not the generated loop's profile counts.
VecPlan planChain(const quil::Chain &C, unsigned ExitOp = ~0u);

/// Bound inputs for one batched execution (mirrors interp::RunInput).
struct BatchInput {
  const std::vector<expr::SourceBuffer> *Sources = nullptr;
  const std::vector<expr::Value> *Values = nullptr;
  /// Per-batch accounting sink; null (or wrongly sized) disables it.
  obs::ProfileSink *Profile = nullptr;
};

/// Executes \p P against \p In, adding its rows to \p Result (exactly
/// one for scalar chains). Rows are always scalar Values: the plan
/// guarantees scalar element types.
void executeBatched(const VecPlan &P, const BatchInput &In,
                    ResultBuilder &Result);

} // namespace vec
} // namespace steno

#endif // STENO_VEC_BATCHEXEC_H
