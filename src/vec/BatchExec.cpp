//===- vec/BatchExec.cpp - Batched chain planning and execution -*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "vec/BatchExec.h"

#include "expr/Analysis.h"
#include "expr/Ops.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>

using namespace steno;
using namespace steno::vec;
using expr::BinaryOp;
using expr::Builtin;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;
using expr::TypeKind;
using expr::Value;
using query::SourceKind;
using quil::Chain;
using quil::Op;
using quil::PredOp;
using quil::Sym;

//===----------------------------------------------------------------------===//
// Planning
//===----------------------------------------------------------------------===//

namespace {

VecPlan reject(std::string Why) {
  VecPlan P;
  P.WhyNot = std::move(Why);
  return P;
}

bool hasNoFreeParams(const ExprRef &E) {
  return !E || expr::freeParams(*E).empty();
}

/// Recognizes `(acc, x) => acc op g(x)` for op in + - * (and the min/max
/// call form), with acc on either side, so the fold runs as a typed tight
/// loop. Conservative: the accumulator operand must be exactly the bare
/// acc parameter, acc must not occur in g, and acc/g/result must share one
/// numeric type. Everything else (Average's pair accumulator, user folds)
/// takes the Generic per-lane path.
bool recognizeReduce(const expr::Lambda &Fn2, VecPlan &P) {
  if (Fn2.arity() != 2)
    return false;
  const std::string &Acc = Fn2.param(0).Name;
  const std::string &Elem = Fn2.param(1).Name;
  const Expr &B = *Fn2.body();
  bool IsStep =
      B.kind() == ExprKind::Binary
          ? B.binaryOp() == BinaryOp::Add || B.binaryOp() == BinaryOp::Sub ||
                B.binaryOp() == BinaryOp::Mul
          : B.kind() == ExprKind::Call && (B.builtin() == Builtin::Min ||
                                           B.builtin() == Builtin::Max);
  if (!IsStep)
    return false;
  auto IsAccParam = [&](const ExprRef &E) {
    return E->kind() == ExprKind::Param && E->paramName() == Acc;
  };
  ExprRef G;
  if (IsAccParam(B.operand(0))) {
    P.AccFirst = true;
    G = B.operand(1);
  } else if (IsAccParam(B.operand(1))) {
    P.AccFirst = false;
    G = B.operand(0);
  } else {
    return false;
  }
  if (expr::freeParams(*G).count(Acc))
    return false;
  const expr::TypeRef &Ty = Fn2.body()->type();
  if (!Ty->isNumeric() || !expr::sameType(Ty, Fn2.param(0).Ty) ||
      !expr::sameType(Ty, G->type()))
    return false;
  CompiledExpr CG = compileVecExpr(G, Elem);
  if (!CG.Ok)
    return false;
  P.AggArg = std::move(CG);
  P.AccK = Ty->kind();
  return true;
}

} // namespace

VecPlan vec::planChain(const Chain &C, unsigned ExitOp) {
  if (C.Ops.size() < 2)
    return reject("degenerate chain");
  const Op &SrcOp = C.Ops.front();
  if (SrcOp.S != Sym::Src)
    return reject("chain does not start with Src");
  VecPlan P;
  P.Src = SrcOp.Src;
  switch (SrcOp.Src.Kind) {
  case SourceKind::DoubleArray:
  case SourceKind::Int64Array:
    break;
  case SourceKind::Range:
    if (!hasNoFreeParams(SrcOp.Src.Start) ||
        !hasNoFreeParams(SrcOp.Src.CountE))
      return reject("range bounds reference outer parameters");
    break;
  case SourceKind::VecExpr:
    if (!SrcOp.Src.Vec || !hasNoFreeParams(SrcOp.Src.Vec))
      return reject("vec source references outer parameters");
    break;
  case SourceKind::PointArray:
    return reject("point (vec-element) source");
  }
  expr::TypeRef ElemTy = SrcOp.Src.elemType();
  if (!ElemTy || !ElemTy->isScalar())
    return reject("non-scalar source element");
  P.SrcK = ElemTy->kind();
  P.SrcProfSlot = 0;
  P.NumProfOps = C.Ops.size();
  P.RetProfSlot = C.Ops.size() - 1;
  P.ScalarResult = C.Scalar;

  for (std::size_t I = 1; I + 1 < C.Ops.size(); ++I) {
    const Op &O = C.Ops[I];
    VStep S;
    S.ProfSlot = I;
    switch (O.S) {
    case Sym::Trans: {
      if (O.Fn.arity() != 1)
        return reject("non-unary Trans lambda");
      if (!O.OutElem || !O.OutElem->isScalar())
        return reject("non-scalar Trans output");
      S.K = VStepKind::Trans;
      S.ElemName = O.Fn.param(0).Name;
      S.Body = compileVecExpr(O.Fn.body(), S.ElemName);
      if (!S.Body.Ok)
        return reject("unvectorizable Trans body");
      S.OutK = O.OutElem->kind();
      break;
    }
    case Sym::Pred: {
      if (O.P == PredOp::Take || O.P == PredOp::Skip) {
        if (!O.Seed || !hasNoFreeParams(O.Seed))
          return reject("Take/Skip count references outer parameters");
        S.K = O.P == PredOp::Take ? VStepKind::Take : VStepKind::Skip;
        S.Count = O.Seed;
      } else {
        if (O.Fn.arity() != 1)
          return reject("non-unary Pred lambda");
        S.K = O.P == PredOp::Where       ? VStepKind::Where
              : O.P == PredOp::TakeWhile ? VStepKind::TakeWhile
                                         : VStepKind::SkipWhile;
        S.ElemName = O.Fn.param(0).Name;
        S.Body = compileVecExpr(O.Fn.body(), S.ElemName);
        if (!S.Body.Ok)
          return reject("unvectorizable Pred body");
      }
      S.Exit = I == ExitOp;
      if (!O.OutElem || !O.OutElem->isScalar())
        return reject("non-scalar Pred element");
      S.OutK = O.OutElem->kind();
      break;
    }
    case Sym::Agg: {
      if (I + 2 != C.Ops.size())
        return reject("Agg not in tail position");
      if (O.StopWhen.valid())
        return reject("early-exit aggregate");
      if (!O.Fn2.valid() || O.Fn2.arity() != 2 || !O.Seed)
        return reject("malformed Agg");
      if (!hasNoFreeParams(O.Seed))
        return reject("Agg seed references outer parameters");
      if (!O.InElem || !O.InElem->isScalar())
        return reject("non-scalar Agg input");
      P.AggProfSlot = I;
      P.AggStep = O.Fn2;
      P.AggSeed = O.Seed;
      P.AggResult = O.Fn3;
      P.Agg = recognizeReduce(O.Fn2, P) ? VAggMode::Reduce
                                        : VAggMode::Generic;
      break;
    }
    case Sym::Sink:
      return reject("sink operator");
    case Sym::Nested:
      return reject("nested query");
    default:
      return reject("unexpected operator");
    }
    if (O.S != Sym::Agg)
      P.Steps.push_back(std::move(S));
  }
  if (C.Ops.back().S != Sym::Ret)
    return reject("chain does not end with Ret");
  if (P.Agg == VAggMode::None && C.Scalar)
    return reject("scalar chain without vectorizable Agg");
  P.Ok = true;
  return P;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

Lanes fromSel(const std::vector<std::int32_t> &S) {
  return Lanes{false, 0, 0, S.data(), 0,
               static_cast<std::int64_t>(S.size())};
}

void trimToFirst(Lanes &L, std::int64_t K) {
  if (L.Dense)
    L.Hi = L.Lo + K;
  else
    L.Cnt = L.Off + K;
}

void dropFirst(Lanes &L, std::int64_t K) {
  if (L.Dense)
    L.Lo += K;
  else
    L.Off += K;
}

/// Live lanes of \p L at or before lane \p Last.
std::int64_t lanesThrough(const Lanes &L, std::int64_t Last) {
  if (L.Dense)
    return std::clamp(Last + 1, L.Lo, L.Hi) - L.Lo;
  return std::upper_bound(L.Idx + L.Off, L.Idx + L.Cnt, Last) -
         (L.Idx + L.Off);
}

/// Position (in selection order) of the first lane whose predicate is
/// false, or L.size() when every live lane passes. A may-trap predicate is
/// evaluated lane by lane, in order, stopping at the boundary — exactly
/// the scalar evaluation order; a trap-free predicate is evaluated
/// columnar (evaluating past the boundary is unobservable: pure + total).
std::int64_t whileBoundary(const VStep &St, EvalCtx &Ctx, const Lanes &L) {
  std::int64_t Sz = L.size();
  if (St.Body.Tree.MayTrap) {
    for (std::int64_t J = 0; J != Sz; ++J)
      if (!evalLane(St.Body.Tree, St.ElemName, Ctx, L.at(J)).asBool())
        return J;
    return Sz;
  }
  Col Pd = evalVec(St.Body.Tree, Ctx, L);
  for (std::int64_t J = 0; J != Sz; ++J)
    if (!Pd.B[L.at(J)])
      return J;
  return Sz;
}

/// Folds the live lanes of \p G into \p Acc with the Reduce plan's step,
/// the operator at the root of its Fn2 body, keeping the accumulator in
/// the operand position the body gives it.
template <typename T>
T foldLanes(const VecPlan &P, T Acc, const T *G, const Lanes &L) {
  auto Fold = [&](auto Step) {
    if constexpr (std::is_invocable_v<decltype(Step), T, T>) {
      T A = Acc;
      if (P.AccFirst)
        L.forEach([&](std::int64_t I) { A = Step(A, G[I]); });
      else
        L.forEach([&](std::int64_t I) { A = Step(G[I], A); });
      Acc = A;
    }
  };
  const Expr &Body = *P.AggStep.body();
  if (Body.kind() == ExprKind::Binary)
    expr::withArithmetic(Body.binaryOp(), Fold);
  else
    expr::withBuiltin(Body.builtin(), Fold);
  return Acc;
}

} // namespace

void vec::executeBatched(const VecPlan &P, const BatchInput &In,
                         ResultBuilder &Result) {
  assert(P.Ok && "executing a rejected plan");
  expr::Env Env;
  if (In.Values)
    Env.setCaptures(In.Values);
  if (In.Sources)
    Env.setSources(In.Sources);
  obs::ProfileSink *Prof = In.Profile;
  if (Prof && Prof->Counts.size() != 2 * P.NumProfOps)
    Prof = nullptr;

  // Prologue, in chain-op order (matching the generated code's alpha
  // region): per-op counter/flag seeds first, then the aggregate seed,
  // then the source bounds — Range Start only when the range is non-empty
  // (the scalar loop never evaluates it for an empty source).
  std::vector<std::int64_t> Counters(P.Steps.size(), 0);
  std::vector<std::uint8_t> Flags(P.Steps.size(), 0);
  for (std::size_t I = 0; I != P.Steps.size(); ++I) {
    const VStep &St = P.Steps[I];
    if (St.K == VStepKind::Take || St.K == VStepKind::Skip)
      Counters[I] = expr::evalExpr(*St.Count, Env).asInt64();
    else if (St.K == VStepKind::SkipWhile)
      Flags[I] = 1; // still skipping
  }
  bool IsReduce = P.Agg == VAggMode::Reduce;
  std::int64_t AccI = 0;
  double AccD = 0;
  Value AccV;
  if (P.Agg != VAggMode::None) {
    Value Seed = expr::evalExpr(*P.AggSeed, Env);
    if (IsReduce) {
      if (P.AccK == TypeKind::Int64)
        AccI = Seed.asInt64();
      else
        AccD = Seed.asDouble();
    } else {
      AccV = Seed;
    }
  }

  const double *SrcD = nullptr;
  const std::int64_t *SrcI = nullptr;
  std::int64_t N = 0;
  std::int64_t RangeStart = 0;
  switch (P.Src.Kind) {
  case SourceKind::DoubleArray: {
    const expr::SourceBuffer &B = Env.sourceAt(P.Src.Slot);
    SrcD = B.DoubleData;
    N = B.Count;
    break;
  }
  case SourceKind::Int64Array: {
    const expr::SourceBuffer &B = Env.sourceAt(P.Src.Slot);
    SrcI = B.Int64Data;
    N = B.Count;
    break;
  }
  case SourceKind::Range:
    N = expr::evalExpr(*P.Src.CountE, Env).asInt64();
    if (N < 0)
      N = 0;
    if (N > 0)
      RangeStart = expr::evalExpr(*P.Src.Start, Env).asInt64();
    break;
  case SourceKind::VecExpr: {
    expr::VecView V = expr::evalExpr(*P.Src.Vec, Env).asVec();
    SrcD = V.Data;
    N = V.Len;
    break;
  }
  case SourceKind::PointArray:
    assert(false && "point source in a vectorized plan");
    break;
  }

  Workspace &WS = workspace();
  EvalCtx Ctx;
  Ctx.Env = &Env;
  Ctx.Scr = &WS.Scr;

  const std::int64_t BS = static_cast<std::int64_t>(P.BatchSize);
  // The lanes each step received in the current batch, counted once the
  // batch knows where the loop stops.
  std::vector<Lanes> Reached(Prof ? P.Steps.size() + 1 : 0);
  // The lane of the element that finds the Exit step exhausted, where the
  // generated loop `break`s; -1 while the loop runs on.
  std::int64_t Stop = -1;
  for (std::int64_t Base = 0; Stop < 0 && Base < N; Base += BS) {
    std::int64_t M = std::min(BS, N - Base);
    WS.Scr.reset();

    Col Elem;
    switch (P.Src.Kind) {
    case SourceKind::DoubleArray:
    case SourceKind::VecExpr:
      Elem = Col::dbl(SrcD + Base);
      break;
    case SourceKind::Int64Array:
      Elem = Col::i64(SrcI + Base);
      break;
    default: { // Range
      std::int64_t *O = WS.Scr.col().i64(static_cast<std::size_t>(M));
      for (std::int64_t J = 0; J != M; ++J)
        O[J] = rt::add(RangeStart, Base + J);
      Elem = Col::i64(O);
      break;
    }
    }
    Lanes L = Lanes::dense(M);

    for (std::size_t SI = 0; SI != P.Steps.size(); ++SI) {
      const VStep &St = P.Steps[SI];
      std::int64_t InCnt = L.size();
      if (Prof)
        Reached[SI] = L;
      if (InCnt == 0)
        continue; // nothing reaches the kernel
      Ctx.Elem = Elem;
      switch (St.K) {
      case VStepKind::Trans:
        Elem = evalVec(St.Body.Tree, Ctx, L);
        break;
      case VStepKind::Where: {
        Col Pd = evalVec(St.Body.Tree, Ctx, L);
        std::vector<std::int32_t> &Sel = WS.Scr.sel();
        Sel.clear();
        L.forEach([&](std::int64_t I) {
          if (Pd.B[I])
            Sel.push_back(static_cast<std::int32_t>(I));
        });
        L = fromSel(Sel);
        break;
      }
      case VStepKind::Take: {
        std::int64_t K = std::clamp<std::int64_t>(Counters[SI], 0, InCnt);
        Counters[SI] -= K;
        if (St.Exit && K < InCnt)
          Stop = L.at(K);
        trimToFirst(L, K);
        break;
      }
      case VStepKind::Skip: {
        std::int64_t K = std::clamp<std::int64_t>(Counters[SI], 0, InCnt);
        Counters[SI] -= K;
        dropFirst(L, K);
        break;
      }
      case VStepKind::TakeWhile: {
        if (Flags[SI]) { // done: everything downstream is filtered
          trimToFirst(L, 0);
          break;
        }
        std::int64_t B = whileBoundary(St, Ctx, L);
        if (B < InCnt) {
          Flags[SI] = 1;
          if (St.Exit)
            Stop = L.at(B);
          trimToFirst(L, B);
        }
        break;
      }
      case VStepKind::SkipWhile: {
        if (!Flags[SI]) // boundary already crossed: pass-through
          break;
        std::int64_t B = whileBoundary(St, Ctx, L);
        if (B < InCnt)
          Flags[SI] = 0;
        dropFirst(L, B);
        break;
      }
      }
    }
    if (Prof) {
      // The steps before the Exit step ran over the whole batch, but the
      // generated loop reaches no lane past Stop: each step counts the
      // lanes it received in and passed on out up to there. The Exit step
      // counts Stop in, not out.
      Reached.back() = L;
      std::int64_t Last = Stop < 0 ? M - 1 : Stop;
      Prof->Counts[2 * P.SrcProfSlot + 1] +=
          static_cast<std::uint64_t>(Last + 1);
      for (std::size_t SI = 0; SI != P.Steps.size(); ++SI) {
        std::size_t Slot = P.Steps[SI].ProfSlot;
        Prof->Counts[2 * Slot] +=
            static_cast<std::uint64_t>(lanesThrough(Reached[SI], Last));
        Prof->Counts[2 * Slot + 1] +=
            static_cast<std::uint64_t>(lanesThrough(Reached[SI + 1], Last));
      }
    }

    std::int64_t Out = L.size();
    if (P.Agg != VAggMode::None) {
      if (Prof)
        Prof->Counts[2 * P.AggProfSlot] += static_cast<std::uint64_t>(Out);
      if (Out == 0)
        continue;
      if (IsReduce) {
        Ctx.Elem = Elem;
        Col G = evalVec(P.AggArg.Tree, Ctx, L);
        if (P.AccK == TypeKind::Int64)
          AccI = foldLanes(P, AccI, G.I, L);
        else
          AccD = foldLanes(P, AccD, G.D, L);
      } else {
        L.forEach([&](std::int64_t I) {
          AccV = expr::applyLambda(P.AggStep, {AccV, laneValue(Elem, I)},
                                   Env);
        });
      }
      if (Prof)
        Prof->Counts[2 * P.AggProfSlot + 1] +=
            static_cast<std::uint64_t>(Out);
    } else {
      if (Prof)
        Prof->Counts[2 * P.RetProfSlot + 1] +=
            static_cast<std::uint64_t>(Out);
      L.forEach([&](std::int64_t I) { Result.add(laneValue(Elem, I)); });
    }
  }

  if (P.Agg != VAggMode::None) {
    Value A = IsReduce ? (P.AccK == TypeKind::Int64 ? Value(AccI)
                                                    : Value(AccD))
                       : AccV;
    Value R = P.AggResult.valid()
                  ? expr::applyLambda(P.AggResult, {A}, Env)
                  : A;
    if (Prof)
      Prof->Counts[2 * P.RetProfSlot + 1] += 1;
    Result.add(R);
  }
}
