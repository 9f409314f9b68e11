//===- vec/VecEval.cpp - Columnar expression evaluation --------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "vec/VecEval.h"

#include "expr/Analysis.h"
#include "support/Error.h"

#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>

using namespace steno;
using namespace steno::vec;
using expr::BinaryOp;
using expr::Builtin;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;
using expr::TypeKind;
using expr::UnaryOp;
using expr::Value;

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

bool vec::exprMayTrap(const Expr &E) {
  if (E.kind() == ExprKind::Binary &&
      (E.binaryOp() == BinaryOp::Div || E.binaryOp() == BinaryOp::Mod) &&
      E.type()->isInt64())
    return true;
  for (const ExprRef &Op : E.operands())
    if (exprMayTrap(*Op))
      return true;
  return false;
}

namespace {

bool compileNode(const ExprRef &E, const std::string &Elem, VecExpr &Out);

/// Compiles operand \p I of \p Parent. Element-free operands become scalar
/// leaves; the only non-scalar leaf permitted is the vec operand of
/// VecIndex, which the evaluator consumes as a whole Value.
bool compileKid(const Expr &Parent, unsigned I, const std::string &Elem,
                VecExpr &Out) {
  const ExprRef &K = Parent.operand(I);
  if (expr::freeParams(*K).count(Elem) == 0) {
    bool VecLeafOk = Parent.kind() == ExprKind::VecIndex && I == 0;
    if (!K->type()->isScalar() && !VecLeafOk)
      return false;
    Out = VecExpr{K.get(), /*ElemFree=*/true, exprMayTrap(*K), {}};
    return true;
  }
  return compileNode(K, Elem, Out);
}

/// \p E depends on the element parameter. Lane-dependent values must stay
/// scalar (bool / int64 / double columns); pair and vec values over lanes
/// are what forces the scalar fallback.
bool compileNode(const ExprRef &E, const std::string &Elem, VecExpr &Out) {
  if (!E->type()->isScalar())
    return false;
  Out.E = E.get();
  Out.ElemFree = false;
  Out.MayTrap = exprMayTrap(*E);
  Out.Kids.clear();
  switch (E->kind()) {
  case ExprKind::Param:
    return E->paramName() == Elem;
  case ExprKind::Convert:
  case ExprKind::Unary:
  case ExprKind::Binary:
  case ExprKind::Call:
  case ExprKind::Cond:
  case ExprKind::VecIndex: {
    Out.Kids.resize(E->operands().size());
    for (unsigned I = 0; I != E->operands().size(); ++I)
      if (!compileKid(*E, I, Elem, Out.Kids[I]))
        return false;
    return true;
  }
  default:
    // Const/Capture/BufferSlice/SourceLen are element-free by construction;
    // PairNew/PairFirst/PairSecond/VecLen over a lane-dependent operand are
    // not vectorized.
    return false;
  }
}

} // namespace

CompiledExpr vec::compileVecExpr(const ExprRef &E,
                                 const std::string &ElemName) {
  CompiledExpr C;
  C.Root = E;
  if (!E)
    return C;
  // Any free parameter other than the element cannot be bound during
  // columnar evaluation (nested-lambda shapes take the scalar path).
  std::set<std::string> FP = expr::freeParams(*E);
  for (const std::string &P : FP)
    if (P != ElemName)
      return C;
  if (FP.count(ElemName) == 0) {
    if (!E->type()->isScalar())
      return C;
    C.Tree = VecExpr{E.get(), /*ElemFree=*/true, exprMayTrap(*E), {}};
    C.Ok = true;
    return C;
  }
  VecExpr T;
  if (!compileNode(E, ElemName, T))
    return C;
  C.Tree = std::move(T);
  C.Ok = true;
  return C;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

namespace {

/// One past the highest lane index the selection can address — the size
/// every lane-indexed buffer must have. Selections are ascending, so the
/// last entry bounds them.
std::size_t laneBound(const Lanes &L) {
  assert(!L.empty() && "laneBound of empty lanes");
  return static_cast<std::size_t>(L.Dense ? L.Hi : L.Idx[L.Cnt - 1] + 1);
}

Lanes fromSel(const std::vector<std::int32_t> &S) {
  return Lanes{false, 0, 0, S.data(), 0,
               static_cast<std::int64_t>(S.size())};
}

/// Lane read with the numeric coercion of Value::asNumericDouble.
double numAt(const Col &C, std::int64_t I) {
  return C.K == TypeKind::Double ? C.D[I] : static_cast<double>(C.I[I]);
}

[[noreturn]] void divTrap() {
  support::fatalError(
      "steno runtime error [ST2001]: integer division by zero");
}

/// Broadcasts a scalar Value over the live lanes of a fresh column.
Col splat(const Value &V, const EvalCtx &Ctx, const Lanes &L) {
  std::size_t N = laneBound(L);
  ColBuf &Buf = Ctx.Scr->col();
  switch (V.kind()) {
  case TypeKind::Bool: {
    std::uint8_t *O = Buf.bl(N);
    std::uint8_t B = V.asBool() ? 1 : 0;
    L.forEach([&](std::int64_t I) { O[I] = B; });
    return Col::bl(O);
  }
  case TypeKind::Int64: {
    std::int64_t *O = Buf.i64(N);
    std::int64_t X = V.asInt64();
    L.forEach([&](std::int64_t I) { O[I] = X; });
    return Col::i64(O);
  }
  case TypeKind::Double: {
    double *O = Buf.dbl(N);
    double X = V.asDouble();
    L.forEach([&](std::int64_t I) { O[I] = X; });
    return Col::dbl(O);
  }
  default:
    break;
  }
  assert(false && "splat of non-scalar value");
  std::abort();
}

/// Copies the \p Sub lanes of \p Src into \p Dst (same type).
void copyLanes(const Col &Src, const Lanes &Sub, const Col &Dst) {
  switch (Dst.K) {
  case TypeKind::Bool:
    Sub.forEach([&](std::int64_t I) {
      const_cast<std::uint8_t *>(Dst.B)[I] = Src.B[I];
    });
    return;
  case TypeKind::Int64:
    Sub.forEach([&](std::int64_t I) {
      const_cast<std::int64_t *>(Dst.I)[I] = Src.I[I];
    });
    return;
  case TypeKind::Double:
    Sub.forEach(
        [&](std::int64_t I) { const_cast<double *>(Dst.D)[I] = Src.D[I]; });
    return;
  default:
    assert(false && "copyLanes of non-scalar column");
  }
}

Col makeCol(TypeKind K, std::size_t N, const EvalCtx &Ctx) {
  ColBuf &Buf = Ctx.Scr->col();
  switch (K) {
  case TypeKind::Bool:
    return Col::bl(Buf.bl(N));
  case TypeKind::Int64:
    return Col::i64(Buf.i64(N));
  default:
    return Col::dbl(Buf.dbl(N));
  }
}

Col evalConvertVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  Col In = evalVec(N.Kids[0], Ctx, L);
  std::size_t Bn = laneBound(L);
  if (N.E->type()->isDouble()) {
    double *O = Ctx.Scr->col().dbl(Bn);
    if (In.K == TypeKind::Int64)
      L.forEach(
          [&](std::int64_t I) { O[I] = static_cast<double>(In.I[I]); });
    else
      L.forEach([&](std::int64_t I) { O[I] = In.D[I]; });
    return Col::dbl(O);
  }
  assert(N.E->type()->isInt64() && "convert target must be numeric");
  std::int64_t *O = Ctx.Scr->col().i64(Bn);
  if (In.K == TypeKind::Double)
    L.forEach(
        [&](std::int64_t I) { O[I] = static_cast<std::int64_t>(In.D[I]); });
  else
    L.forEach([&](std::int64_t I) { O[I] = In.I[I]; });
  return Col::i64(O);
}

Col evalUnaryVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  Col In = evalVec(N.Kids[0], Ctx, L);
  std::size_t Bn = laneBound(L);
  if (N.E->unaryOp() == UnaryOp::Not) {
    std::uint8_t *O = Ctx.Scr->col().bl(Bn);
    L.forEach([&](std::int64_t I) { O[I] = In.B[I] ? 0 : 1; });
    return Col::bl(O);
  }
  if (In.K == TypeKind::Int64) {
    std::int64_t *O = Ctx.Scr->col().i64(Bn);
    L.forEach([&](std::int64_t I) { O[I] = -In.I[I]; });
    return Col::i64(O);
  }
  double *O = Ctx.Scr->col().dbl(Bn);
  L.forEach([&](std::int64_t I) { O[I] = -In.D[I]; });
  return Col::dbl(O);
}

/// And / Or with per-lane short-circuit: the RHS is evaluated only on the
/// lanes whose LHS did not decide the result, exactly mirroring the scalar
/// evaluator element by element.
Col evalLogicVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  bool IsAnd = N.E->binaryOp() == BinaryOp::And;
  Col Lhs = evalVec(N.Kids[0], Ctx, L);
  std::size_t Bn = laneBound(L);
  std::uint8_t *O = Ctx.Scr->col().bl(Bn);
  std::vector<std::int32_t> &Need = Ctx.Scr->sel();
  Need.clear();
  L.forEach([&](std::int64_t I) {
    bool B = Lhs.B[I] != 0;
    if (B == IsAnd)
      Need.push_back(static_cast<std::int32_t>(I));
    else
      O[I] = B ? 1 : 0;
  });
  if (!Need.empty()) {
    Lanes Sub = fromSel(Need);
    Col Rhs = evalVec(N.Kids[1], Ctx, Sub);
    Sub.forEach([&](std::int64_t I) { O[I] = Rhs.B[I] ? 1 : 0; });
  }
  return Col::bl(O);
}

/// O[I] = At(A, I) Op At(B, I) over the live lanes, with the operator
/// switch hoisted out of the lane loop.
template <typename Getter>
void compareLanes(BinaryOp Op, const Lanes &L, const Col &A, const Col &B,
                  std::uint8_t *O, Getter At) {
  switch (Op) {
  case BinaryOp::Eq:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) == At(B, I) ? 1 : 0; });
    break;
  case BinaryOp::Ne:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) != At(B, I) ? 1 : 0; });
    break;
  case BinaryOp::Lt:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) < At(B, I) ? 1 : 0; });
    break;
  case BinaryOp::Le:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) <= At(B, I) ? 1 : 0; });
    break;
  case BinaryOp::Gt:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) > At(B, I) ? 1 : 0; });
    break;
  case BinaryOp::Ge:
    L.forEach([&](std::int64_t I) { O[I] = At(A, I) >= At(B, I) ? 1 : 0; });
    break;
  default:
    assert(false && "non-comparison op");
  }
}

Col evalArithCompareVec(const VecExpr &N, const EvalCtx &Ctx,
                        const Lanes &L) {
  BinaryOp Op = N.E->binaryOp();
  Col A = evalVec(N.Kids[0], Ctx, L);
  Col B = evalVec(N.Kids[1], Ctx, L);
  std::size_t Bn = laneBound(L);
  if (expr::isArithmetic(Op)) {
    if (A.K == TypeKind::Int64 && B.K == TypeKind::Int64) {
      std::int64_t *O = Ctx.Scr->col().i64(Bn);
      switch (Op) {
      case BinaryOp::Add:
        L.forEach([&](std::int64_t I) { O[I] = A.I[I] + B.I[I]; });
        break;
      case BinaryOp::Sub:
        L.forEach([&](std::int64_t I) { O[I] = A.I[I] - B.I[I]; });
        break;
      case BinaryOp::Mul:
        L.forEach([&](std::int64_t I) { O[I] = A.I[I] * B.I[I]; });
        break;
      case BinaryOp::Div:
        L.forEach([&](std::int64_t I) {
          std::int64_t X = A.I[I], Y = B.I[I];
          if (Y == 0 || (Y == -1 && X == INT64_MIN))
            divTrap();
          O[I] = X / Y;
        });
        break;
      case BinaryOp::Mod:
        L.forEach([&](std::int64_t I) {
          std::int64_t X = A.I[I], Y = B.I[I];
          if (Y == 0 || (Y == -1 && X == INT64_MIN))
            divTrap();
          O[I] = X % Y;
        });
        break;
      default:
        assert(false && "non-arithmetic op");
      }
      return Col::i64(O);
    }
    double *O = Ctx.Scr->col().dbl(Bn);
    switch (Op) {
    case BinaryOp::Add:
      L.forEach([&](std::int64_t I) { O[I] = numAt(A, I) + numAt(B, I); });
      break;
    case BinaryOp::Sub:
      L.forEach([&](std::int64_t I) { O[I] = numAt(A, I) - numAt(B, I); });
      break;
    case BinaryOp::Mul:
      L.forEach([&](std::int64_t I) { O[I] = numAt(A, I) * numAt(B, I); });
      break;
    case BinaryOp::Div:
      L.forEach([&](std::int64_t I) { O[I] = numAt(A, I) / numAt(B, I); });
      break;
    case BinaryOp::Mod:
      L.forEach([&](std::int64_t I) {
        O[I] = std::fmod(numAt(A, I), numAt(B, I));
      });
      break;
    default:
      assert(false && "non-arithmetic op");
    }
    return Col::dbl(O);
  }
  // Comparison. Bool operands admit Eq/Ne only; numeric operands compare
  // like the scalar evalCompare: two int64 columns exactly, anything else
  // through the double coercion.
  std::uint8_t *O = Ctx.Scr->col().bl(Bn);
  if (A.K == TypeKind::Bool) {
    bool IsEq = Op == BinaryOp::Eq;
    L.forEach([&](std::int64_t I) {
      bool X = A.B[I] != 0, Y = B.B[I] != 0;
      O[I] = (IsEq ? X == Y : X != Y) ? 1 : 0;
    });
    return Col::bl(O);
  }
  if (A.K == TypeKind::Int64 && B.K == TypeKind::Int64)
    compareLanes(Op, L, A, B, O,
                 [](const Col &C, std::int64_t I) { return C.I[I]; });
  else
    compareLanes(Op, L, A, B, O,
                 [](const Col &C, std::int64_t I) { return numAt(C, I); });
  return Col::bl(O);
}

Col evalCallVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  Builtin Fn = N.E->builtin();
  Col A0 = evalVec(N.Kids[0], Ctx, L);
  std::size_t Bn = laneBound(L);
  switch (Fn) {
  case Builtin::Sqrt:
  case Builtin::Floor:
  case Builtin::Ceil:
  case Builtin::Exp:
  case Builtin::Log: {
    double *O = Ctx.Scr->col().dbl(Bn);
    switch (Fn) {
    case Builtin::Sqrt:
      L.forEach([&](std::int64_t I) { O[I] = std::sqrt(numAt(A0, I)); });
      break;
    case Builtin::Floor:
      L.forEach([&](std::int64_t I) { O[I] = std::floor(numAt(A0, I)); });
      break;
    case Builtin::Ceil:
      L.forEach([&](std::int64_t I) { O[I] = std::ceil(numAt(A0, I)); });
      break;
    case Builtin::Exp:
      L.forEach([&](std::int64_t I) { O[I] = std::exp(numAt(A0, I)); });
      break;
    default:
      L.forEach([&](std::int64_t I) { O[I] = std::log(numAt(A0, I)); });
      break;
    }
    return Col::dbl(O);
  }
  case Builtin::Abs: {
    if (A0.K == TypeKind::Int64) {
      std::int64_t *O = Ctx.Scr->col().i64(Bn);
      L.forEach([&](std::int64_t I) {
        std::int64_t X = A0.I[I];
        O[I] = X < 0 ? -X : X;
      });
      return Col::i64(O);
    }
    double *O = Ctx.Scr->col().dbl(Bn);
    L.forEach([&](std::int64_t I) { O[I] = std::fabs(A0.D[I]); });
    return Col::dbl(O);
  }
  case Builtin::Min:
  case Builtin::Max: {
    Col A1 = evalVec(N.Kids[1], Ctx, L);
    bool IsMin = Fn == Builtin::Min;
    if (A0.K == TypeKind::Int64 && A1.K == TypeKind::Int64) {
      std::int64_t *O = Ctx.Scr->col().i64(Bn);
      L.forEach([&](std::int64_t I) {
        std::int64_t X = A0.I[I], Y = A1.I[I];
        bool TakeA = IsMin ? X < Y : X > Y;
        O[I] = TakeA ? X : Y;
      });
      return Col::i64(O);
    }
    double *O = Ctx.Scr->col().dbl(Bn);
    L.forEach([&](std::int64_t I) {
      double X = numAt(A0, I), Y = numAt(A1, I);
      bool TakeA = IsMin ? X < Y : X > Y;
      O[I] = TakeA ? X : Y;
    });
    return Col::dbl(O);
  }
  case Builtin::Pow: {
    Col A1 = evalVec(N.Kids[1], Ctx, L);
    double *O = Ctx.Scr->col().dbl(Bn);
    L.forEach([&](std::int64_t I) {
      O[I] = std::pow(numAt(A0, I), numAt(A1, I));
    });
    return Col::dbl(O);
  }
  }
  assert(false && "bad Builtin");
  std::abort();
}

/// Cond evaluates each branch only on the lanes that take it — both for
/// trap fidelity and to avoid wasted work on skewed conditions.
Col evalCondVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  Col C = evalVec(N.Kids[0], Ctx, L);
  std::vector<std::int32_t> &TS = Ctx.Scr->sel();
  std::vector<std::int32_t> &FS = Ctx.Scr->sel();
  TS.clear();
  FS.clear();
  L.forEach([&](std::int64_t I) {
    (C.B[I] ? TS : FS).push_back(static_cast<std::int32_t>(I));
  });
  Col Out = makeCol(N.E->type()->kind(), laneBound(L), Ctx);
  if (!TS.empty()) {
    Lanes TL = fromSel(TS);
    copyLanes(evalVec(N.Kids[1], Ctx, TL), TL, Out);
  }
  if (!FS.empty()) {
    Lanes FL = fromSel(FS);
    copyLanes(evalVec(N.Kids[2], Ctx, FL), FL, Out);
  }
  return Out;
}

Col evalVecIndexVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  assert(N.Kids[0].ElemFree && "VecIndex vec operand must be element-free");
  expr::VecView V = expr::evalExpr(*N.Kids[0].E, *Ctx.Env).asVec();
  Col Idx = evalVec(N.Kids[1], Ctx, L);
  double *O = Ctx.Scr->col().dbl(laneBound(L));
  L.forEach([&](std::int64_t I) { O[I] = V[Idx.I[I]]; });
  return Col::dbl(O);
}

} // namespace

Col vec::evalVec(const VecExpr &N, const EvalCtx &Ctx, const Lanes &L) {
  assert(!L.empty() && "evalVec over empty lanes");
  if (N.ElemFree)
    return splat(expr::evalExpr(*N.E, *Ctx.Env), Ctx, L);
  switch (N.E->kind()) {
  case ExprKind::Param:
    return Ctx.Elem;
  case ExprKind::Convert:
    return evalConvertVec(N, Ctx, L);
  case ExprKind::Unary:
    return evalUnaryVec(N, Ctx, L);
  case ExprKind::Binary: {
    BinaryOp Op = N.E->binaryOp();
    if (Op == BinaryOp::And || Op == BinaryOp::Or)
      return evalLogicVec(N, Ctx, L);
    return evalArithCompareVec(N, Ctx, L);
  }
  case ExprKind::Call:
    return evalCallVec(N, Ctx, L);
  case ExprKind::Cond:
    return evalCondVec(N, Ctx, L);
  case ExprKind::VecIndex:
    return evalVecIndexVec(N, Ctx, L);
  default:
    break;
  }
  assert(false && "unvectorizable node reached evalVec");
  std::abort();
}

Value vec::laneValue(const Col &C, std::int64_t Lane) {
  switch (C.K) {
  case TypeKind::Bool:
    return Value(C.B[Lane] != 0);
  case TypeKind::Int64:
    return Value(C.I[Lane]);
  default:
    return Value(C.D[Lane]);
  }
}

Value vec::evalLane(const VecExpr &N, const std::string &ElemName,
                    const EvalCtx &Ctx, std::int64_t Lane) {
  Ctx.Env->bind(ElemName, laneValue(Ctx.Elem, Lane));
  Value V = expr::evalExpr(*N.E, *Ctx.Env);
  Ctx.Env->pop();
  return V;
}
