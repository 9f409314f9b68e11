//===- analysis/AbsInt.cpp - Abstract interpretation over QUIL -*- C++ -*-===//

#include "analysis/AbsInt.h"
#include "analysis/ChainWalk.h"
#include "steno/Rt.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

using namespace steno;
using namespace steno::analysis;
using namespace steno::analysis::absint;
using expr::BinaryOp;
using expr::Builtin;
using expr::ExprKind;
using expr::ExprRef;
using expr::TypeRef;
using expr::UnaryOp;
using quil::Chain;
using quil::Op;
using quil::PredOp;
using quil::SinkOp;
using quil::Sym;

//===----------------------------------------------------------------------===//
// Interval domain
//===----------------------------------------------------------------------===//

namespace {

bool addOv(std::int64_t A, std::int64_t B, std::int64_t &R) {
  return __builtin_add_overflow(A, B, &R);
}
bool subOv(std::int64_t A, std::int64_t B, std::int64_t &R) {
  return __builtin_sub_overflow(A, B, &R);
}
bool mulOv(std::int64_t A, std::int64_t B, std::int64_t &R) {
  return __builtin_mul_overflow(A, B, &R);
}

std::string boundStr(std::int64_t V) {
  if (V == INT64_MIN)
    return "-inf";
  if (V == INT64_MAX)
    return "+inf";
  return std::to_string(V);
}

} // namespace

Interval Interval::join(const Interval &A, const Interval &B) {
  return Interval{std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

std::optional<Interval> Interval::meet(const Interval &A, const Interval &B) {
  Interval R{std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  if (R.Lo > R.Hi)
    return std::nullopt;
  return R;
}

Interval Interval::add(const Interval &A, const Interval &B) {
  Interval R;
  if (addOv(A.Lo, B.Lo, R.Lo) || addOv(A.Hi, B.Hi, R.Hi))
    return full();
  return R;
}

Interval Interval::sub(const Interval &A, const Interval &B) {
  Interval R;
  if (subOv(A.Lo, B.Hi, R.Lo) || subOv(A.Hi, B.Lo, R.Hi))
    return full();
  return R;
}

Interval Interval::neg(const Interval &A) {
  // -INT64_MIN overflows: saturate rather than wrap.
  if (A.Lo == INT64_MIN)
    return full();
  return Interval{-A.Hi, -A.Lo};
}

Interval Interval::mul(const Interval &A, const Interval &B) {
  const std::int64_t As[2] = {A.Lo, A.Hi};
  const std::int64_t Bs[2] = {B.Lo, B.Hi};
  std::int64_t Lo = INT64_MAX, Hi = INT64_MIN;
  for (std::int64_t X : As)
    for (std::int64_t Y : Bs) {
      std::int64_t P;
      if (mulOv(X, Y, P))
        return full();
      Lo = std::min(Lo, P);
      Hi = std::max(Hi, P);
    }
  return Interval{Lo, Hi};
}

Interval Interval::div(const Interval &A, const Interval &B) {
  if (!B.excludesZero())
    return full();
  const std::int64_t As[2] = {A.Lo, A.Hi};
  const std::int64_t Bs[2] = {B.Lo, B.Hi};
  std::int64_t Lo = INT64_MAX, Hi = INT64_MIN;
  for (std::int64_t X : As)
    for (std::int64_t Y : Bs) {
      if (X == INT64_MIN && Y == -1)
        return full(); // the overflow corner ckdiv also traps on
      std::int64_t Q = X / Y;
      Lo = std::min(Lo, Q);
      Hi = std::max(Hi, Q);
    }
  return Interval{Lo, Hi};
}

Interval Interval::rem(const Interval &A, const Interval &B) {
  if (!B.excludesZero())
    return full();
  // |a % b| < |b|, and the result has the sign of a (C++ semantics).
  std::int64_t MagLo = std::min(std::llabs(B.Lo == INT64_MIN ? INT64_MAX
                                                             : B.Lo),
                                std::llabs(B.Hi == INT64_MIN ? INT64_MAX
                                                             : B.Hi));
  std::int64_t Mag = std::max(std::llabs(B.Lo == INT64_MIN ? INT64_MAX
                                                           : B.Lo),
                              std::llabs(B.Hi == INT64_MIN ? INT64_MAX
                                                           : B.Hi));
  (void)MagLo;
  std::int64_t M = Mag - 1;
  Interval R{A.Lo >= 0 ? 0 : -M, A.Hi <= 0 ? 0 : M};
  // A value already smaller in magnitude than every divisor is unchanged.
  if (A.Lo > -Mag && A.Hi < Mag)
    if (auto Tight = meet(R, A))
      return *Tight;
  return R;
}

Interval Interval::absI(const Interval &A) {
  if (A.Lo == INT64_MIN)
    return full(); // abs(INT64_MIN) overflows
  std::int64_t L = std::llabs(A.Lo), H = std::llabs(A.Hi);
  return Interval{A.Lo <= 0 && A.Hi >= 0 ? 0 : std::min(L, H),
                  std::max(L, H)};
}

Interval Interval::minI(const Interval &A, const Interval &B) {
  return Interval{std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
}

Interval Interval::maxI(const Interval &A, const Interval &B) {
  return Interval{std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

std::string Interval::str() const {
  return "[" + boundStr(Lo) + ", " + boundStr(Hi) + "]";
}

//===----------------------------------------------------------------------===//
// AbsVal
//===----------------------------------------------------------------------===//

AbsVal AbsVal::topFor(const TypeRef &Ty) {
  if (!Ty)
    return top();
  if (Ty->isInt64())
    return fromInterval(Interval::full());
  if (Ty->isDouble())
    return unknownDouble();
  if (Ty->isBool())
    return fromTri(Tri::Unknown);
  return top();
}

AbsVal AbsVal::join(const AbsVal &A, const AbsVal &B) {
  if (A.K != B.K)
    return top();
  switch (A.K) {
  case Kind::Top:
    return top();
  case Kind::Int: {
    AbsVal R = fromInterval(Interval::join(A.I, B.I));
    R.NonZero = (A.NonZero || A.I.excludesZero()) &&
                (B.NonZero || B.I.excludesZero());
    return R;
  }
  case Kind::Bool:
    return fromTri(A.B == B.B ? A.B : Tri::Unknown);
  case Kind::Dbl:
    if (A.HasD && B.HasD &&
        (A.D == B.D || (std::isnan(A.D) && std::isnan(B.D))))
      return A;
    return unknownDouble();
  }
  return top();
}

std::string AbsVal::str() const {
  switch (K) {
  case Kind::Top:
    return "top";
  case Kind::Int:
    return I.str() + (NonZero && !I.excludesZero() ? " nonzero" : "");
  case Kind::Bool:
    return B == Tri::True ? "true" : B == Tri::False ? "false" : "bool?";
  case Kind::Dbl:
    return HasD ? support::strFormat("%g", D) : "double?";
  }
  return "top";
}

//===----------------------------------------------------------------------===//
// Abstract expression evaluation
//===----------------------------------------------------------------------===//

namespace {

BinaryOp negateCmp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
    return BinaryOp::Ne;
  case BinaryOp::Ne:
    return BinaryOp::Eq;
  case BinaryOp::Lt:
    return BinaryOp::Ge;
  case BinaryOp::Le:
    return BinaryOp::Gt;
  case BinaryOp::Gt:
    return BinaryOp::Le;
  case BinaryOp::Ge:
    return BinaryOp::Lt;
  default:
    return Op;
  }
}

BinaryOp flipCmp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Gt;
  case BinaryOp::Le:
    return BinaryOp::Ge;
  case BinaryOp::Gt:
    return BinaryOp::Lt;
  case BinaryOp::Ge:
    return BinaryOp::Le;
  default:
    return Op; // Eq/Ne are symmetric
  }
}

/// Three-valued comparison of two abstract values.
Tri compareVals(const AbsVal &A, const AbsVal &B, BinaryOp Op) {
  if (A.K == AbsVal::Kind::Int && B.K == AbsVal::Kind::Int) {
    const Interval &X = A.I;
    const Interval &Y = B.I;
    switch (Op) {
    case BinaryOp::Lt:
      if (X.Hi < Y.Lo)
        return Tri::True;
      if (X.Lo >= Y.Hi)
        return Tri::False;
      return Tri::Unknown;
    case BinaryOp::Le:
      if (X.Hi <= Y.Lo)
        return Tri::True;
      if (X.Lo > Y.Hi)
        return Tri::False;
      return Tri::Unknown;
    case BinaryOp::Gt:
      return compareVals(B, A, BinaryOp::Lt);
    case BinaryOp::Ge:
      return compareVals(B, A, BinaryOp::Le);
    case BinaryOp::Eq:
      if (X.isConst() && Y.isConst())
        return X.Lo == Y.Lo ? Tri::True : Tri::False;
      if (!Interval::meet(X, Y))
        return Tri::False;
      if (A.knownNonZero() && Y.isConst() && Y.Lo == 0)
        return Tri::False;
      if (B.knownNonZero() && X.isConst() && X.Lo == 0)
        return Tri::False;
      return Tri::Unknown;
    case BinaryOp::Ne:
      return triNot(compareVals(A, B, BinaryOp::Eq));
    default:
      return Tri::Unknown;
    }
  }
  if (A.K == AbsVal::Kind::Dbl && B.K == AbsVal::Kind::Dbl && A.HasD &&
      B.HasD) {
    switch (Op) {
    case BinaryOp::Lt:
      return A.D < B.D ? Tri::True : Tri::False;
    case BinaryOp::Le:
      return A.D <= B.D ? Tri::True : Tri::False;
    case BinaryOp::Gt:
      return A.D > B.D ? Tri::True : Tri::False;
    case BinaryOp::Ge:
      return A.D >= B.D ? Tri::True : Tri::False;
    case BinaryOp::Eq:
      return A.D == B.D ? Tri::True : Tri::False;
    case BinaryOp::Ne:
      return A.D != B.D ? Tri::True : Tri::False;
    default:
      return Tri::Unknown;
    }
  }
  if (A.K == AbsVal::Kind::Bool && B.K == AbsVal::Kind::Bool &&
      A.B != Tri::Unknown && B.B != Tri::Unknown) {
    bool Same = A.B == B.B;
    if (Op == BinaryOp::Eq)
      return Same ? Tri::True : Tri::False;
    if (Op == BinaryOp::Ne)
      return Same ? Tri::False : Tri::True;
  }
  return Tri::Unknown;
}

/// Recursive evaluator with operand-path tracking and an optional hook
/// invoked at every int64 division/modulo node.
struct Evaluator {
  using DivHook = std::function<void(
      const expr::Expr &Node, const std::vector<unsigned> &Path,
      const AbsVal &Dividend, const AbsVal &Divisor)>;

  const DivHook *Hook = nullptr;
  std::vector<unsigned> Path;

  AbsVal evalChild(const ExprRef &E, unsigned Idx, const Env &Environment) {
    Path.push_back(Idx);
    AbsVal V = eval(E, Environment);
    Path.pop_back();
    return V;
  }

  AbsVal eval(const ExprRef &E, const Env &Environment) {
    const expr::Expr &N = *E;
    switch (N.kind()) {
    case ExprKind::Const: {
      const expr::ConstValue &CV = N.constValue();
      if (std::holds_alternative<bool>(CV))
        return AbsVal::fromBool(std::get<bool>(CV));
      if (std::holds_alternative<std::int64_t>(CV))
        return AbsVal::fromInt(std::get<std::int64_t>(CV));
      return AbsVal::fromDouble(std::get<double>(CV));
    }
    case ExprKind::Param: {
      auto It = Environment.find(N.paramName());
      if (It != Environment.end())
        return It->second;
      return AbsVal::topFor(N.type());
    }
    case ExprKind::Capture:
      return AbsVal::topFor(N.type());
    case ExprKind::Convert: {
      AbsVal V = evalChild(N.operand(0), 0, Environment);
      if (N.type()->isDouble() && V.K == AbsVal::Kind::Int && V.I.isConst())
        return AbsVal::fromDouble(static_cast<double>(V.I.Lo));
      if (N.type()->isInt64() && V.K == AbsVal::Kind::Dbl && V.HasD)
        return AbsVal::fromInt(rt::toInt64(V.D));
      return AbsVal::topFor(N.type());
    }
    case ExprKind::Unary: {
      AbsVal V = evalChild(N.operand(0), 0, Environment);
      if (N.unaryOp() == UnaryOp::Not && V.K == AbsVal::Kind::Bool)
        return AbsVal::fromTri(triNot(V.B));
      if (N.unaryOp() == UnaryOp::Neg) {
        if (V.K == AbsVal::Kind::Int)
          return AbsVal::fromInterval(Interval::neg(V.I), V.NonZero);
        if (V.K == AbsVal::Kind::Dbl && V.HasD)
          return AbsVal::fromDouble(-V.D);
      }
      return AbsVal::topFor(N.type());
    }
    case ExprKind::Binary:
      return evalBinary(E, Environment);
    case ExprKind::Call:
      return evalCall(E, Environment);
    case ExprKind::Cond: {
      AbsVal C = evalChild(N.operand(0), 0, Environment);
      if (C.K == AbsVal::Kind::Bool && C.B == Tri::True)
        return evalChild(N.operand(1), 1, Environment);
      if (C.K == AbsVal::Kind::Bool && C.B == Tri::False)
        return evalChild(N.operand(2), 2, Environment);
      // Unknown condition: evaluate each arm under the branch's
      // refinement; an infeasible arm cannot execute and contributes
      // nothing to the join.
      Env TrueEnv = Environment;
      Env FalseEnv = Environment;
      bool TFeasible = refine(TrueEnv, N.operand(0), true);
      bool FFeasible = refine(FalseEnv, N.operand(0), false);
      if (TFeasible && !FFeasible)
        return evalChild(N.operand(1), 1, TrueEnv);
      if (!TFeasible && FFeasible)
        return evalChild(N.operand(2), 2, FalseEnv);
      AbsVal T = evalChild(N.operand(1), 1, TrueEnv);
      AbsVal F = evalChild(N.operand(2), 2, FalseEnv);
      return AbsVal::join(T, F);
    }
    case ExprKind::VecLen:
    case ExprKind::SourceLen:
      evalOperands(E, Environment);
      return AbsVal::fromInterval(Interval::of(0, INT64_MAX));
    case ExprKind::VecIndex:
      evalOperands(E, Environment);
      return AbsVal::unknownDouble();
    default:
      evalOperands(E, Environment);
      return AbsVal::topFor(N.type());
    }
  }

private:
  /// Evaluates operands for their division-site side effects only.
  void evalOperands(const ExprRef &E, const Env &Environment) {
    for (unsigned I = 0; I != E->operands().size(); ++I)
      evalChild(E->operand(I), I, Environment);
  }

  AbsVal evalBinary(const ExprRef &E, const Env &Environment) {
    const expr::Expr &N = *E;
    BinaryOp Op = N.binaryOp();

    // Short-circuit logic: the right operand only runs under the left's
    // gate, so it is scanned/evaluated in the refined environment.
    if (Op == BinaryOp::And || Op == BinaryOp::Or) {
      AbsVal L = evalChild(N.operand(0), 0, Environment);
      bool Gate = Op == BinaryOp::And; // value of L that reaches R
      if (L.K == AbsVal::Kind::Bool &&
          L.B == (Gate ? Tri::False : Tri::True))
        return L; // R never evaluates
      Env RightEnv = Environment;
      if (!refine(RightEnv, N.operand(0), Gate))
        return AbsVal::fromBool(!Gate); // L can never pass the gate
      AbsVal R = evalChild(N.operand(1), 1, RightEnv);
      Tri LB = L.K == AbsVal::Kind::Bool ? L.B : Tri::Unknown;
      Tri RB = R.K == AbsVal::Kind::Bool ? R.B : Tri::Unknown;
      if (Op == BinaryOp::And) {
        if (LB == Tri::False || RB == Tri::False)
          return AbsVal::fromBool(false);
        if (LB == Tri::True && RB == Tri::True)
          return AbsVal::fromBool(true);
      } else {
        if (LB == Tri::True || RB == Tri::True)
          return AbsVal::fromBool(true);
        if (LB == Tri::False && RB == Tri::False)
          return AbsVal::fromBool(false);
      }
      return AbsVal::fromTri(Tri::Unknown);
    }

    AbsVal L = evalChild(N.operand(0), 0, Environment);
    AbsVal R = evalChild(N.operand(1), 1, Environment);

    if (expr::isComparison(Op))
      return AbsVal::fromTri(compareVals(L, R, Op));

    if (N.type()->isInt64()) {
      Interval X = L.K == AbsVal::Kind::Int ? L.I : Interval::full();
      Interval Y = R.K == AbsVal::Kind::Int ? R.I : Interval::full();
      switch (Op) {
      case BinaryOp::Add:
        return AbsVal::fromInterval(Interval::add(X, Y));
      case BinaryOp::Sub:
        return AbsVal::fromInterval(Interval::sub(X, Y));
      case BinaryOp::Mul:
        return AbsVal::fromInterval(Interval::mul(X, Y));
      case BinaryOp::Div:
      case BinaryOp::Mod:
        if (Hook)
          (*Hook)(N, Path, L, R);
        return AbsVal::fromInterval(Op == BinaryOp::Div
                                        ? Interval::div(X, Y)
                                        : Interval::rem(X, Y));
      default:
        break;
      }
      return AbsVal::topFor(N.type());
    }

    if (N.type()->isDouble() && L.HasD && R.HasD) {
      switch (Op) {
      case BinaryOp::Add:
        return AbsVal::fromDouble(L.D + R.D);
      case BinaryOp::Sub:
        return AbsVal::fromDouble(L.D - R.D);
      case BinaryOp::Mul:
        return AbsVal::fromDouble(L.D * R.D);
      case BinaryOp::Div:
        return AbsVal::fromDouble(L.D / R.D);
      default:
        break;
      }
    }
    return AbsVal::topFor(N.type());
  }

  AbsVal evalCall(const ExprRef &E, const Env &Environment) {
    const expr::Expr &N = *E;
    std::vector<AbsVal> Args;
    for (unsigned I = 0; I != N.operands().size(); ++I)
      Args.push_back(evalChild(N.operand(I), I, Environment));

    if (N.type()->isInt64()) {
      auto Iv = [](const AbsVal &V) {
        return V.K == AbsVal::Kind::Int ? V.I : Interval::full();
      };
      switch (N.builtin()) {
      case Builtin::Abs:
        return AbsVal::fromInterval(Interval::absI(Iv(Args[0])),
                                    Args[0].NonZero);
      case Builtin::Min:
        return AbsVal::fromInterval(Interval::minI(Iv(Args[0]),
                                                   Iv(Args[1])));
      case Builtin::Max:
        return AbsVal::fromInterval(Interval::maxI(Iv(Args[0]),
                                                   Iv(Args[1])));
      default:
        return AbsVal::topFor(N.type());
      }
    }

    bool AllConst = true;
    for (const AbsVal &A : Args)
      AllConst = AllConst && A.K == AbsVal::Kind::Dbl && A.HasD;
    if (!AllConst)
      return AbsVal::topFor(N.type());
    switch (N.builtin()) {
    case Builtin::Sqrt:
      return AbsVal::fromDouble(std::sqrt(Args[0].D));
    case Builtin::Abs:
      return AbsVal::fromDouble(std::abs(Args[0].D));
    case Builtin::Min:
      return AbsVal::fromDouble(std::min(Args[0].D, Args[1].D));
    case Builtin::Max:
      return AbsVal::fromDouble(std::max(Args[0].D, Args[1].D));
    case Builtin::Floor:
      return AbsVal::fromDouble(std::floor(Args[0].D));
    case Builtin::Ceil:
      return AbsVal::fromDouble(std::ceil(Args[0].D));
    case Builtin::Exp:
      return AbsVal::fromDouble(std::exp(Args[0].D));
    case Builtin::Log:
      return AbsVal::fromDouble(std::log(Args[0].D));
    case Builtin::Pow:
      return AbsVal::fromDouble(std::pow(Args[0].D, Args[1].D));
    }
    return AbsVal::topFor(N.type());
  }
};

} // namespace

AbsVal absint::absEval(const ExprRef &E, const Env &Environment) {
  Evaluator Ev;
  return Ev.eval(E, Environment);
}

//===----------------------------------------------------------------------===//
// Refinement
//===----------------------------------------------------------------------===//

namespace {

/// Narrows the binding of parameter \p Name under `Name EffOp Other`.
/// Returns false when the constraint is infeasible.
bool refineParam(Env &Environment, const std::string &Name,
                 const TypeRef &Ty, BinaryOp EffOp, const AbsVal &Other) {
  if (!Ty->isInt64() || Other.K != AbsVal::Kind::Int)
    return true;

  auto It = Environment.find(Name);
  AbsVal Cur = It != Environment.end() ? It->second : AbsVal::topFor(Ty);
  if (Cur.K != AbsVal::Kind::Int)
    return true;

  Interval Bound = Interval::full();
  bool LearnNonZero = false;
  switch (EffOp) {
  case BinaryOp::Lt:
    if (Other.I.Hi == INT64_MIN)
      return false;
    Bound = Interval::of(INT64_MIN, Other.I.Hi - 1);
    break;
  case BinaryOp::Le:
    Bound = Interval::of(INT64_MIN, Other.I.Hi);
    break;
  case BinaryOp::Gt:
    if (Other.I.Lo == INT64_MAX)
      return false;
    Bound = Interval::of(Other.I.Lo + 1, INT64_MAX);
    break;
  case BinaryOp::Ge:
    Bound = Interval::of(Other.I.Lo, INT64_MAX);
    break;
  case BinaryOp::Eq:
    Bound = Other.I;
    LearnNonZero = Other.knownNonZero();
    break;
  case BinaryOp::Ne: {
    if (Other.I.isConst()) {
      std::int64_t C = Other.I.Lo;
      if (Cur.I.isConst() && Cur.I.Lo == C)
        return false;
      if (C == 0)
        Cur.NonZero = true;
      if (Cur.I.Lo == C && Cur.I.Lo < Cur.I.Hi)
        Cur.I.Lo = C + 1;
      else if (Cur.I.Hi == C && Cur.I.Lo < Cur.I.Hi)
        Cur.I.Hi = C - 1;
    }
    Environment[Name] = Cur;
    return true;
  }
  default:
    return true;
  }

  auto Met = Interval::meet(Cur.I, Bound);
  if (!Met)
    return false;
  Cur.I = *Met;
  Cur.NonZero = Cur.NonZero || LearnNonZero || Cur.I.excludesZero();
  Environment[Name] = Cur;
  return true;
}

} // namespace

bool absint::refine(Env &Environment, const ExprRef &Cond, bool Assume) {
  const expr::Expr &N = *Cond;
  switch (N.kind()) {
  case ExprKind::Const:
    if (std::holds_alternative<bool>(N.constValue()))
      return std::get<bool>(N.constValue()) == Assume;
    return true;
  case ExprKind::Unary:
    if (N.unaryOp() == UnaryOp::Not)
      return refine(Environment, N.operand(0), !Assume);
    return true;
  case ExprKind::Binary: {
    BinaryOp Op = N.binaryOp();
    if (Op == BinaryOp::And && Assume)
      return refine(Environment, N.operand(0), true) &&
             refine(Environment, N.operand(1), true);
    if (Op == BinaryOp::Or && !Assume)
      return refine(Environment, N.operand(0), false) &&
             refine(Environment, N.operand(1), false);
    if (!expr::isComparison(Op))
      return true;

    const ExprRef &L = N.operand(0);
    const ExprRef &R = N.operand(1);
    BinaryOp EffOp = Assume ? Op : negateCmp(Op);

    AbsVal LV = absEval(L, Environment);
    AbsVal RV = absEval(R, Environment);
    Tri Decided = compareVals(LV, RV, EffOp);
    if (Decided == Tri::False)
      return false;
    if (Decided == Tri::True)
      return true;

    if (L->kind() == ExprKind::Param &&
        !refineParam(Environment, L->paramName(), L->type(), EffOp, RV))
      return false;
    if (R->kind() == ExprKind::Param &&
        !refineParam(Environment, R->paramName(), R->type(),
                     flipCmp(EffOp), LV))
      return false;
    return true;
  }
  default:
    return true;
  }
}

//===----------------------------------------------------------------------===//
// Division safety
//===----------------------------------------------------------------------===//

bool absint::divisionIsSafe(const AbsVal &Dividend, const AbsVal &Divisor) {
  if (Divisor.K != AbsVal::Kind::Int)
    return false;
  if (!(Divisor.NonZero || Divisor.I.excludesZero()))
    return false;
  bool MayNegOne = Divisor.I.contains(-1);
  bool MayMin =
      Dividend.K != AbsVal::Kind::Int || Dividend.I.contains(INT64_MIN);
  return !(MayNegOne && MayMin);
}

//===----------------------------------------------------------------------===//
// Role environments and division scanning
//===----------------------------------------------------------------------===//

Env absint::roleEnv(const Op &O, ExprRole Role, const AbsVal &ElemIn,
                    const Env &Outer) {
  Env E = Outer;
  auto BindTops = [&](const expr::Lambda &L) {
    for (unsigned I = 0; I != L.arity(); ++I)
      E[L.param(I).Name] = AbsVal::topFor(L.param(I).Ty);
  };
  switch (Role) {
  case ExprRole::Fn:
    // Trans body / predicate / key selector: one element parameter.
    if (O.Fn.valid() && O.Fn.arity() >= 1) {
      BindTops(O.Fn);
      E[O.Fn.param(0).Name] = ElemIn;
    }
    break;
  case ExprRole::Fn2:
    // (acc, elem) -> acc: the accumulator is unbounded across
    // iterations (no fixpoint is attempted), the element is ElemIn.
    if (O.Fn2.valid()) {
      BindTops(O.Fn2);
      if (O.Fn2.arity() >= 2)
        E[O.Fn2.param(1).Name] = ElemIn;
    }
    break;
  case ExprRole::Fn3:
    if (O.Fn3.valid())
      BindTops(O.Fn3);
    break;
  case ExprRole::Combine:
    if (O.Combine.valid())
      BindTops(O.Combine);
    break;
  case ExprRole::StopWhen:
    if (O.StopWhen.valid())
      BindTops(O.StopWhen);
    break;
  default:
    break; // bare expressions (Seed, DenseKeys, Src*) see only Outer
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Chain analysis
//===----------------------------------------------------------------------===//

namespace {

std::int64_t clampNonNeg(std::int64_t V) { return V < 0 ? 0 : V; }

std::int64_t satSub0(std::int64_t A, std::int64_t B) {
  std::int64_t R;
  if (subOv(A, B, R) || R < 0)
    return 0;
  return R;
}

std::int64_t satMulCard(std::int64_t A, std::int64_t B) {
  std::int64_t R;
  if (mulOv(A, B, R))
    return INT64_MAX;
  return R;
}

struct ChainAnalyzer {
  ChainFacts run(const Chain &C, const Env &Outer,
                 const std::vector<unsigned> &Prefix) {
    ChainFacts Facts;
    Interval Card = Interval::card();
    AbsVal Elem;

    for (unsigned Idx = 0; Idx != C.Ops.size(); ++Idx) {
      const Op &O = C.Ops[Idx];
      OpFacts F;
      F.CardIn = Card;
      F.ElemIn = Elem;

      std::size_t DivStart = Facts.Divs.size();
      scanOpDivs(O, Idx, Elem, Outer, Prefix, Facts.Divs);

      if (O.S == Sym::Nested && O.NestedChain) {
        Env NestedOuter = Outer;
        if (!O.OuterParam.empty())
          NestedOuter[O.OuterParam] = Elem;
        std::vector<unsigned> NestedPrefix = Prefix;
        NestedPrefix.push_back(Idx);
        auto NF = std::make_shared<ChainFacts>(
            ChainAnalyzer().run(*O.NestedChain, NestedOuter, NestedPrefix));
        Facts.Divs.insert(Facts.Divs.end(), NF->Divs.begin(),
                          NF->Divs.end());
        Facts.Nested[Idx] = NF;
      }

      F.TrapFree = true;
      for (std::size_t I = DivStart; I != Facts.Divs.size(); ++I)
        F.TrapFree = F.TrapFree && Facts.Divs[I].Safe;

      transfer(O, Outer, Facts, Idx, F, Card, Elem);

      F.CardOut = Card;
      F.ElemOut = Elem;
      Facts.Ops.push_back(std::move(F));
    }

    Facts.CardOut = Card;
    Facts.ElemOut = Elem;
    return Facts;
  }

private:
  void scanOpDivs(const Op &O, unsigned Idx, const AbsVal &Elem,
                  const Env &Outer, const std::vector<unsigned> &Prefix,
                  std::vector<DivSite> &Out) {
    for (const detail::RoleExpr &RE : detail::roleExprs(O)) {
      Env E = roleEnv(O, RE.Role, Elem, Outer);
      Evaluator::DivHook Hook =
          [&](const expr::Expr &Node, const std::vector<unsigned> &Path,
              const AbsVal &Dividend, const AbsVal &Divisor) {
            if (!Node.type()->isInt64())
              return;
            DivSite S;
            S.Loc = detail::opLoc(Prefix, Idx, RE.Role, Path);
            S.Divisor = Divisor.K == AbsVal::Kind::Int ? Divisor.I
                                                       : Interval::full();
            S.DivisorNonZero = Divisor.knownNonZero();
            S.Dividend = Dividend.K == AbsVal::Kind::Int ? Dividend.I
                                                         : Interval::full();
            S.Safe = divisionIsSafe(Dividend, Divisor);
            Out.push_back(std::move(S));
          };
      Evaluator Ev;
      Ev.Hook = &Hook;
      Ev.eval(RE.expr(), E);
    }
  }

  void transfer(const Op &O, const Env &Outer, const ChainFacts &Facts,
                unsigned Idx, OpFacts &F, Interval &Card, AbsVal &Elem) {
    switch (O.S) {
    case Sym::Src:
      transferSrc(O, Outer, Card, Elem);
      break;

    case Sym::Trans:
      if (O.Fn.valid())
        Elem = absEval(O.Fn.body(), roleEnv(O, ExprRole::Fn, Elem, Outer));
      else
        Elem = AbsVal::topFor(O.OutElem);
      break;

    case Sym::Pred:
      transferPred(O, Outer, F, Card, Elem);
      break;

    case Sym::Sink:
      transferSink(O, Outer, Card, Elem);
      break;

    case Sym::Nested:
      transferNested(O, Facts, Idx, Card, Elem);
      break;

    case Sym::Agg:
      Card = Interval::constant(1);
      Elem = AbsVal::topFor(O.OutElem);
      break;

    case Sym::Ret:
      break;
    }
  }

  void transferSrc(const Op &O, const Env &Outer, Interval &Card,
                   AbsVal &Elem) {
    switch (O.Src.Kind) {
    case query::SourceKind::Range: {
      AbsVal CountV = O.Src.CountE ? absEval(O.Src.CountE, Outer)
                                   : AbsVal::top();
      AbsVal StartV = O.Src.Start ? absEval(O.Src.Start, Outer)
                                  : AbsVal::top();
      Interval N = CountV.K == AbsVal::Kind::Int ? CountV.I
                                                 : Interval::card();
      Card = Interval::of(clampNonNeg(N.Lo), clampNonNeg(N.Hi));
      if (StartV.K == AbsVal::Kind::Int && N.Hi > 0) {
        // Elements span [start, start + count - 1].
        Interval Span = Interval::add(
            StartV.I, Interval::of(0, N.Hi == INT64_MAX ? INT64_MAX
                                                        : N.Hi - 1));
        Elem = AbsVal::fromInterval(Span);
      } else if (StartV.K == AbsVal::Kind::Int) {
        Elem = AbsVal::fromInterval(StartV.I); // vacuous (empty source)
      } else {
        Elem = AbsVal::topFor(expr::Type::int64Ty());
      }
      break;
    }
    case query::SourceKind::Int64Array:
      Card = Interval::card();
      Elem = AbsVal::topFor(expr::Type::int64Ty());
      break;
    case query::SourceKind::DoubleArray:
    case query::SourceKind::VecExpr:
      Card = Interval::card();
      Elem = AbsVal::topFor(O.Src.elemType());
      break;
    case query::SourceKind::PointArray:
      Card = Interval::card();
      Elem = AbsVal::top();
      break;
    }
  }

  void transferPred(const Op &O, const Env &Outer, OpFacts &F,
                    Interval &Card, AbsVal &Elem) {
    switch (O.P) {
    case PredOp::Where:
    case PredOp::TakeWhile:
    case PredOp::SkipWhile: {
      if (!O.Fn.valid() || O.Fn.arity() < 1)
        break;
      Env BodyEnv = roleEnv(O, ExprRole::Fn, Elem, Outer);
      AbsVal PV = absEval(O.Fn.body(), BodyEnv);
      Tri T = PV.K == AbsVal::Kind::Bool ? PV.B : Tri::Unknown;
      if (T == Tri::Unknown) {
        // The predicate may still be infeasible for every reachable
        // element (e.g. x > 5 over elements bounded to [0, 3]).
        Env Refined = BodyEnv;
        if (!refine(Refined, O.Fn.body(), true))
          T = Tri::False;
        else if (O.P != PredOp::SkipWhile) {
          // Elements that continue downstream satisfied the predicate.
          auto It = Refined.find(O.Fn.param(0).Name);
          if (It != Refined.end())
            Elem = It->second;
        }
      }
      F.Pred = T;
      bool Empties = (O.P == PredOp::SkipWhile) ? T == Tri::True
                                                : T == Tri::False;
      bool NoOp = (O.P == PredOp::SkipWhile) ? T == Tri::False
                                             : T == Tri::True;
      if (Empties)
        Card = Interval::constant(0);
      else if (!NoOp)
        Card = Interval::of(0, Card.Hi);
      break;
    }
    case PredOp::Take:
    case PredOp::Skip: {
      AbsVal CV = O.Seed ? absEval(O.Seed, Outer) : AbsVal::top();
      F.Count = CV.constInt();
      Interval N = CV.K == AbsVal::Kind::Int ? CV.I : Interval::full();
      if (O.P == PredOp::Take) {
        Card = Interval::of(std::min(Card.Lo, clampNonNeg(N.Lo)),
                            std::min(Card.Hi, clampNonNeg(N.Hi)));
      } else {
        Card = Interval::of(
            satSub0(Card.Lo, clampNonNeg(N.Hi)),
            Card.Hi == INT64_MAX ? INT64_MAX
                                 : satSub0(Card.Hi, clampNonNeg(N.Lo)));
      }
      break;
    }
    }
  }

  void transferSink(const Op &O, const Env &Outer, Interval &Card,
                    AbsVal &Elem) {
    switch (O.K) {
    case SinkOp::OrderBy:
    case SinkOp::ToArray:
      break; // cardinality and element values unchanged
    case SinkOp::GroupBy:
      Card = groupCard(Card);
      Elem = AbsVal::topFor(O.OutElem);
      break;
    case SinkOp::GroupByAggregate:
      if (O.DenseKeys) {
        // The dense sink emits one row per key in [0, K) regardless of
        // how many elements arrived — including zero.
        AbsVal K = absEval(O.DenseKeys, Outer);
        Interval N = K.K == AbsVal::Kind::Int ? K.I : Interval::card();
        Card = Interval::of(clampNonNeg(N.Lo), clampNonNeg(N.Hi));
      } else {
        Card = groupCard(Card);
      }
      Elem = AbsVal::topFor(O.OutElem);
      break;
    }
  }

  static Interval groupCard(const Interval &Card) {
    if (Card.Hi == 0)
      return Interval::constant(0);
    return Interval::of(Card.Lo > 0 ? 1 : 0, Card.Hi);
  }

  void transferNested(const Op &O, const ChainFacts &Facts, unsigned Idx,
                      Interval &Card, AbsVal &Elem) {
    auto It = Facts.Nested.find(Idx);
    ChainFactsRef NF = It != Facts.Nested.end() ? It->second : nullptr;
    switch (O.Role) {
    case quil::NestedRole::Trans:
      Elem = AbsVal::topFor(O.OutElem);
      break;
    case quil::NestedRole::Pred:
      Card = Interval::of(0, Card.Hi);
      break;
    case quil::NestedRole::Flatten: {
      Interval Inner = NF ? NF->CardOut : Interval::card();
      if (Inner.Hi == 0) {
        Card = Interval::constant(0);
      } else {
        std::int64_t Lo = satMulCard(Card.Lo, clampNonNeg(Inner.Lo));
        std::int64_t Hi = (Card.Hi == INT64_MAX || Inner.Hi == INT64_MAX)
                              ? INT64_MAX
                              : satMulCard(Card.Hi, Inner.Hi);
        Card = Interval::of(Lo, Hi);
      }
      Elem = NF ? NF->ElemOut : AbsVal::topFor(O.OutElem);
      break;
    }
    }
  }
};

} // namespace

ChainFacts absint::analyzeChainFacts(const Chain &C, const Env &Outer,
                                     const std::vector<unsigned> &Prefix) {
  return ChainAnalyzer().run(C, Outer, Prefix);
}

//===----------------------------------------------------------------------===//
// Trap-elision marking
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds \p E with operand list \p Ops (same kinds/types), preserving
/// the divSafe marker.
ExprRef withOperands(const ExprRef &E, std::vector<ExprRef> Ops) {
  using expr::Expr;
  ExprRef R;
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Param:
  case ExprKind::Capture:
  case ExprKind::SourceLen:
    return E;
  case ExprKind::Convert:
    R = Expr::convert(Ops[0], E->type());
    break;
  case ExprKind::Unary:
    R = Expr::unary(E->unaryOp(), Ops[0]);
    break;
  case ExprKind::Binary:
    R = Expr::binary(E->binaryOp(), Ops[0], Ops[1]);
    if (E->divSafe())
      R = Expr::withDivSafe(R);
    break;
  case ExprKind::Call:
    R = Expr::call(E->builtin(), std::move(Ops));
    break;
  case ExprKind::Cond:
    R = Expr::cond(Ops[0], Ops[1], Ops[2]);
    break;
  case ExprKind::PairNew:
    R = Expr::pairNew(Ops[0], Ops[1]);
    break;
  case ExprKind::PairFirst:
    R = Expr::pairFirst(Ops[0]);
    break;
  case ExprKind::PairSecond:
    R = Expr::pairSecond(Ops[0]);
    break;
  case ExprKind::VecLen:
    R = Expr::vecLen(Ops[0]);
    break;
  case ExprKind::VecIndex:
    R = Expr::vecIndex(Ops[0], Ops[1]);
    break;
  case ExprKind::BufferSlice:
    R = Expr::bufferSlice(E->sourceSlot(), Ops[0], Ops[1]);
    break;
  }
  return R;
}

ExprRef markRec(const ExprRef &E, const Env &Environment,
                std::vector<std::string> *Facts) {
  const expr::Expr &N = *E;

  // Recurse into children, refining the environment where the language
  // guarantees a guard has been evaluated first (short-circuit && / ||,
  // conditional arms).
  std::vector<ExprRef> NewOps;
  NewOps.reserve(N.operands().size());
  bool Changed = false;
  for (unsigned I = 0; I != N.operands().size(); ++I) {
    Env ChildEnv = Environment;
    bool Feasible = true;
    if (N.kind() == ExprKind::Binary && I == 1 &&
        (N.binaryOp() == BinaryOp::And || N.binaryOp() == BinaryOp::Or))
      Feasible = refine(ChildEnv, N.operand(0),
                        N.binaryOp() == BinaryOp::And);
    else if (N.kind() == ExprKind::Cond && I > 0)
      Feasible = refine(ChildEnv, N.operand(0), I == 1);
    // An infeasible branch never executes; leave it untouched.
    ExprRef C = Feasible ? markRec(N.operand(I), ChildEnv, Facts)
                         : N.operand(I);
    Changed = Changed || C != N.operand(I);
    NewOps.push_back(std::move(C));
  }

  ExprRef R = Changed ? withOperands(E, std::move(NewOps)) : E;

  if (N.kind() == ExprKind::Binary &&
      (N.binaryOp() == BinaryOp::Div || N.binaryOp() == BinaryOp::Mod) &&
      N.type()->isInt64() && !N.divSafe()) {
    AbsVal L = absEval(R->operand(0), Environment);
    AbsVal D = absEval(R->operand(1), Environment);
    if (divisionIsSafe(L, D)) {
      R = expr::Expr::withDivSafe(R);
      if (Facts)
        Facts->push_back("divisor " + R->operand(1)->str() + " in " +
                         (D.K == AbsVal::Kind::Int ? D.I.str()
                                                   : std::string("top")) +
                         (D.NonZero && !D.I.excludesZero() ? " (nonzero)"
                                                           : "") +
                         ", dividend in " +
                         (L.K == AbsVal::Kind::Int ? L.I.str()
                                                   : std::string("top")));
    }
  }
  return R;
}

} // namespace

ExprRef absint::markSafeDivisions(const ExprRef &E, const Env &Environment,
                                  std::vector<std::string> *Facts) {
  if (!E)
    return E;
  return markRec(E, Environment, Facts);
}
