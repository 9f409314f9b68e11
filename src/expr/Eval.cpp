//===- expr/Eval.cpp ------------------------------------------*- C++ -*-===//

#include "expr/Eval.h"
#include "support/Error.h"

#include <cmath>
#include <cstdint>

using namespace steno;
using namespace steno::expr;

const Value &Env::lookup(const std::string &Name) const {
  for (auto It = Bindings.rbegin(); It != Bindings.rend(); ++It)
    if (It->first == Name)
      return It->second;
  if (Fallback)
    if (const Value *V = Fallback(Name))
      return *V;
  support::fatalError("unbound parameter '" + Name + "' during evaluation");
}

const Value &Env::captureAt(unsigned I) const {
  if (!Captures || I >= Captures->size())
    support::fatalError("capture slot " + std::to_string(I) +
                        " is not bound");
  return (*Captures)[I];
}

const SourceBuffer &Env::sourceAt(unsigned I) const {
  if (!Sources || I >= Sources->size())
    support::fatalError("source slot " + std::to_string(I) +
                        " is not bound");
  return (*Sources)[I];
}

namespace {

Value evalConvert(const Expr &E, const Value &In) {
  if (E.type()->isDouble())
    return Value(In.asNumericDouble());
  assert(E.type()->isInt64() && "convert target must be numeric");
  if (In.isInt64())
    return In;
  return Value(static_cast<std::int64_t>(In.asDouble()));
}

Value evalArith(BinaryOp Op, const Value &L, const Value &R) {
  if (L.isInt64() && R.isInt64()) {
    std::int64_t A = L.asInt64();
    std::int64_t B = R.asInt64();
    switch (Op) {
    case BinaryOp::Add:
      return Value(A + B);
    case BinaryOp::Sub:
      return Value(A - B);
    case BinaryOp::Mul:
      return Value(A * B);
    // Trap uniformly with the JIT backend (rt::ckdiv/ckmod): same stable
    // code, same fate on every backend, instead of debug-only asserts
    // that become undefined behavior in release builds.
    case BinaryOp::Div:
      if (B == 0 || (B == -1 && A == INT64_MIN))
        support::fatalError(
            "steno runtime error [ST2001]: integer division by zero");
      return Value(A / B);
    case BinaryOp::Mod:
      if (B == 0 || (B == -1 && A == INT64_MIN))
        support::fatalError(
            "steno runtime error [ST2001]: integer division by zero");
      return Value(A % B);
    default:
      break;
    }
    stenoUnreachable("non-arithmetic op in evalArith");
  }
  double A = L.asNumericDouble();
  double B = R.asNumericDouble();
  switch (Op) {
  case BinaryOp::Add:
    return Value(A + B);
  case BinaryOp::Sub:
    return Value(A - B);
  case BinaryOp::Mul:
    return Value(A * B);
  case BinaryOp::Div:
    return Value(A / B);
  case BinaryOp::Mod:
    return Value(std::fmod(A, B));
  default:
    break;
  }
  stenoUnreachable("non-arithmetic op in evalArith");
}

template <typename T> bool compare(BinaryOp Op, T A, T B) {
  switch (Op) {
  case BinaryOp::Eq:
    return A == B;
  case BinaryOp::Ne:
    return A != B;
  case BinaryOp::Lt:
    return A < B;
  case BinaryOp::Le:
    return A <= B;
  case BinaryOp::Gt:
    return A > B;
  case BinaryOp::Ge:
    return A >= B;
  default:
    break;
  }
  stenoUnreachable("non-comparison op in evalCompare");
}

Value evalCompare(BinaryOp Op, const Value &L, const Value &R) {
  if (L.isBool()) {
    bool A = L.asBool();
    bool B = R.asBool();
    return Value(Op == BinaryOp::Eq ? A == B : A != B);
  }
  // Two int64 operands compare exactly, as in the generated C++; an
  // int64 against a double is promoted to double, as C++ promotes it.
  if (L.isInt64() && R.isInt64())
    return Value(compare(Op, L.asInt64(), R.asInt64()));
  return Value(compare(Op, L.asNumericDouble(), R.asNumericDouble()));
}

Value evalCall(const Expr &E, const Env &Environment) {
  Builtin Fn = E.builtin();
  Value A0 = evalExpr(*E.operand(0), Environment);
  switch (Fn) {
  case Builtin::Sqrt:
    return Value(std::sqrt(A0.asNumericDouble()));
  case Builtin::Floor:
    return Value(std::floor(A0.asNumericDouble()));
  case Builtin::Ceil:
    return Value(std::ceil(A0.asNumericDouble()));
  case Builtin::Exp:
    return Value(std::exp(A0.asNumericDouble()));
  case Builtin::Log:
    return Value(std::log(A0.asNumericDouble()));
  case Builtin::Abs:
    if (A0.isInt64())
      return Value(A0.asInt64() < 0 ? -A0.asInt64() : A0.asInt64());
    return Value(std::fabs(A0.asDouble()));
  case Builtin::Min:
  case Builtin::Max: {
    Value A1 = evalExpr(*E.operand(1), Environment);
    if (A0.isInt64() && A1.isInt64()) {
      std::int64_t A = A0.asInt64();
      std::int64_t B = A1.asInt64();
      bool TakeA = Fn == Builtin::Min ? A < B : A > B;
      return Value(TakeA ? A : B);
    }
    double A = A0.asNumericDouble();
    double B = A1.asNumericDouble();
    bool TakeA = Fn == Builtin::Min ? A < B : A > B;
    return Value(TakeA ? A : B);
  }
  case Builtin::Pow: {
    Value A1 = evalExpr(*E.operand(1), Environment);
    return Value(std::pow(A0.asNumericDouble(), A1.asNumericDouble()));
  }
  }
  stenoUnreachable("bad Builtin");
}

} // namespace

Value expr::evalExpr(const Expr &E, const Env &Environment) {
  switch (E.kind()) {
  case ExprKind::Const: {
    const ConstValue &C = E.constValue();
    if (std::holds_alternative<bool>(C))
      return Value(std::get<bool>(C));
    if (std::holds_alternative<std::int64_t>(C))
      return Value(std::get<std::int64_t>(C));
    return Value(std::get<double>(C));
  }
  case ExprKind::Param:
    return Environment.lookup(E.paramName());
  case ExprKind::Capture:
    return Environment.captureAt(E.captureSlot());
  case ExprKind::Convert:
    return evalConvert(E, evalExpr(*E.operand(0), Environment));
  case ExprKind::Unary: {
    Value V = evalExpr(*E.operand(0), Environment);
    if (E.unaryOp() == UnaryOp::Not)
      return Value(!V.asBool());
    if (V.isInt64())
      return Value(-V.asInt64());
    return Value(-V.asDouble());
  }
  case ExprKind::Binary: {
    BinaryOp Op = E.binaryOp();
    if (Op == BinaryOp::And) {
      Value L = evalExpr(*E.operand(0), Environment);
      if (!L.asBool())
        return Value(false);
      return Value(evalExpr(*E.operand(1), Environment).asBool());
    }
    if (Op == BinaryOp::Or) {
      Value L = evalExpr(*E.operand(0), Environment);
      if (L.asBool())
        return Value(true);
      return Value(evalExpr(*E.operand(1), Environment).asBool());
    }
    Value L = evalExpr(*E.operand(0), Environment);
    Value R = evalExpr(*E.operand(1), Environment);
    if (isArithmetic(Op))
      return evalArith(Op, L, R);
    return evalCompare(Op, L, R);
  }
  case ExprKind::Call:
    return evalCall(E, Environment);
  case ExprKind::Cond: {
    Value C = evalExpr(*E.operand(0), Environment);
    return evalExpr(*E.operand(C.asBool() ? 1 : 2), Environment);
  }
  case ExprKind::PairNew: {
    Value A = evalExpr(*E.operand(0), Environment);
    Value B = evalExpr(*E.operand(1), Environment);
    return Value::makePair(std::move(A), std::move(B));
  }
  case ExprKind::PairFirst:
    return evalExpr(*E.operand(0), Environment).first();
  case ExprKind::PairSecond:
    return evalExpr(*E.operand(0), Environment).second();
  case ExprKind::VecLen:
    return Value(evalExpr(*E.operand(0), Environment).asVec().Len);
  case ExprKind::VecIndex: {
    VecView V = evalExpr(*E.operand(0), Environment).asVec();
    std::int64_t I = evalExpr(*E.operand(1), Environment).asInt64();
    return Value(V[I]);
  }
  case ExprKind::BufferSlice: {
    const SourceBuffer &Buf = Environment.sourceAt(E.sourceSlot());
    assert(Buf.DoubleData && "slicing a non-double source buffer");
    std::int64_t Start = evalExpr(*E.operand(0), Environment).asInt64();
    std::int64_t Len = evalExpr(*E.operand(1), Environment).asInt64();
    assert(Start >= 0 && Len >= 0 &&
           Start + Len <= Buf.Count * Buf.Dim && "slice out of range");
    return Value(VecView{Buf.DoubleData + Start, Len});
  }
  case ExprKind::SourceLen:
    return Value(Environment.sourceAt(E.sourceSlot()).Count);
  }
  stenoUnreachable("bad ExprKind");
}

Value expr::applyLambda(const Lambda &L, const std::vector<Value> &Args,
                        Env &Environment) {
  assert(L.arity() == Args.size() && "lambda arity mismatch");
  for (size_t I = 0; I != Args.size(); ++I)
    Environment.bind(L.param(I).Name, Args[I]);
  Value Result = evalExpr(*L.body(), Environment);
  for (size_t I = 0; I != Args.size(); ++I)
    Environment.pop();
  return Result;
}
