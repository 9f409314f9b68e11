//===- expr/Eval.cpp ------------------------------------------*- C++ -*-===//

#include "expr/Eval.h"
#include "expr/Ops.h"
#include "support/Error.h"

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
  return Value(rt::toInt64(In.asDouble()));
}

/// Applies \p Fn to numeric operands at their common kind: int64 when
/// every operand is an int64, else double.
template <typename F, typename... Vs> Value apply(F Fn, const Vs &...In) {
  if ((In.isInt64() && ...))
    return Value(Fn(In.asInt64()...));
  return Value(Fn(In.asNumericDouble()...));
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
      return Value(rt::neg(V.asInt64()));
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
      return withArithmetic(Op, [&](auto F) { return apply(F, L, R); });
    return withComparison(Op, [&](auto F) {
      return L.isBool() ? Value(F(L.asBool(), R.asBool())) : apply(F, L, R);
    });
  }
  case ExprKind::Call:
    return withBuiltin(E.builtin(), [&](auto F) {
      Value A = evalExpr(*E.operand(0), Environment);
      if constexpr (decltype(F)::Arity == 1)
        return apply(F, A);
      else
        return apply(F, A, evalExpr(*E.operand(1), Environment));
    });
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

std::uint64_t expr::orderKeyOf(const Value &Key) {
  return Key.isInt64() ? rt::orderKey(Key.asInt64())
                       : rt::orderKey(Key.asDouble());
}
