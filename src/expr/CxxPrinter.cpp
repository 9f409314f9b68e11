//===- expr/CxxPrinter.cpp ------------------------------------*- C++ -*-===//

#include "expr/CxxPrinter.h"
#include "expr/Analysis.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <string_view>

using namespace steno;
using namespace steno::expr;

namespace {

std::string print(const Expr &E, const CxxNames &Names);

std::string printConst(const Expr &E) {
  const ConstValue &C = E.constValue();
  if (std::holds_alternative<bool>(C))
    return std::get<bool>(C) ? "true" : "false";
  if (std::holds_alternative<std::int64_t>(C)) {
    std::int64_t V = std::get<std::int64_t>(C);
    // C++ has no negative literals: -9223372036854775808 negates
    // 9223372036854775808, which fits no signed type.
    if (V == INT64_MIN)
      return "(-INT64_C(9223372036854775807) - 1)";
    return support::strFormat("INT64_C(%lld)", static_cast<long long>(V));
  }
  return support::doubleLiteral(std::get<double>(C));
}

/// True when \p E is a `%` printed as std::fmod.
bool isFmod(const Expr &E) {
  return E.binaryOp() == BinaryOp::Mod && E.type()->isDouble();
}

/// The steno::rt function an int64 operator calls in generated code, or
/// null when the C++ operator is already its definition: `+ - *` wrap,
/// and `/` `%` trap unless the analyzer proved the division safe or the
/// divisor is a constant that traps on no dividend.
const char *int64Callee(const Expr &E) {
  switch (E.binaryOp()) {
  case BinaryOp::Add:
    return "steno::rt::add";
  case BinaryOp::Sub:
    return "steno::rt::sub";
  case BinaryOp::Mul:
    return "steno::rt::mul";
  case BinaryOp::Div:
  case BinaryOp::Mod:
    if (E.divSafe() || isSafeConstDivisor(*E.operand(1)))
      return nullptr;
    return E.binaryOp() == BinaryOp::Div ? "steno::rt::ckdiv"
                                         : "steno::rt::ckmod";
  default:
    return nullptr;
  }
}

std::string printBinary(const Expr &E, const CxxNames &Names) {
  BinaryOp Op = E.binaryOp();
  std::string L = print(*E.operand(0), Names);
  std::string R = print(*E.operand(1), Names);
  // Double modulo maps to std::fmod; everything else is the operator.
  if (isFmod(E))
    return "std::fmod(" + L + ", " + R + ")";
  if (E.type()->isInt64())
    if (const char *Callee = int64Callee(E))
      return std::string(Callee) + "(" + L + ", " + R + ")";
  return "(" + L + " " + binaryOpSpelling(Op) + " " + R + ")";
}

std::string printCall(const Expr &E, const CxxNames &Names) {
  std::vector<std::string> Args;
  for (const ExprRef &Op : E.operands())
    Args.push_back(print(*Op, Names));
  return std::string(builtinSpelling(E.builtin())) + "(" +
         support::join(Args, ", ") + ")";
}

std::string print(const Expr &E, const CxxNames &Names) {
  switch (E.kind()) {
  case ExprKind::Const:
    return printConst(E);
  case ExprKind::Param:
    assert(Names.Param && "no parameter name resolver installed");
    return Names.Param(E.paramName());
  case ExprKind::Capture:
    assert(Names.Capture && "no capture name resolver installed");
    return Names.Capture(E.captureSlot(), *E.type());
  case ExprKind::Convert:
    if (E.type()->isInt64()) // of a double: the factory drops a no-op
      return "steno::rt::toInt64(" + print(*E.operand(0), Names) + ")";
    return "static_cast<" + E.type()->cxxName() + ">(" +
           print(*E.operand(0), Names) + ")";
  case ExprKind::Unary:
    if (E.unaryOp() == UnaryOp::Neg && E.type()->isInt64())
      return "steno::rt::neg(" + print(*E.operand(0), Names) + ")";
    return std::string(E.unaryOp() == UnaryOp::Neg ? "-" : "!") + "(" +
           print(*E.operand(0), Names) + ")";
  case ExprKind::Binary:
    return printBinary(E, Names);
  case ExprKind::Call:
    return printCall(E, Names);
  case ExprKind::Cond:
    return "(" + print(*E.operand(0), Names) + " ? " +
           print(*E.operand(1), Names) + " : " +
           print(*E.operand(2), Names) + ")";
  case ExprKind::PairNew:
    return E.type()->cxxName() + "{" + print(*E.operand(0), Names) + ", " +
           print(*E.operand(1), Names) + "}";
  case ExprKind::PairFirst:
    return "(" + print(*E.operand(0), Names) + ").First";
  case ExprKind::PairSecond:
    return "(" + print(*E.operand(0), Names) + ").Second";
  case ExprKind::VecLen:
    return "(" + print(*E.operand(0), Names) + ").Len";
  case ExprKind::VecIndex:
    return "(" + print(*E.operand(0), Names) + ").Data[" +
           print(*E.operand(1), Names) + "]";
  case ExprKind::BufferSlice:
    assert(Names.SourceData && "no source-data resolver installed");
    return "steno::rt::VecView{" + Names.SourceData(E.sourceSlot()) +
           " + (" + print(*E.operand(0), Names) + "), (" +
           print(*E.operand(1), Names) + ")}";
  case ExprKind::SourceLen:
    assert(Names.SourceCount && "no source-count resolver installed");
    return Names.SourceCount(E.sourceSlot());
  }
  stenoUnreachable("bad ExprKind");
}

} // namespace

std::string expr::printExprCxx(const Expr &E, const CxxNames &Names) {
  return print(E, Names);
}

bool expr::callsCmath(const Expr &E) {
  // Every builtin spelled std:: is a <cmath> function (expr/Ops.h).
  if (E.kind() == ExprKind::Call &&
      std::string_view(builtinSpelling(E.builtin())).starts_with("std::"))
    return true;
  if (E.kind() == ExprKind::Binary && isFmod(E))
    return true;
  for (const ExprRef &Op : E.operands())
    if (callsCmath(*Op))
      return true;
  return false;
}
