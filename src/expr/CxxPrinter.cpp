//===- expr/CxxPrinter.cpp ------------------------------------*- C++ -*-===//

#include "expr/CxxPrinter.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>

using namespace steno;
using namespace steno::expr;

namespace {

std::string print(const Expr &E, const CxxNames &Names);

std::string printConst(const Expr &E) {
  const ConstValue &C = E.constValue();
  if (std::holds_alternative<bool>(C))
    return std::get<bool>(C) ? "true" : "false";
  if (std::holds_alternative<std::int64_t>(C))
    return support::strFormat("INT64_C(%lld)",
                              static_cast<long long>(
                                  std::get<std::int64_t>(C)));
  return support::doubleLiteral(std::get<double>(C));
}

/// A divisor the generated code may divide by with a bare `/`: an integer
/// constant other than 0 and -1 (INT64_MIN / -1 overflows, as in
/// absint::divisionIsSafe). Anything else goes through rt::ckdiv/ckmod so
/// a bad divisor traps with a structured error instead of undefined
/// behavior.
bool isSafeConstDivisor(const Expr &E) {
  if (E.kind() != ExprKind::Const ||
      !std::holds_alternative<std::int64_t>(E.constValue()))
    return false;
  std::int64_t D = std::get<std::int64_t>(E.constValue());
  return D != 0 && D != -1;
}

std::string printBinary(const Expr &E, const CxxNames &Names) {
  BinaryOp Op = E.binaryOp();
  std::string L = print(*E.operand(0), Names);
  std::string R = print(*E.operand(1), Names);
  // Double modulo maps to std::fmod; everything else is the operator.
  if (Op == BinaryOp::Mod && E.type()->isDouble())
    return "std::fmod(" + L + ", " + R + ")";
  if ((Op == BinaryOp::Div || Op == BinaryOp::Mod) &&
      E.type()->isInt64() && !E.divSafe() &&
      !isSafeConstDivisor(*E.operand(1)))
    return std::string(Op == BinaryOp::Div ? "steno::rt::ckdiv("
                                           : "steno::rt::ckmod(") +
           L + ", " + R + ")";
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
    return "static_cast<" + E.type()->cxxName() + ">(" +
           print(*E.operand(0), Names) + ")";
  case ExprKind::Unary:
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
