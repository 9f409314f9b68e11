//===- expr/Ops.h - The scalar operators, dispatched once ------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One function object per scalar operator of the expression language, and
/// the dispatches that hand an operator's function object to its caller.
/// Every executor evaluates operators through these: expr::evalExpr (and
/// so the reference executor, the scalar interpreter and foldConstants),
/// the vec batch kernels and reduce loop, and the C++ printer, which spells
/// each builtin by its function object's Cxx name. Where the C++ operator
/// is not already the definition, the function object calls the steno::rt
/// function that generated code calls, so compiled and interpreted queries
/// run one definition.
///
/// A caller passes a generic lambda. The dispatch switches on the operator
/// once and calls the lambda with that operator's function object, so a
/// lane loop inside the lambda is instantiated per operator, with the call
/// inlined and no switch per lane.
///
/// Operand kinds: arithmetic and builtins take two int64s or two doubles
/// (the expression factories promote mixed operands); comparisons also
/// take two bools, of which the factories admit only == and !=.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_OPS_H
#define STENO_EXPR_OPS_H

#include "expr/Expr.h"
#include "steno/Rt.h"
#include "support/Error.h"

#include <cmath>
#include <cstdint>

namespace steno {
namespace expr {
namespace op {

struct Add {
  std::int64_t operator()(std::int64_t A, std::int64_t B) const {
    return rt::add(A, B);
  }
  double operator()(double A, double B) const { return A + B; }
};
struct Sub {
  std::int64_t operator()(std::int64_t A, std::int64_t B) const {
    return rt::sub(A, B);
  }
  double operator()(double A, double B) const { return A - B; }
};
struct Mul {
  std::int64_t operator()(std::int64_t A, std::int64_t B) const {
    return rt::mul(A, B);
  }
  double operator()(double A, double B) const { return A * B; }
};
struct Div {
  std::int64_t operator()(std::int64_t A, std::int64_t B) const {
    return rt::ckdiv(A, B);
  }
  double operator()(double A, double B) const { return A / B; }
};
struct Mod {
  std::int64_t operator()(std::int64_t A, std::int64_t B) const {
    return rt::ckmod(A, B);
  }
  double operator()(double A, double B) const { return std::fmod(A, B); }
};

struct Eq {
  template <typename T> bool operator()(T A, T B) const { return A == B; }
};
struct Ne {
  template <typename T> bool operator()(T A, T B) const { return A != B; }
};
struct Lt {
  template <typename T> bool operator()(T A, T B) const { return A < B; }
};
struct Le {
  template <typename T> bool operator()(T A, T B) const { return A <= B; }
};
struct Gt {
  template <typename T> bool operator()(T A, T B) const { return A > B; }
};
struct Ge {
  template <typename T> bool operator()(T A, T B) const { return A >= B; }
};

// Builtins carry their operand count and their callee in generated code.

struct Abs {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "steno::rt::abs";
  template <typename T> T operator()(T X) const { return rt::abs(X); }
};
struct Min {
  static constexpr int Arity = 2;
  static constexpr const char *Cxx = "steno::rt::min";
  template <typename T> T operator()(T A, T B) const { return rt::min(A, B); }
};
struct Max {
  static constexpr int Arity = 2;
  static constexpr const char *Cxx = "steno::rt::max";
  template <typename T> T operator()(T A, T B) const { return rt::max(A, B); }
};
struct Pow {
  static constexpr int Arity = 2;
  static constexpr const char *Cxx = "std::pow";
  double operator()(double A, double B) const { return std::pow(A, B); }
};
struct Sqrt {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "std::sqrt";
  double operator()(double X) const { return std::sqrt(X); }
};
struct Floor {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "std::floor";
  double operator()(double X) const { return std::floor(X); }
};
struct Ceil {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "std::ceil";
  double operator()(double X) const { return std::ceil(X); }
};
struct Exp {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "std::exp";
  double operator()(double X) const { return std::exp(X); }
};
struct Log {
  static constexpr int Arity = 1;
  static constexpr const char *Cxx = "std::log";
  double operator()(double X) const { return std::log(X); }
};

} // namespace op

/// Calls \p Kont with the function object of arithmetic operator \p Op.
template <typename K> decltype(auto) withArithmetic(BinaryOp Op, K &&Kont) {
  switch (Op) {
  case BinaryOp::Add:
    return Kont(op::Add{});
  case BinaryOp::Sub:
    return Kont(op::Sub{});
  case BinaryOp::Mul:
    return Kont(op::Mul{});
  case BinaryOp::Div:
    return Kont(op::Div{});
  case BinaryOp::Mod:
    return Kont(op::Mod{});
  default:
    break;
  }
  stenoUnreachable("not an arithmetic operator");
}

/// Calls \p Kont with the function object of comparison operator \p Op.
template <typename K> decltype(auto) withComparison(BinaryOp Op, K &&Kont) {
  switch (Op) {
  case BinaryOp::Eq:
    return Kont(op::Eq{});
  case BinaryOp::Ne:
    return Kont(op::Ne{});
  case BinaryOp::Lt:
    return Kont(op::Lt{});
  case BinaryOp::Le:
    return Kont(op::Le{});
  case BinaryOp::Gt:
    return Kont(op::Gt{});
  case BinaryOp::Ge:
    return Kont(op::Ge{});
  default:
    break;
  }
  stenoUnreachable("not a comparison operator");
}

/// Calls \p Kont with the function object of builtin \p Fn.
template <typename K> decltype(auto) withBuiltin(Builtin Fn, K &&Kont) {
  switch (Fn) {
  case Builtin::Sqrt:
    return Kont(op::Sqrt{});
  case Builtin::Abs:
    return Kont(op::Abs{});
  case Builtin::Min:
    return Kont(op::Min{});
  case Builtin::Max:
    return Kont(op::Max{});
  case Builtin::Floor:
    return Kont(op::Floor{});
  case Builtin::Ceil:
    return Kont(op::Ceil{});
  case Builtin::Exp:
    return Kont(op::Exp{});
  case Builtin::Log:
    return Kont(op::Log{});
  case Builtin::Pow:
    return Kont(op::Pow{});
  }
  stenoUnreachable("bad Builtin");
}

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_OPS_H
