//===- expr/Expr.h - Typed expression trees --------------------*- C++ -*-===//
///
/// \file
/// The expression language in which query lambdas (predicates,
/// transformations, key selectors, aggregation steps) are written. This is
/// the C++ stand-in for .NET's System.Linq.Expressions: C++ lambdas are
/// opaque at run time, so user functions are built as explicit trees that
/// Steno can traverse, rewrite (nested-query parameter substitution, §5.2)
/// and inline into generated code (eliminating the per-element indirect
/// call that a function object costs, §4.2).
///
/// Nodes are immutable and shared; every node carries its result Type.
/// Construction goes through the static factories, which type-check their
/// operands (the paper assumes the C# compiler has already type-checked the
/// query; our factories assert the same invariants) and insert implicit
/// numeric promotions.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_EXPR_H
#define STENO_EXPR_EXPR_H

#include "expr/Type.h"

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace steno {
namespace expr {

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

/// Node discriminator.
enum class ExprKind {
  Const,      ///< Literal bool/int64/double.
  Param,      ///< Reference to a lambda parameter, by name.
  Capture,    ///< Reference to a captured variable slot (paper §3.3).
  Convert,    ///< Numeric conversion (int64 <-> double).
  Unary,      ///< Neg / Not.
  Binary,     ///< Arithmetic, comparison, logic.
  Call,       ///< Builtin math function.
  Cond,       ///< Ternary conditional.
  PairNew,    ///< Construct a pair.
  PairFirst,  ///< Project .first.
  PairSecond, ///< Project .second.
  VecLen,     ///< Length of a Vec view.
  VecIndex,   ///< Element of a Vec view (double).
  BufferSlice, ///< Vec view over [start, start+len) of a bound source
               ///< buffer — how lambdas address rows of a flat captured
               ///< array (e.g. centroid j of a k-means centroid table).
  SourceLen   ///< Element count of a bound source buffer.
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or
};

/// Builtin math functions the language can call. In generated code each
/// calls its <cmath> function, or the steno::rt definition for min, max
/// and abs (see expr/Ops.h).
enum class Builtin { Sqrt, Abs, Min, Max, Floor, Ceil, Exp, Log, Pow };

/// Literal payload for Const nodes.
using ConstValue = std::variant<bool, std::int64_t, double>;

/// An immutable, typed expression node.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  const TypeRef &type() const { return Ty; }

  /// Literal payload; only valid for Const nodes.
  const ConstValue &constValue() const;
  /// Parameter name; only valid for Param nodes.
  const std::string &paramName() const;
  /// Capture slot index; only valid for Capture nodes.
  unsigned captureSlot() const;
  /// Source-buffer slot; only valid for BufferSlice/SourceLen nodes.
  unsigned sourceSlot() const;
  UnaryOp unaryOp() const;
  BinaryOp binaryOp() const;
  Builtin builtin() const;

  /// Operand list (empty for leaves).
  const std::vector<ExprRef> &operands() const { return Operands; }
  const ExprRef &operand(unsigned I) const;

  /// True when static analysis proved this int64 Div/Mod node cannot
  /// trap (divisor excludes 0 and the INT64_MIN / -1 overflow corner is
  /// unreachable): codegen emits plain `/` `%` instead of rt::ckdiv /
  /// rt::ckmod. Always false on other node kinds.
  bool divSafe() const { return DivSafeFlag; }
  /// Copy of \p E (an int64 Div/Mod Binary node) with divSafe() set.
  static ExprRef withDivSafe(const ExprRef &E);

  /// Debug rendering, e.g. "(x % 2) == 0".
  std::string str() const;

  //===--------------------------------------------------------------===//
  // Factories (each asserts well-typedness of its operands)
  //===--------------------------------------------------------------===//

  static ExprRef constBool(bool V);
  static ExprRef constInt64(std::int64_t V);
  static ExprRef constDouble(double V);
  static ExprRef param(std::string Name, TypeRef Ty);
  static ExprRef capture(unsigned Slot, TypeRef Ty);
  /// Converts \p E to numeric type \p To (no-op nodes are not created when
  /// the types already match).
  static ExprRef convert(ExprRef E, TypeRef To);
  static ExprRef unary(UnaryOp Op, ExprRef E);
  /// Builds a binary node, inserting int64->double promotions for mixed
  /// arithmetic and comparisons.
  static ExprRef binary(BinaryOp Op, ExprRef L, ExprRef R);
  static ExprRef call(Builtin Fn, std::vector<ExprRef> Args);
  static ExprRef cond(ExprRef C, ExprRef T, ExprRef F);
  static ExprRef pairNew(ExprRef First, ExprRef Second);
  static ExprRef pairFirst(ExprRef P);
  static ExprRef pairSecond(ExprRef P);
  static ExprRef vecLen(ExprRef V);
  static ExprRef vecIndex(ExprRef V, ExprRef I);
  /// Vec view of \p Len doubles starting at \p Start within source buffer
  /// \p Slot (which must be bound to a double buffer at run time).
  static ExprRef bufferSlice(unsigned Slot, ExprRef Start, ExprRef Len);
  /// Element count of source buffer \p Slot.
  static ExprRef sourceLen(unsigned Slot);

private:
  Expr(ExprKind Kind, TypeRef Ty) : Kind(Kind), Ty(std::move(Ty)) {}

  ExprKind Kind;
  TypeRef Ty;
  ConstValue Literal{false};
  std::string Name;
  unsigned Slot = 0;
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  Builtin Fn = Builtin::Sqrt;
  bool DivSafeFlag = false;
  std::vector<ExprRef> Operands;
};

/// True for Eq/Ne/Lt/Le/Gt/Ge.
bool isComparison(BinaryOp Op);
/// True for Add/Sub/Mul/Div/Mod.
bool isArithmetic(BinaryOp Op);
/// Spelling of a binary operator as it appears in C++ source ("+", "==", ...).
const char *binaryOpSpelling(BinaryOp Op);
/// Spelling of a builtin's C++ callee ("std::sqrt", "steno::rt::min", ...).
const char *builtinSpelling(Builtin Fn);

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_EXPR_H
