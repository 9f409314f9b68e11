//===- expr/Type.h - Runtime type tags for query expressions ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type language of the query pipeline. Steno generates fully
/// type-specialized code, so every expression, operator and source carries a
/// Type tag from which the code generator derives concrete C++ types:
///
///   Bool   -> bool
///   Int64  -> std::int64_t
///   Double -> double
///   Pair   -> steno::rt::Pair<A, B> (aggregate of two fields)
///   Vec    -> steno::rt::VecView   (borrowed view of a double[dim] point)
///
/// Vec is double-element only: it models the flat strided point arrays of
/// the k-means workload (paper §7.2). Types are immutable shared nodes with
/// structural equality.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_EXPR_TYPE_H
#define STENO_EXPR_TYPE_H

#include <cassert>
#include <memory>
#include <string>

namespace steno {
namespace expr {

class Type;
using TypeRef = std::shared_ptr<const Type>;

/// Discriminator for Type nodes.
enum class TypeKind { Bool, Int64, Double, Pair, Vec };

/// Immutable structural type. Construct through the static factories; scalar
/// types are interned singletons.
class Type {
public:
  TypeKind kind() const { return Kind; }

  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isInt64() const { return Kind == TypeKind::Int64; }
  bool isDouble() const { return Kind == TypeKind::Double; }
  bool isPair() const { return Kind == TypeKind::Pair; }
  bool isVec() const { return Kind == TypeKind::Vec; }
  bool isNumeric() const { return isInt64() || isDouble(); }
  bool isScalar() const { return isBool() || isNumeric(); }

  /// First component of a Pair; asserts on other kinds.
  const TypeRef &first() const {
    assert(isPair() && "first() on non-pair type");
    return A;
  }

  /// Second component of a Pair; asserts on other kinds.
  const TypeRef &second() const {
    assert(isPair() && "second() on non-pair type");
    return B;
  }

  /// Structural equality.
  bool equals(const Type &Other) const;

  /// Human-readable spelling, e.g. "pair<double, int64>".
  std::string str() const;

  /// The concrete C++ type the code generator emits for this tag, e.g.
  /// "steno::rt::Pair<double, std::int64_t>".
  std::string cxxName() const;

  static TypeRef boolTy();
  static TypeRef int64Ty();
  static TypeRef doubleTy();
  static TypeRef pairTy(TypeRef First, TypeRef Second);
  static TypeRef vecTy();

private:
  explicit Type(TypeKind Kind, TypeRef A = nullptr, TypeRef B = nullptr)
      : Kind(Kind), A(std::move(A)), B(std::move(B)) {}

  TypeKind Kind;
  TypeRef A;
  TypeRef B;
};

/// Convenience equality over handles (null-safe).
inline bool sameType(const TypeRef &X, const TypeRef &Y) {
  if (X == Y)
    return true;
  if (!X || !Y)
    return false;
  return X->equals(*Y);
}

} // namespace expr
} // namespace steno

#endif // STENO_EXPR_TYPE_H
