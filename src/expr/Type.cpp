//===- expr/Type.cpp ------------------------------------------*- C++ -*-===//

#include "expr/Type.h"
#include "support/Error.h"

using namespace steno;
using namespace steno::expr;

bool Type::equals(const Type &Other) const {
  if (Kind != Other.Kind)
    return false;
  if (Kind != TypeKind::Pair)
    return true;
  return A->equals(*Other.A) && B->equals(*Other.B);
}

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int64:
    return "int64";
  case TypeKind::Double:
    return "double";
  case TypeKind::Vec:
    return "vec";
  case TypeKind::Pair:
    return "pair<" + A->str() + ", " + B->str() + ">";
  }
  stenoUnreachable("bad TypeKind");
}

std::string Type::cxxName() const {
  switch (Kind) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int64:
    return "std::int64_t";
  case TypeKind::Double:
    return "double";
  case TypeKind::Vec:
    return "steno::rt::VecView";
  case TypeKind::Pair:
    return "steno::rt::Pair<" + A->cxxName() + ", " + B->cxxName() + ">";
  }
  stenoUnreachable("bad TypeKind");
}

TypeRef Type::boolTy() {
  static TypeRef T(new Type(TypeKind::Bool));
  return T;
}

TypeRef Type::int64Ty() {
  static TypeRef T(new Type(TypeKind::Int64));
  return T;
}

TypeRef Type::doubleTy() {
  static TypeRef T(new Type(TypeKind::Double));
  return T;
}

TypeRef Type::pairTy(TypeRef First, TypeRef Second) {
  assert(First && Second && "pair components must be non-null");
  return TypeRef(new Type(TypeKind::Pair, std::move(First),
                          std::move(Second)));
}

TypeRef Type::vecTy() {
  static TypeRef T(new Type(TypeKind::Vec));
  return T;
}
