//===- expr/Analysis.cpp --------------------------------------*- C++ -*-===//

#include "expr/Analysis.h"
#include "steno/Rt.h"
#include "support/Error.h"

#include <cassert>
#include <cstdint>

using namespace steno;
using namespace steno::expr;

namespace {

void collectParams(const Expr &E, std::set<std::string> &Out) {
  if (E.kind() == ExprKind::Param) {
    Out.insert(E.paramName());
    return;
  }
  for (const ExprRef &Op : E.operands())
    collectParams(*Op, Out);
}

void collectCaptures(const Expr &E, std::set<unsigned> &Out) {
  if (E.kind() == ExprKind::Capture) {
    Out.insert(E.captureSlot());
    return;
  }
  for (const ExprRef &Op : E.operands())
    collectCaptures(*Op, Out);
}

void collectSources(const Expr &E, std::set<unsigned> &Out) {
  if (E.kind() == ExprKind::BufferSlice || E.kind() == ExprKind::SourceLen)
    Out.insert(E.sourceSlot());
  for (const ExprRef &Op : E.operands())
    collectSources(*Op, Out);
}

/// Rebuilds \p E with operands replaced by \p Ops. Leaves are returned
/// unchanged (they have no operands).
ExprRef rebuild(const ExprRef &E, std::vector<ExprRef> Ops) {
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Param:
  case ExprKind::Capture:
    return E;
  case ExprKind::Convert:
    return Expr::convert(Ops[0], E->type());
  case ExprKind::Unary:
    return Expr::unary(E->unaryOp(), Ops[0]);
  case ExprKind::Binary: {
    ExprRef R = Expr::binary(E->binaryOp(), Ops[0], Ops[1]);
    // Substitution preserves types/values, so a proven-safe division
    // stays safe; dropping the marker here would silently reintroduce
    // the ckdiv trap after lambda inlining.
    if (E->divSafe())
      R = Expr::withDivSafe(R);
    return R;
  }
  case ExprKind::Call:
    return Expr::call(E->builtin(), std::move(Ops));
  case ExprKind::Cond:
    return Expr::cond(Ops[0], Ops[1], Ops[2]);
  case ExprKind::PairNew:
    return Expr::pairNew(Ops[0], Ops[1]);
  case ExprKind::PairFirst:
    return Expr::pairFirst(Ops[0]);
  case ExprKind::PairSecond:
    return Expr::pairSecond(Ops[0]);
  case ExprKind::VecLen:
    return Expr::vecLen(Ops[0]);
  case ExprKind::VecIndex:
    return Expr::vecIndex(Ops[0], Ops[1]);
  case ExprKind::BufferSlice:
    return Expr::bufferSlice(E->sourceSlot(), Ops[0], Ops[1]);
  case ExprKind::SourceLen:
    return E;
  }
  stenoUnreachable("bad ExprKind");
}

} // namespace

bool expr::isSafeConstDivisor(const Expr &E) {
  return E.kind() == ExprKind::Const &&
         std::holds_alternative<std::int64_t>(E.constValue()) &&
         !rt::divTraps(INT64_MIN, std::get<std::int64_t>(E.constValue()));
}

bool expr::speculatable(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Convert:
    if (E.type()->isInt64() && E.operand(0)->type()->isDouble())
      return false;
    break;
  case ExprKind::Binary:
    if ((E.binaryOp() == BinaryOp::Div || E.binaryOp() == BinaryOp::Mod) &&
        E.type()->isInt64() && !isSafeConstDivisor(*E.operand(1)))
      return false;
    break;
  case ExprKind::Call:
    if (E.builtin() == Builtin::Exp || E.builtin() == Builtin::Log ||
        E.builtin() == Builtin::Pow)
      return false;
    break;
  case ExprKind::VecIndex:
  case ExprKind::BufferSlice:
    return false;
  default:
    break;
  }
  for (const ExprRef &Op : E.operands())
    if (!speculatable(*Op))
      return false;
  return true;
}

std::set<std::string> expr::freeParams(const Expr &E) {
  std::set<std::string> Out;
  collectParams(E, Out);
  return Out;
}

std::set<unsigned> expr::usedCaptureSlots(const Expr &E) {
  std::set<unsigned> Out;
  collectCaptures(E, Out);
  return Out;
}

std::set<unsigned> expr::usedSourceSlots(const Expr &E) {
  std::set<unsigned> Out;
  collectSources(E, Out);
  return Out;
}

ExprRef
expr::substituteParams(const ExprRef &E,
                       const std::map<std::string, ExprRef> &Replacements) {
  if (E->kind() == ExprKind::Param) {
    auto It = Replacements.find(E->paramName());
    if (It == Replacements.end())
      return E;
    assert(sameType(It->second->type(), E->type()) &&
           "substitution changes the parameter's type");
    return It->second;
  }
  if (E->operands().empty())
    return E;
  std::vector<ExprRef> NewOps;
  NewOps.reserve(E->operands().size());
  bool Changed = false;
  for (const ExprRef &Op : E->operands()) {
    ExprRef NewOp = substituteParams(Op, Replacements);
    Changed |= NewOp != Op;
    NewOps.push_back(std::move(NewOp));
  }
  if (!Changed)
    return E;
  return rebuild(E, std::move(NewOps));
}

//===----------------------------------------------------------------===//
// Structural hashing and equality
//===----------------------------------------------------------------===//

namespace {

/// FNV-1a style combine.
std::uint64_t combine(std::uint64_t H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

std::uint64_t hashString(const std::string &S) {
  std::uint64_t H = 1469598103934665603ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

std::uint64_t expr::hashType(const Type &Ty) {
  std::uint64_t H = static_cast<std::uint64_t>(Ty.kind()) * 0x100000001b3ULL;
  if (Ty.isPair()) {
    H = combine(H, hashType(*Ty.first()));
    H = combine(H, hashType(*Ty.second()));
  }
  return H;
}

std::uint64_t expr::hashExpr(const Expr &E) {
  std::uint64_t H = combine(static_cast<std::uint64_t>(E.kind()) + 1,
                            hashType(*E.type()));
  switch (E.kind()) {
  case ExprKind::Const: {
    const ConstValue &C = E.constValue();
    if (std::holds_alternative<bool>(C))
      H = combine(H, std::get<bool>(C) ? 2 : 1);
    else if (std::holds_alternative<std::int64_t>(C))
      H = combine(H,
                  static_cast<std::uint64_t>(std::get<std::int64_t>(C)));
    else {
      double D = std::get<double>(C);
      std::uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(D));
      __builtin_memcpy(&Bits, &D, sizeof(Bits));
      H = combine(H, Bits);
    }
    break;
  }
  case ExprKind::Param:
    H = combine(H, hashString(E.paramName()));
    break;
  case ExprKind::Capture:
    H = combine(H, E.captureSlot());
    break;
  case ExprKind::Unary:
    H = combine(H, static_cast<std::uint64_t>(E.unaryOp()));
    break;
  case ExprKind::Binary:
    H = combine(H, static_cast<std::uint64_t>(E.binaryOp()));
    H = combine(H, E.divSafe() ? 0xd1f5afeULL : 0);
    break;
  case ExprKind::Call:
    H = combine(H, static_cast<std::uint64_t>(E.builtin()));
    break;
  case ExprKind::BufferSlice:
  case ExprKind::SourceLen:
    H = combine(H, E.sourceSlot());
    break;
  default:
    break;
  }
  for (const ExprRef &Op : E.operands())
    H = combine(H, hashExpr(*Op));
  return H;
}

bool expr::equalExprs(const Expr &A, const Expr &B) {
  if (&A == &B)
    return true;
  if (A.kind() != B.kind() || !sameType(A.type(), B.type()) ||
      A.operands().size() != B.operands().size())
    return false;
  switch (A.kind()) {
  case ExprKind::Const:
    if (A.constValue() != B.constValue())
      return false;
    break;
  case ExprKind::Param:
    if (A.paramName() != B.paramName())
      return false;
    break;
  case ExprKind::Capture:
    if (A.captureSlot() != B.captureSlot())
      return false;
    break;
  case ExprKind::Unary:
    if (A.unaryOp() != B.unaryOp())
      return false;
    break;
  case ExprKind::Binary:
    if (A.binaryOp() != B.binaryOp() || A.divSafe() != B.divSafe())
      return false;
    break;
  case ExprKind::Call:
    if (A.builtin() != B.builtin())
      return false;
    break;
  case ExprKind::BufferSlice:
  case ExprKind::SourceLen:
    if (A.sourceSlot() != B.sourceSlot())
      return false;
    break;
  default:
    break;
  }
  for (size_t I = 0; I != A.operands().size(); ++I)
    if (!equalExprs(*A.operand(I), *B.operand(I)))
      return false;
  return true;
}

std::uint64_t expr::hashLambda(const Lambda &L) {
  if (!L.valid())
    return 0;
  std::uint64_t H = L.arity() + 0x51ed270b;
  for (const LambdaParam &P : L.params()) {
    H = combine(H, hashString(P.Name));
    H = combine(H, hashType(*P.Ty));
  }
  return combine(H, hashExpr(*L.body()));
}

bool expr::equalLambdas(const Lambda &A, const Lambda &B) {
  if (A.valid() != B.valid())
    return false;
  if (!A.valid())
    return true;
  if (A.arity() != B.arity())
    return false;
  for (size_t I = 0; I != A.arity(); ++I)
    if (A.param(I).Name != B.param(I).Name ||
        !sameType(A.param(I).Ty, B.param(I).Ty))
      return false;
  return equalExprs(*A.body(), *B.body());
}

