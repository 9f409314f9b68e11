//===- expr/Fold.cpp ------------------------------------------*- C++ -*-===//

#include "expr/Fold.h"
#include "expr/Eval.h"
#include "steno/Rt.h"
#include "support/Error.h"

#include <cassert>
#include <cstdint>

using namespace steno;
using namespace steno::expr;

namespace {

bool isConst(const ExprRef &E) { return E->kind() == ExprKind::Const; }

bool boolConst(const ExprRef &E) {
  return std::get<bool>(E->constValue());
}

/// Turns an evaluated Value back into a literal of the node's type.
ExprRef literalize(const Value &V) {
  switch (V.kind()) {
  case TypeKind::Bool:
    return Expr::constBool(V.asBool());
  case TypeKind::Int64:
    return Expr::constInt64(V.asInt64());
  case TypeKind::Double:
    return Expr::constDouble(V.asDouble());
  default:
    return nullptr; // pairs/vecs are not literal-izable
  }
}

/// Evaluates a closed scalar expression (every operand already a Const).
ExprRef evalToLiteral(const ExprRef &E) {
  if (!E->type()->isScalar())
    return nullptr;
  Env Environment;
  return literalize(evalExpr(*E, Environment));
}

ExprRef rebuildWith(const ExprRef &E, std::vector<ExprRef> Ops) {
  switch (E->kind()) {
  case ExprKind::Convert:
    return Expr::convert(Ops[0], E->type());
  case ExprKind::Unary:
    return Expr::unary(E->unaryOp(), Ops[0]);
  case ExprKind::Binary: {
    ExprRef R = Expr::binary(E->binaryOp(), Ops[0], Ops[1]);
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
  default:
    stenoUnreachable("leaf with operands");
  }
}

} // namespace

ExprRef expr::foldConstants(const ExprRef &E) {
  assert(E && "folding a null expression");
  if (E->operands().empty())
    return E;

  std::vector<ExprRef> Ops;
  Ops.reserve(E->operands().size());
  bool Changed = false;
  bool AllConst = true;
  for (const ExprRef &Op : E->operands()) {
    ExprRef Folded = foldConstants(Op);
    Changed |= Folded != Op;
    AllConst &= isConst(Folded);
    Ops.push_back(std::move(Folded));
  }

  // Identities with a constant condition / operand.
  if (E->kind() == ExprKind::Cond && isConst(Ops[0]))
    return boolConst(Ops[0]) ? Ops[1] : Ops[2];
  if (E->kind() == ExprKind::Binary) {
    BinaryOp Op = E->binaryOp();
    if (Op == BinaryOp::And && isConst(Ops[0]))
      return boolConst(Ops[0]) ? Ops[1] : Expr::constBool(false);
    if (Op == BinaryOp::Or && isConst(Ops[0]))
      return boolConst(Ops[0]) ? Expr::constBool(true) : Ops[1];
    // Projection of a freshly built pair.
  }
  if ((E->kind() == ExprKind::PairFirst ||
       E->kind() == ExprKind::PairSecond) &&
      Ops[0]->kind() == ExprKind::PairNew)
    return E->kind() == ExprKind::PairFirst ? Ops[0]->operand(0)
                                            : Ops[0]->operand(1);

  if (AllConst) {
    bool Foldable = true;
    switch (E->kind()) {
    case ExprKind::Binary: {
      BinaryOp Op = E->binaryOp();
      // Leave the divisions that trap (ST2001) to the run-time trap:
      // folding them would evaluate the trap inside the compile.
      if ((Op == BinaryOp::Div || Op == BinaryOp::Mod) &&
          E->type()->isInt64() &&
          rt::divTraps(std::get<std::int64_t>(Ops[0]->constValue()),
                       std::get<std::int64_t>(Ops[1]->constValue())))
        Foldable = false;
      break;
    }
    case ExprKind::PairNew:
    case ExprKind::VecLen:
    case ExprKind::VecIndex:
    case ExprKind::BufferSlice:
      Foldable = false; // non-scalar or environment-dependent
      break;
    default:
      break;
    }
    if (Foldable) {
      ExprRef Candidate = Changed ? rebuildWith(E, Ops) : E;
      if (ExprRef Lit = evalToLiteral(Candidate))
        return Lit;
      return Candidate;
    }
  }

  return Changed ? rebuildWith(E, std::move(Ops)) : E;
}
