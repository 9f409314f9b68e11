//===- analysis/Effects.cpp - Effect/purity analysis (ST2xxx) --*- C++ -*-===//
///
/// \file
/// Computes the SafetyCertificate: can this chain be fanned out across
/// partitions (paper §6) without changing its sequential meaning?
///
/// Three properties are derived:
///
///  - Purity: the only trap source in the expression language is integer
///    division/modulo (double division is IEEE-defined: inf/nan, no trap).
///    A divisor that is provably a nonzero constant is safe; a constant
///    zero is a hard error; anything else downgrades the chain to impure
///    with a warning — a trap inside one partition of a parallel run
///    tears down the process at a nondeterministic point.
///
///  - Order sensitivity: Take/Skip/TakeWhile/SkipWhile consume a global
///    element order that partitioning destroys. Only *top-level* operators
///    count: a nested query executes wholly within one outer element, so
///    its internal order survives fan-out intact.
///
///  - Combiner classification: each top-level aggregation's combiner is
///    structurally matched against shapes known associative (+, *, &&,
///    ||, min/max selects, and pairs thereof — exactly what Lower.cpp
///    synthesizes). A provably non-associative shape (a - b) revokes the
///    certificate; an unrecognized user shape is trusted but flagged.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/ChainWalk.h"
#include "expr/Analysis.h"
#include "expr/Fold.h"

#include <string>

using namespace steno;
using namespace steno::analysis;
using namespace steno::analysis::detail;
using expr::BinaryOp;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;
using expr::Lambda;
using expr::TypeRef;
using quil::Chain;
using quil::Op;
using quil::PredOp;
using quil::SinkOp;
using quil::Sym;

namespace {

/// True when \p E is the combiner atom: \p Proj pair projections
/// (outermost first) applied to the parameter named \p Param.
bool isAtom(const ExprRef &E, const std::string &Param,
            const std::vector<ExprKind> &Proj) {
  const Expr *Cur = E.get();
  for (ExprKind K : Proj) {
    if (Cur->kind() != K)
      return false;
    Cur = Cur->operand(0).get();
  }
  return Cur->kind() == ExprKind::Param && Cur->paramName() == Param;
}

/// Weaker of two recognized classes (AssocComm beats Assoc).
AggClass meet(AggClass X, AggClass Y) {
  auto Rank = [](AggClass C) {
    switch (C) {
    case AggClass::AssociativeCommutative:
      return 4;
    case AggClass::Associative:
      return 3;
    case AggClass::Trusted:
      return 2;
    case AggClass::NonAssociative:
      return 1;
    case AggClass::NoCombiner:
      return 0;
    }
    return 0;
  };
  return Rank(X) <= Rank(Y) ? X : Y;
}

/// Structural classification of a combiner body whose "a" and "b" values
/// are \p Proj applied to the parameters \p A / \p B. Recursing into
/// PairNew prepends the component projection.
AggClass classifyBody(const ExprRef &E, const std::string &A,
                      const std::string &B, std::vector<ExprKind> Proj) {
  auto IsA = [&](const ExprRef &X) { return isAtom(X, A, Proj); };
  auto IsB = [&](const ExprRef &X) { return isAtom(X, B, Proj); };
  auto IsAtomPair = [&](const ExprRef &X, const ExprRef &Y) {
    return (IsA(X) && IsB(Y)) || (IsA(Y) && IsB(X));
  };

  switch (E->kind()) {
  case ExprKind::Binary: {
    const ExprRef &L = E->operand(0), &R = E->operand(1);
    if (!IsAtomPair(L, R))
      return AggClass::Trusted;
    switch (E->binaryOp()) {
    case BinaryOp::Add:
    case BinaryOp::Mul:
    case BinaryOp::And:
    case BinaryOp::Or:
      return AggClass::AssociativeCommutative;
    case BinaryOp::Sub:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      return AggClass::NonAssociative;
    default:
      return AggClass::Trusted;
    }
  }
  case ExprKind::Call:
    // std::min / std::max over the two accumulators.
    if ((E->builtin() == expr::Builtin::Min ||
         E->builtin() == expr::Builtin::Max) &&
        E->operands().size() == 2 &&
        IsAtomPair(E->operand(0), E->operand(1)))
      return AggClass::AssociativeCommutative;
    return AggClass::Trusted;
  case ExprKind::Cond: {
    // cond(cmp(x, y), t, f) with {x,y} = {t,f} = {a,b}: a min/max select.
    const ExprRef &C = E->operand(0);
    if (C->kind() == ExprKind::Binary && expr::isComparison(C->binaryOp()) &&
        !(C->binaryOp() == BinaryOp::Eq || C->binaryOp() == BinaryOp::Ne) &&
        IsAtomPair(C->operand(0), C->operand(1)) &&
        IsAtomPair(E->operand(1), E->operand(2)))
      return AggClass::AssociativeCommutative;
    return AggClass::Trusted;
  }
  case ExprKind::PairNew: {
    std::vector<ExprKind> FirstProj = Proj, SecondProj = Proj;
    FirstProj.insert(FirstProj.begin(), ExprKind::PairFirst);
    SecondProj.insert(SecondProj.begin(), ExprKind::PairSecond);
    AggClass C1 = classifyBody(E->operand(0), A, B, std::move(FirstProj));
    AggClass C2 = classifyBody(E->operand(1), A, B, std::move(SecondProj));
    if (C1 == AggClass::NonAssociative || C2 == AggClass::NonAssociative)
      return AggClass::NonAssociative;
    if (C1 == AggClass::Trusted || C2 == AggClass::Trusted)
      return AggClass::Trusted;
    return meet(C1, C2);
  }
  default:
    return AggClass::Trusted;
  }
}

AggClass classifyCombiner(const Lambda &L) {
  if (!L.valid())
    return AggClass::NoCombiner;
  if (L.arity() != 2)
    return AggClass::Trusted; // shape error; TypeCheck already flagged it
  return classifyBody(L.body(), L.param(0).Name, L.param(1).Name, {});
}

/// Does \p Ty contain a double component (parallel folding of such an
/// accumulator reassociates FP addition)?
bool containsDouble(const TypeRef &Ty) {
  if (!Ty)
    return false;
  if (Ty->isDouble() || Ty->isVec())
    return true;
  if (Ty->isPair())
    return containsDouble(Ty->first()) || containsDouble(Ty->second());
  return false;
}

class EffectAnalyzer {
public:
  EffectAnalyzer(DiagnosticBag &Diags, SafetyCertificate &Cert)
      : Diags(Diags), Cert(Cert) {}

  void run(const Chain &C) { walkChain(C, /*TopLevel=*/true); }

private:
  DiagnosticBag &Diags;
  SafetyCertificate &Cert;
  std::vector<unsigned> Path;

  /// Flags possible integer-division traps in every expression of \p O.
  void checkPurity(unsigned I, const Op &O) {
    for (const RoleExpr &RE : roleExprs(O)) {
      std::vector<unsigned> EP;
      walkExpr(RE.expr(), EP, [&](const Expr &E,
                                  const std::vector<unsigned> &At) {
        if (E.kind() != ExprKind::Binary)
          return;
        if (E.binaryOp() != BinaryOp::Div && E.binaryOp() != BinaryOp::Mod)
          return;
        if (!E.type()->isInt64())
          return; // double division is IEEE-defined, not a trap
        // The one safe-divisor rule (rt::divTraps): a constant that traps
        // on no dividend. A zero divisor always traps; any other divisor
        // — not constant, or -1 over INT64_MIN — may.
        ExprRef Divisor = expr::foldConstants(E.operand(1));
        if (expr::isSafeConstDivisor(*Divisor))
          return;
        Cert.Pure = false;
        if (Divisor->kind() == ExprKind::Const &&
            std::get<std::int64_t>(Divisor->constValue()) == 0) {
          Diags.report(DiagCode::DivByZero, Severity::Error,
                       opLoc(Path, I, RE.Role, At),
                       "integer division by constant zero");
          return;
        }
        Diags.report(DiagCode::DivByZero, Severity::Warning,
                     opLoc(Path, I, RE.Role, At),
                     "integer division with a divisor not provably safe "
                     "(zero, or -1 over INT64_MIN) may trap at run time");
      });
    }
  }

  void classifyAggregation(unsigned I, const Op &O) {
    AggClass C = classifyCombiner(O.Combine);
    Cert.AggClasses.push_back(C);
    switch (C) {
    case AggClass::NoCombiner:
      Diags.report(DiagCode::NoCombiner, Severity::Note, opLoc(Path, I),
                   "aggregation has no combiner and cannot be split "
                   "across partitions");
      break;
    case AggClass::NonAssociative:
      Diags.report(DiagCode::NonAssociativeCombiner, Severity::Warning,
                   opLoc(Path, I, ExprRole::Combine),
                   "combiner is provably non-associative; partial "
                   "aggregation would change the result");
      break;
    case AggClass::Trusted:
      Diags.report(DiagCode::UnverifiedCombiner, Severity::Note,
                   opLoc(Path, I, ExprRole::Combine),
                   "combiner shape not recognized as associative; "
                   "trusted as declared");
      break;
    case AggClass::Associative:
    case AggClass::AssociativeCommutative:
      break;
    }
    if (C != AggClass::NoCombiner && O.Seed &&
        containsDouble(O.Seed->type()) && !Cert.FpReassociation) {
      Cert.FpReassociation = true;
      Diags.report(DiagCode::FpFoldReassociation, Severity::Note,
                   opLoc(Path, I, ExprRole::Combine),
                   "parallel folding reassociates floating-point "
                   "accumulation; rounding may differ from the "
                   "sequential result");
    }
  }

  void walkChain(const Chain &C, bool TopLevel) {
    for (unsigned I = 0; I != C.Ops.size(); ++I) {
      const Op &O = C.Ops[I];
      checkPurity(I, O);

      if (TopLevel && O.S == Sym::Pred && O.P != PredOp::Where) {
        Cert.OrderSensitive = true;
        Diags.report(DiagCode::OrderSensitive, Severity::Note,
                     opLoc(Path, I),
                     std::string("operator depends on the global element "
                                 "order, which partitioning destroys"));
      }
      if (TopLevel &&
          (O.S == Sym::Agg ||
           (O.S == Sym::Sink && O.K == SinkOp::GroupByAggregate)))
        classifyAggregation(I, O);

      if (O.S == Sym::Nested && O.NestedChain) {
        // A nested query runs to completion inside a single outer
        // element: only purity propagates outward; its order and
        // combiners are partition-local.
        Path.push_back(I);
        walkChain(*O.NestedChain, /*TopLevel=*/false);
        Path.pop_back();
      }
    }
  }
};

} // namespace

void analysis::runEffectAnalysis(const Chain &C, DiagnosticBag &Diags,
                                 SafetyCertificate &Cert) {
  EffectAnalyzer(Diags, Cert).run(C);
}
