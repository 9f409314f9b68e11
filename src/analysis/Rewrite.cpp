//===- analysis/Rewrite.cpp - Certificate-gated plan rewriter -*- C++ -*-===//

#include "analysis/Rewrite.h"
#include "analysis/AbsInt.h"
#include "analysis/ChainWalk.h"
#include "expr/Analysis.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <numeric>
#include <variant>

using namespace steno;
using namespace steno::quil;
using namespace steno::analysis;
using namespace steno::analysis::absint;
using expr::BinaryOp;
using expr::Builtin;
using expr::Expr;
using expr::ExprKind;
using expr::ExprRef;

const char *quil::rewriteRuleName(RewriteRule Rule) {
  switch (Rule) {
  case RewriteRule::DropTruePred:
    return "drop-true-pred";
  case RewriteRule::CollapseFalsePred:
    return "collapse-false-pred";
  case RewriteRule::RemoveDeadOp:
    return "remove-dead-op";
  case RewriteRule::FoldConstCount:
    return "fold-const-count";
  case RewriteRule::MergeTakeTake:
    return "merge-take-take";
  case RewriteRule::MergeSkipSkip:
    return "merge-skip-skip";
  case RewriteRule::DropSkipZero:
    return "drop-skip-zero";
  case RewriteRule::DropRedundantTake:
    return "drop-redundant-take";
  case RewriteRule::ReorderPreds:
    return "reorder-preds";
  case RewriteRule::ElideDivTrap:
    return "elide-div-trap";
  }
  return "?";
}

std::string RewriteCertificate::str() const {
  std::string Out = rewriteRuleName(Rule);
  Out += " @ " + Loc.str();
  if (!Fact.empty())
    Out += " [" + Fact + "]";
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

namespace {

std::optional<std::int64_t> constCount(const ExprRef &Seed) {
  if (Seed && Seed->kind() == ExprKind::Const &&
      std::holds_alternative<std::int64_t>(Seed->constValue()))
    return std::get<std::int64_t>(Seed->constValue());
  return std::nullopt;
}

/// The canonical empty marker: Take 0 over the element type.
Op makeTakeZero(const expr::TypeRef &ElemTy) {
  Op N;
  N.S = Sym::Pred;
  N.P = PredOp::Take;
  N.Seed = Expr::constInt64(0);
  N.InElem = ElemTy;
  N.OutElem = ElemTy;
  return N;
}

std::int64_t satAddCount(std::int64_t A, std::int64_t B) {
  std::int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return INT64_MAX;
  return R;
}

/// Static per-node cost of evaluating a predicate body once: node count
/// with divisions and math calls weighted heavier (they dominate the
/// per-element cycle budget).
std::int64_t staticCost(const ExprRef &E) {
  std::int64_t C = 1;
  if (E->kind() == ExprKind::Binary &&
      (E->binaryOp() == BinaryOp::Div || E->binaryOp() == BinaryOp::Mod))
    C += 4;
  if (E->kind() == ExprKind::Call)
    C += 8;
  for (const ExprRef &Op : E->operands())
    C += staticCost(Op);
  return C;
}

/// Textbook selectivity estimate of a boolean expression (System R
/// defaults): comparisons 0.5, equality 0.25, inequality 0.75,
/// conjunction/disjunction under independence.
double staticSelectivity(const ExprRef &E) {
  switch (E->kind()) {
  case ExprKind::Const:
    if (std::holds_alternative<bool>(E->constValue()))
      return std::get<bool>(E->constValue()) ? 1.0 : 0.0;
    return 0.5;
  case ExprKind::Unary:
    if (E->unaryOp() == expr::UnaryOp::Not)
      return 1.0 - staticSelectivity(E->operand(0));
    return 0.5;
  case ExprKind::Binary: {
    BinaryOp Op = E->binaryOp();
    double L, R;
    switch (Op) {
    case BinaryOp::Eq:
      return 0.25;
    case BinaryOp::Ne:
      return 0.75;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      return 0.5;
    case BinaryOp::And:
      L = staticSelectivity(E->operand(0));
      R = staticSelectivity(E->operand(1));
      return L * R;
    case BinaryOp::Or:
      L = staticSelectivity(E->operand(0));
      R = staticSelectivity(E->operand(1));
      return L + R - L * R;
    default:
      return 0.5;
    }
  }
  default:
    return 0.5;
  }
}

/// True when \p E (or a subexpression) is an int64 division or modulo —
/// a potential trap-elision site.
bool exprHasIntDiv(const expr::ExprRef &E) {
  if (!E)
    return false;
  if (E->kind() == expr::ExprKind::Binary &&
      (E->binaryOp() == expr::BinaryOp::Div ||
       E->binaryOp() == expr::BinaryOp::Mod) &&
      E->type() && E->type()->isInt64())
    return true;
  for (const expr::ExprRef &Op : E->operands())
    if (exprHasIntDiv(Op))
      return true;
  return false;
}

/// Conservative pre-scan: does \p C contain anything a rewrite rule
/// could fire on? Pred operators feed every structural rule, an int64
/// Div/Mod anywhere feeds trap elision, and a Range source with a
/// constant non-positive count makes downstream operators dead. Chains
/// with none of these (the common hot-compile shapes: select + aggregate
/// over arrays) skip the abstract-interpretation passes entirely.
bool hasRewriteTargets(const Chain &C) {
  return quil::chainHasRewriteTargets(C);
}

} // namespace

bool quil::chainHasRewriteTargets(const Chain &C) {
  for (const Op &O : C.Ops) {
    if (O.S == Sym::Pred)
      return true;
    if (O.S == Sym::Src && O.Src.CountE &&
        O.Src.CountE->kind() == expr::ExprKind::Const &&
        std::holds_alternative<std::int64_t>(O.Src.CountE->constValue()) &&
        std::get<std::int64_t>(O.Src.CountE->constValue()) <= 0)
      return true;
    for (const expr::Lambda *L :
         {&O.Fn, &O.Fn2, &O.Fn3, &O.Combine, &O.StopWhen})
      if (L->valid() && exprHasIntDiv(L->body()))
        return true;
    if (exprHasIntDiv(O.Seed) || exprHasIntDiv(O.DenseKeys))
      return true;
    if (O.NestedChain && chainHasRewriteTargets(*O.NestedChain))
      return true;
  }
  return false;
}

namespace {

struct Rewriter {
  const RewriteOptions &Opts;
  std::vector<RewriteCertificate> Certs;

  explicit Rewriter(const RewriteOptions &Opts) : Opts(Opts) {}

  void run(Chain &C) {
    // Fixpoint over the structural rules. Each applied rule invalidates
    // the facts, so they are recomputed per iteration; chains are tens
    // of operators at most, so the quadratic bound is irrelevant.
    for (int Iter = 0; Iter != 64; ++Iter) {
      ChainFacts Facts = analyzeChainFacts(C);
      if (!applyOne(C, Facts, {}))
        break;
    }
    reorderPreds(C, analyzeChainFacts(C), {});
    // Reordering narrows downstream element facts, so elision runs on
    // fresh facts last.
    elideTraps(C, analyzeChainFacts(C), Env(), {});
  }

private:
  void cert(RewriteRule Rule, DiagLoc Loc, std::string Fact,
            std::string Detail) {
    Certs.push_back(RewriteCertificate{Rule, std::move(Loc),
                                       std::move(Fact), std::move(Detail)});
  }

  //===------------------------------------------------------------===//
  // Structural rules (one application per call)
  //===------------------------------------------------------------===//

  bool applyOne(Chain &C, const ChainFacts &Facts,
                const std::vector<unsigned> &Prefix) {
    for (unsigned I = 0; I != C.Ops.size(); ++I) {
      const Op &O = C.Ops[I];
      const OpFacts &F = Facts.Ops[I];

      // Rule: remove an operator that provably never sees an element.
      // Its expressions never evaluate at run time, so no trap-freedom
      // gate is needed; removal must preserve the element type.
      if (F.CardIn == Interval::constant(0) && removable(O)) {
        cert(RewriteRule::RemoveDeadOp, detail::opLoc(Prefix, I),
             "incoming cardinality = [0, 0]",
             std::string("removed dead ") + symName(O.S) + " operator");
        C.Ops.erase(C.Ops.begin() + I);
        return true;
      }

      if (O.S == Sym::Pred)
        if (applyPredRule(C, I, F, Prefix))
          return true;
    }

    // Recurse into nested chains (on a mutable copy; reinstall on
    // change).
    for (unsigned I = 0; I != C.Ops.size(); ++I) {
      Op &O = C.Ops[I];
      if (O.S != Sym::Nested || !O.NestedChain)
        continue;
      auto It = Facts.Nested.find(I);
      if (It == Facts.Nested.end())
        continue;
      Chain Copy = *O.NestedChain;
      std::vector<unsigned> NestedPrefix = Prefix;
      NestedPrefix.push_back(I);
      if (applyOne(Copy, *It->second, NestedPrefix)) {
        O.NestedChain = std::make_shared<Chain>(std::move(Copy));
        return true;
      }
    }
    return false;
  }

  static bool removable(const Op &O) {
    switch (O.S) {
    case Sym::Pred:
      return true; // preds are always type-preserving
    case Sym::Trans:
    case Sym::Nested:
      return expr::sameType(O.InElem, O.OutElem);
    default:
      return false; // Src/Sink/Agg/Ret anchor the chain's shape
    }
  }

  bool applyPredRule(Chain &C, unsigned I, const OpFacts &F,
                     const std::vector<unsigned> &Prefix) {
    Op &O = C.Ops[I];
    switch (O.P) {
    case PredOp::Where:
    case PredOp::TakeWhile:
    case PredOp::SkipWhile: {
      if (!O.Fn.valid())
        return false;
      // For SkipWhile the roles invert: constant-true drops everything,
      // constant-false is the no-op.
      bool Empties = O.P == PredOp::SkipWhile ? F.Pred == Tri::True
                                              : F.Pred == Tri::False;
      bool NoOp = O.P == PredOp::SkipWhile ? F.Pred == Tri::False
                                           : F.Pred == Tri::True;
      // Both rules skip evaluating the predicate body on elements that
      // do reach it, so the body must be proven unable to trap.
      if (Empties && F.TrapFree) {
        cert(RewriteRule::CollapseFalsePred,
             detail::opLoc(Prefix, I, ExprRole::Fn),
             std::string("pred = ") +
                 (O.P == PredOp::SkipWhile ? "true" : "false") +
                 " for every reachable element, body trap-free",
             "collapsed to the canonical empty marker Take 0");
        C.Ops[I] = makeTakeZero(O.InElem);
        return true;
      }
      if (NoOp && F.TrapFree) {
        cert(RewriteRule::DropTruePred,
             detail::opLoc(Prefix, I, ExprRole::Fn),
             std::string("pred = ") +
                 (O.P == PredOp::SkipWhile ? "false" : "true") +
                 " for every reachable element, body trap-free",
             "removed no-op predicate");
        C.Ops.erase(C.Ops.begin() + I);
        return true;
      }
      return false;
    }
    case PredOp::Take:
    case PredOp::Skip: {
      const bool IsTake = O.P == PredOp::Take;
      auto Const = constCount(O.Seed);
      if (!Const && F.Count) {
        // The count expression is not a literal but the framework proved
        // it constant: fold it so downstream rules (and codegen) see the
        // literal.
        cert(RewriteRule::FoldConstCount,
             detail::opLoc(Prefix, I, ExprRole::Seed),
             "count interval = " + Interval::constant(*F.Count).str(),
             support::strFormat("folded %s count to %lld",
                                IsTake ? "Take" : "Skip",
                                static_cast<long long>(*F.Count)));
        O.Seed = Expr::constInt64(*F.Count);
        return true;
      }
      if (!Const)
        return false;
      std::int64_t N = *Const;
      if (IsTake && N < 0) {
        // Runtime semantics: a negative Take count produces no elements.
        cert(RewriteRule::FoldConstCount,
             detail::opLoc(Prefix, I, ExprRole::Seed),
             support::strFormat("Take count = %lld < 0",
                                static_cast<long long>(N)),
             "normalized negative Take to the empty marker Take 0");
        O.Seed = Expr::constInt64(0);
        return true;
      }
      if (!IsTake && N <= 0) {
        // Skip of zero (or a negative count, which the runtime treats as
        // zero) passes every element through.
        cert(RewriteRule::DropSkipZero,
             detail::opLoc(Prefix, I, ExprRole::Seed),
             support::strFormat("Skip count = %lld <= 0",
                                static_cast<long long>(N)),
             "removed no-op Skip");
        C.Ops.erase(C.Ops.begin() + I);
        return true;
      }
      // Merge with an adjacent same-kind constant count.
      if (I + 1 < C.Ops.size() && C.Ops[I + 1].S == Sym::Pred &&
          C.Ops[I + 1].P == O.P) {
        if (auto M = constCount(C.Ops[I + 1].Seed)) {
          std::int64_t Merged =
              IsTake ? std::min(N, std::max<std::int64_t>(*M, 0))
                     : satAddCount(N, std::max<std::int64_t>(*M, 0));
          cert(IsTake ? RewriteRule::MergeTakeTake
                      : RewriteRule::MergeSkipSkip,
               detail::opLoc(Prefix, I, ExprRole::Seed),
               support::strFormat("adjacent constant counts %lld, %lld",
                                  static_cast<long long>(N),
                                  static_cast<long long>(*M)),
               support::strFormat("merged into one %s %lld",
                                  IsTake ? "Take" : "Skip",
                                  static_cast<long long>(Merged)));
          O.Seed = Expr::constInt64(Merged);
          C.Ops.erase(C.Ops.begin() + I + 1);
          return true;
        }
      }
      // A Take the upstream can never exceed is a no-op.
      if (IsTake && N > 0 && F.CardIn.Hi != INT64_MAX && F.CardIn.Hi <= N) {
        cert(RewriteRule::DropRedundantTake,
             detail::opLoc(Prefix, I, ExprRole::Seed),
             support::strFormat("incoming cardinality %s <= Take %lld",
                                F.CardIn.str().c_str(),
                                static_cast<long long>(N)),
             "removed redundant Take");
        C.Ops.erase(C.Ops.begin() + I);
        return true;
      }
      return false;
    }
    }
    return false;
  }

  //===------------------------------------------------------------===//
  // Predicate reordering
  //===------------------------------------------------------------===//

  void reorderPreds(Chain &C, const ChainFacts &Facts,
                    const std::vector<unsigned> &Prefix) {
    for (unsigned I = 0; I != C.Ops.size();) {
      // A maximal run of adjacent stateless trap-free Where ops.
      unsigned J = I;
      while (J < C.Ops.size() && C.Ops[J].S == Sym::Pred &&
             C.Ops[J].P == PredOp::Where && C.Ops[J].Fn.valid() &&
             Facts.Ops[J].TrapFree)
        ++J;
      if (J - I >= 2)
        reorderRun(C, I, J, Prefix);
      I = J > I ? J : I + 1;
    }

    // Nested chains.
    for (unsigned I = 0; I != C.Ops.size(); ++I) {
      Op &O = C.Ops[I];
      if (O.S != Sym::Nested || !O.NestedChain)
        continue;
      auto It = Facts.Nested.find(I);
      if (It == Facts.Nested.end())
        continue;
      std::size_t Before = Certs.size();
      Chain Copy = *O.NestedChain;
      std::vector<unsigned> NestedPrefix = Prefix;
      NestedPrefix.push_back(I);
      reorderPreds(Copy, *It->second, NestedPrefix);
      if (Certs.size() != Before)
        O.NestedChain = std::make_shared<Chain>(std::move(Copy));
    }
  }

  void reorderRun(Chain &C, unsigned Begin, unsigned End,
                  const std::vector<unsigned> &Prefix) {
    struct Ranked {
      unsigned Idx;
      double Sel;
      double Cost;
      double rank() const { return (Sel - 1.0) / Cost; }
    };
    // Feedback mode: when observed selectivities cover EVERY predicate
    // in the run, rank with them. Any other run ranks with static
    // estimates alone — an observed fraction and a static guess do not
    // rank against each other. Cost is always the static model's.
    bool Observed = !Opts.Observed.empty();
    for (unsigned I = Begin; I != End && Observed; ++I)
      Observed = Opts.Observed.count(expr::hashLambda(C.Ops[I].Fn)) != 0;

    std::vector<Ranked> Run;
    for (unsigned I = Begin; I != End; ++I) {
      const Op &O = C.Ops[I];
      Ranked R;
      R.Idx = I;
      R.Cost = static_cast<double>(staticCost(O.Fn.body()));
      R.Sel = Observed ? Opts.Observed.at(expr::hashLambda(O.Fn)).Sel
                       : staticSelectivity(O.Fn.body());
      Run.push_back(R);
    }
    // Most negative rank first: cheap, highly selective filters lead.
    std::stable_sort(Run.begin(), Run.end(),
                     [](const Ranked &A, const Ranked &B) {
                       return A.rank() < B.rank();
                     });
    bool Changed = false;
    for (unsigned K = 0; K != Run.size(); ++K)
      Changed = Changed || Run[K].Idx != Begin + K;
    if (!Changed)
      return;

    std::vector<Op> NewOps;
    NewOps.reserve(Run.size());
    std::string Fact = Observed
                           ? "rank = (selectivity - 1) / cost, feedback:"
                           : "rank = (selectivity - 1) / cost:";
    for (const Ranked &R : Run) {
      NewOps.push_back(C.Ops[R.Idx]);
      Fact += support::strFormat(" #%u(sel=%.4f%s,cost=%lld)", R.Idx, R.Sel,
                                 Observed ? "*" : "",
                                 static_cast<long long>(R.Cost));
    }
    if (Observed)
      Fact += " (* = observed)";
    for (unsigned K = 0; K != NewOps.size(); ++K)
      C.Ops[Begin + K] = std::move(NewOps[K]);
    cert(RewriteRule::ReorderPreds, detail::opLoc(Prefix, Begin),
         std::move(Fact),
         support::strFormat("reordered %zu adjacent Where predicates",
                            Run.size()));
  }

  //===------------------------------------------------------------===//
  // Trap elision
  //===------------------------------------------------------------===//

  void elideTraps(Chain &C, const ChainFacts &Facts, const Env &Outer,
                  const std::vector<unsigned> &Prefix) {
    for (unsigned I = 0; I != C.Ops.size(); ++I) {
      Op &O = C.Ops[I];
      const AbsVal &ElemIn = Facts.Ops[I].ElemIn;

      auto MarkLambda = [&](expr::Lambda &L, ExprRole Role) {
        if (!L.valid())
          return;
        Env E = roleEnv(O, Role, ElemIn, Outer);
        std::vector<std::string> Marked;
        ExprRef NewBody = markSafeDivisions(L.body(), E, &Marked);
        if (Marked.empty())
          return;
        for (const std::string &F : Marked)
          cert(RewriteRule::ElideDivTrap, detail::opLoc(Prefix, I, Role), F,
               "elided ckdiv/ckmod trap check");
        L = expr::Lambda(L.params(), NewBody);
      };
      auto MarkExpr = [&](ExprRef &E, ExprRole Role) {
        if (!E)
          return;
        Env En = roleEnv(O, Role, ElemIn, Outer);
        std::vector<std::string> Marked;
        ExprRef NewE = markSafeDivisions(E, En, &Marked);
        if (Marked.empty())
          return;
        for (const std::string &F : Marked)
          cert(RewriteRule::ElideDivTrap, detail::opLoc(Prefix, I, Role), F,
               "elided ckdiv/ckmod trap check");
        E = NewE;
      };

      MarkLambda(O.Fn, ExprRole::Fn);
      MarkLambda(O.Fn2, ExprRole::Fn2);
      MarkLambda(O.Fn3, ExprRole::Fn3);
      MarkLambda(O.Combine, ExprRole::Combine);
      MarkLambda(O.StopWhen, ExprRole::StopWhen);
      MarkExpr(O.Seed, ExprRole::Seed);
      MarkExpr(O.DenseKeys, ExprRole::DenseKeys);
      if (O.S == Sym::Src) {
        MarkExpr(O.Src.Start, ExprRole::SrcStart);
        MarkExpr(O.Src.CountE, ExprRole::SrcCount);
        MarkExpr(O.Src.Vec, ExprRole::SrcVec);
      }

      if (O.S == Sym::Nested && O.NestedChain) {
        auto It = Facts.Nested.find(I);
        if (It == Facts.Nested.end())
          continue;
        Env NestedOuter = Outer;
        if (!O.OuterParam.empty())
          NestedOuter[O.OuterParam] = ElemIn;
        std::size_t Before = Certs.size();
        Chain Copy = *O.NestedChain;
        std::vector<unsigned> NestedPrefix = Prefix;
        NestedPrefix.push_back(I);
        elideTraps(Copy, *It->second, NestedOuter, NestedPrefix);
        if (Certs.size() != Before)
          O.NestedChain = std::make_shared<Chain>(std::move(Copy));
      }
    }
  }
};

} // namespace

RewriteResult quil::rewriteChain(const Chain &C,
                                 const RewriteOptions &Options) {
  RewriteResult R;
  R.OriginalHash = hashChain(C);
  R.Rewritten = C;
  if (!hasRewriteTargets(C)) {
    R.RewrittenHash = R.OriginalHash;
    return R;
  }
  Rewriter RW(Options);
  RW.run(R.Rewritten);
  R.Certs = std::move(RW.Certs);
  R.RewrittenHash = hashChain(R.Rewritten);
  R.Changed = !R.Certs.empty();
  return R;
}

bool quil::verifyCertificates(const Chain &Original, const RewriteResult &R,
                              const RewriteOptions &Options,
                              std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  if (R.OriginalHash != hashChain(Original))
    return Fail("original-chain hash mismatch");
  if (auto V = validate(R.Rewritten))
    return Fail("rewritten chain fails validation: " + *V);
  // Deterministic replay: the same chain + options must reproduce the
  // exact certificate trail and the exact output chain.
  RewriteResult Replay = rewriteChain(Original, Options);
  if (Replay.RewrittenHash != R.RewrittenHash)
    return Fail("replay produced a different rewritten chain");
  if (Replay.Certs.size() != R.Certs.size())
    return Fail(support::strFormat(
        "replay produced %zu certificates, result carries %zu",
        Replay.Certs.size(), R.Certs.size()));
  for (std::size_t I = 0; I != R.Certs.size(); ++I) {
    const RewriteCertificate &A = R.Certs[I];
    const RewriteCertificate &B = Replay.Certs[I];
    if (A.Rule != B.Rule || !(A.Loc == B.Loc) || A.Fact != B.Fact)
      return Fail("certificate " + std::to_string(I) +
                  " does not replay: have [" + A.str() + "], replay [" +
                  B.str() + "]");
  }
  return true;
}
