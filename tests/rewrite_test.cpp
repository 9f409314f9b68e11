//===- tests/rewrite_test.cpp - Certificate-gated plan rewriter -*- C++ -*-===//
///
/// \file
/// Exercises quil::rewriteChain rule by rule (structural assertions on
/// the rewritten chain plus the exact certificate list), the mechanical
/// verifyCertificates check and its tamper detection, and the compile-
/// pipeline integration: CompileOptions::Rewrite, rewriteResult(),
/// provenance via anchorHash(), ST4xxx diagnostics, and
/// result-identity between rewrite-on and rewrite-off plans.
///
//===----------------------------------------------------------------------===//

#include "analysis/Rewrite.h"
#include "steno/Steno.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <vector>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;
using quil::Chain;
using quil::PredOp;
using quil::RewriteCertificate;
using quil::RewriteResult;
using quil::RewriteRule;
using quil::Sym;

namespace {

E xi() { return param("xi", Type::int64Ty()); }
std::int64_t i64(long long V) { return static_cast<std::int64_t>(V); }

RewriteResult rewritten(const Query &Q) {
  Chain C = quil::lower(Q);
  EXPECT_FALSE(quil::validate(C).has_value());
  return quil::rewriteChain(C);
}

unsigned countRule(const RewriteResult &R, RewriteRule Rule) {
  unsigned N = 0;
  for (const RewriteCertificate &C : R.Certs)
    N += C.Rule == Rule;
  return N;
}

std::int64_t seedConst(const quil::Op &O) {
  EXPECT_TRUE(O.Seed && O.Seed->kind() == ExprKind::Const);
  return std::get<std::int64_t>(O.Seed->constValue());
}

/// Bindings over a small int64 buffer shared by the run-identity tests.
struct Input {
  std::vector<std::int64_t> Data{4, -9, 12, 0, 7, -1, 3, 30};
  Bindings B;
  Input() {
    B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));
  }
};

/// Compiles \p Q twice (rewrite on / off, interp backend) and expects
/// row-identical results.
void expectRewriteIdentity(const Query &Q, const char *Name) {
  Input In;
  CompileOptions On;
  On.Exec = Backend::Interp;
  On.Rewrite = true;
  On.Analyze = analysis::Mode::Off;
  On.Name = std::string(Name) + "_on";
  CompileOptions Off = On;
  Off.Rewrite = false;
  Off.Name = std::string(Name) + "_off";
  QueryResult A = compileQuery(Q, On).run(In.B);
  QueryResult B = compileQuery(Q, Off).run(In.B);
  ASSERT_EQ(A.rows().size(), B.rows().size()) << Name;
  for (std::size_t I = 0; I != A.rows().size(); ++I)
    EXPECT_TRUE(A.rows()[I] == B.rows()[I]) << Name << " row " << I;
}

} // namespace

//===--------------------------------------------------------------------===//
// Rule-by-rule structural tests
//===--------------------------------------------------------------------===//

TEST(RewriteRules, DropTruePredRemovesConstantTrueWhere) {
  RewriteResult R =
      rewritten(Query::int64Array(0).where(lambda({xi()}, E(true))).sum());
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(countRule(R, RewriteRule::DropTruePred), 1u);
  for (const quil::Op &O : R.Rewritten.Ops)
    EXPECT_NE(O.S, Sym::Pred); // the only Pred was dropped
  EXPECT_NE(R.OriginalHash, R.RewrittenHash);
}

TEST(RewriteRules, CollapseFalsePredBecomesTakeZero) {
  RewriteResult R =
      rewritten(Query::int64Array(0).where(lambda({xi()}, E(false))).sum());
  EXPECT_GE(countRule(R, RewriteRule::CollapseFalsePred), 1u);
  bool SawTakeZero = false;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Take)
      SawTakeZero = seedConst(O) == 0;
  EXPECT_TRUE(SawTakeZero);
}

TEST(RewriteRules, ContradictoryPredPairCollapses) {
  // Assuming xi > 10 refines the element to [11, +inf), making xi < 10
  // provably false downstream.
  RewriteResult R = rewritten(Query::int64Array(0)
                                  .where(lambda({xi()}, xi() > E(i64(10))))
                                  .where(lambda({xi()}, xi() < E(i64(10))))
                                  .count());
  EXPECT_GE(countRule(R, RewriteRule::CollapseFalsePred), 1u);
}

TEST(RewriteRules, FoldConstCountFoldsComputedTakeCount) {
  RewriteResult R = rewritten(
      Query::int64Array(0).take(E(i64(2)) + E(i64(3))).toArray());
  EXPECT_EQ(countRule(R, RewriteRule::FoldConstCount), 1u);
  bool SawTakeFive = false;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Take)
      SawTakeFive = seedConst(O) == 5;
  EXPECT_TRUE(SawTakeFive);
}

TEST(RewriteRules, NegativeTakeFoldsToZero) {
  RewriteResult R =
      rewritten(Query::int64Array(0).take(E(i64(-2))).toArray());
  EXPECT_GE(countRule(R, RewriteRule::FoldConstCount), 1u);
  bool SawTakeZero = false;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Take)
      SawTakeZero = seedConst(O) == 0;
  EXPECT_TRUE(SawTakeZero);
}

TEST(RewriteRules, AdjacentTakesMergeToMin) {
  RewriteResult R = rewritten(
      Query::int64Array(0).take(E(i64(5))).take(E(i64(3))).toArray());
  EXPECT_EQ(countRule(R, RewriteRule::MergeTakeTake), 1u);
  unsigned Takes = 0;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Take) {
      ++Takes;
      EXPECT_EQ(seedConst(O), 3);
    }
  EXPECT_EQ(Takes, 1u);
}

TEST(RewriteRules, AdjacentSkipsMergeToSum) {
  RewriteResult R = rewritten(
      Query::int64Array(0).skip(E(i64(2))).skip(E(i64(3))).toArray());
  EXPECT_EQ(countRule(R, RewriteRule::MergeSkipSkip), 1u);
  unsigned Skips = 0;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Skip) {
      ++Skips;
      EXPECT_EQ(seedConst(O), 5);
    }
  EXPECT_EQ(Skips, 1u);
}

TEST(RewriteRules, SkipZeroIsDropped) {
  RewriteResult R =
      rewritten(Query::int64Array(0).skip(E(i64(0))).toArray());
  EXPECT_EQ(countRule(R, RewriteRule::DropSkipZero), 1u);
  for (const quil::Op &O : R.Rewritten.Ops)
    EXPECT_NE(O.S, Sym::Pred);
}

TEST(RewriteRules, TakeAboveCardinalityBoundIsDropped) {
  // take(3) bounds the stream at 3 elements; the later take(5) can never
  // bite (a Select sits between them so the merge rule does not apply).
  RewriteResult R = rewritten(Query::int64Array(0)
                                  .take(E(i64(3)))
                                  .select(lambda({xi()}, xi() + E(i64(1))))
                                  .take(E(i64(5)))
                                  .toArray());
  EXPECT_EQ(countRule(R, RewriteRule::DropRedundantTake), 1u);
  unsigned Takes = 0;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Take) {
      ++Takes;
      EXPECT_EQ(seedConst(O), 3);
    }
  EXPECT_EQ(Takes, 1u);
}

TEST(RewriteRules, OperatorsBehindTakeZeroAreDead) {
  RewriteResult R = rewritten(Query::int64Array(0)
                                  .take(E(i64(0)))
                                  .select(lambda({xi()}, xi() * xi()))
                                  .where(lambda({xi()}, xi() > E(i64(0))))
                                  .sum());
  EXPECT_GE(countRule(R, RewriteRule::RemoveDeadOp), 2u);
  for (const quil::Op &O : R.Rewritten.Ops) {
    EXPECT_NE(O.S, Sym::Trans);
    if (O.S == Sym::Pred) {
      EXPECT_EQ(O.P, PredOp::Take); // only the Take 0 marker survives
    }
  }
}

TEST(RewriteRules, AdjacentPredsReorderByCostAndSelectivity) {
  // evenint (has a Mod: expensive, est. selectivity .25) before gtc
  // (cheap, est. .5): rank = (sel - 1) / cost sorts the cheap filter
  // first.
  RewriteResult R = rewritten(
      Query::int64Array(0)
          .where(lambda({xi()}, (xi() % E(i64(2))) == E(i64(0))))
          .where(lambda({xi()}, xi() > E(i64(0))))
          .sum());
  EXPECT_EQ(countRule(R, RewriteRule::ReorderPreds), 1u);
  std::vector<BinaryOp> PredOps;
  for (const quil::Op &O : R.Rewritten.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Where)
      PredOps.push_back(O.Fn.body()->binaryOp());
  ASSERT_EQ(PredOps.size(), 2u);
  EXPECT_EQ(PredOps[0], BinaryOp::Gt); // moved up
  EXPECT_EQ(PredOps[1], BinaryOp::Eq);
}

TEST(RewriteRules, AlreadyOptimalOrderIsUntouched) {
  RewriteResult R = rewritten(
      Query::int64Array(0)
          .where(lambda({xi()}, xi() > E(i64(0))))
          .where(lambda({xi()}, (xi() % E(i64(2))) == E(i64(0))))
          .sum());
  EXPECT_EQ(countRule(R, RewriteRule::ReorderPreds), 0u);
}

TEST(RewriteRules, ElideDivTrapMarksProvenSites) {
  RewriteResult R = rewritten(
      Query::int64Array(0)
          .select(lambda({xi()}, xi() / (E(i64(1)) +
                                         abs(xi() % E(i64(4))))))
          .sum());
  // Two sites prove safe: the outer `/` (divisor in [1, 4]) and the
  // inner `%` (constant divisor 4).
  EXPECT_EQ(countRule(R, RewriteRule::ElideDivTrap), 2u);
}

TEST(RewriteRules, NoOpChainIsUnchanged) {
  RewriteResult R = rewritten(
      Query::int64Array(0)
          .select(lambda({xi()}, xi() + E(i64(1))))
          .sum());
  EXPECT_FALSE(R.Changed);
  EXPECT_TRUE(R.Certs.empty());
  EXPECT_EQ(R.OriginalHash, R.RewrittenHash);
}

//===--------------------------------------------------------------------===//
// Certificates: mechanical verification and tamper detection
//===--------------------------------------------------------------------===//

TEST(RewriteCerts, VerifyAcceptsGenuineResult) {
  Chain C = quil::lower(Query::int64Array(0)
                            .where(lambda({xi()}, E(true)))
                            .skip(E(i64(0)))
                            .sum());
  RewriteResult R = quil::rewriteChain(C);
  ASSERT_TRUE(R.Changed);
  std::string Err;
  EXPECT_TRUE(quil::verifyCertificates(C, R, quil::RewriteOptions(), &Err))
      << Err;
}

TEST(RewriteCerts, VerifyRejectsTamperedCertListAndHash) {
  Chain C = quil::lower(Query::int64Array(0)
                            .where(lambda({xi()}, E(true)))
                            .skip(E(i64(0)))
                            .sum());
  RewriteResult R = quil::rewriteChain(C);
  ASSERT_GE(R.Certs.size(), 2u);

  RewriteResult Dropped = R;
  Dropped.Certs.pop_back();
  std::string Err;
  EXPECT_FALSE(
      quil::verifyCertificates(C, Dropped, quil::RewriteOptions(), &Err));
  EXPECT_FALSE(Err.empty());

  RewriteResult BadHash = R;
  BadHash.RewrittenHash ^= 1;
  EXPECT_FALSE(
      quil::verifyCertificates(C, BadHash, quil::RewriteOptions(), &Err));

  // Wrong original chain: the replay starts from different facts.
  Chain Other = quil::lower(Query::int64Array(0).sum());
  EXPECT_FALSE(
      quil::verifyCertificates(Other, R, quil::RewriteOptions(), &Err));
}

TEST(RewriteCerts, CertificateStringsNameRuleLocationAndFact) {
  RewriteResult R =
      rewritten(Query::int64Array(0).where(lambda({xi()}, E(true))).sum());
  ASSERT_EQ(R.Certs.size(), 1u);
  std::string S = R.Certs[0].str();
  EXPECT_NE(S.find("drop-true-pred"), std::string::npos) << S;
  EXPECT_NE(S.find("op #1"), std::string::npos) << S;
}

//===--------------------------------------------------------------------===//
// Pipeline integration: CompileOptions::Rewrite, provenance, diagnostics
//===--------------------------------------------------------------------===//

TEST(RewritePipeline, RewriteResultAndProvenanceExposedWhenChanged) {
  Query Q = Query::int64Array(0).where(lambda({xi()}, E(true))).sum();
  CompileOptions On;
  On.Exec = Backend::Interp;
  On.Rewrite = true;
  On.Analyze = analysis::Mode::Strict;
  On.Name = "rw_pipeline_on";
  CompiledQuery CQ = compileQuery(Q, On);
  const RewriteResult *R = CQ.rewriteResult();
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Changed);
  // Provenance: the rewritten plan's anchor is the plan hash the query
  // compiles to with rewriting off.
  EXPECT_NE(CQ.anchorHash(), CQ.planHash());
  CompileOptions Off = On;
  Off.Rewrite = false;
  EXPECT_EQ(CQ.anchorHash(), compileQuery(Q, Off).planHash());
  // The applied rewrite surfaces as an ST4001 note.
  EXPECT_TRUE(
      CQ.analysisResult().Diags.has(analysis::DiagCode::RewritePredDropped));
}

TEST(RewritePipeline, RewriteOffLeavesPlanAlone) {
  Query Q = Query::int64Array(0).where(lambda({xi()}, E(true))).sum();
  CompileOptions Off;
  Off.Exec = Backend::Interp;
  Off.Rewrite = false;
  Off.Analyze = analysis::Mode::Off;
  Off.Name = "rw_pipeline_off";
  CompiledQuery CQ = compileQuery(Q, Off);
  EXPECT_EQ(CQ.rewriteResult(), nullptr);
  EXPECT_EQ(CQ.anchorHash(), CQ.planHash());
}

//===--------------------------------------------------------------------===//
// Result identity: rewrite on == rewrite off, interp backend
//===--------------------------------------------------------------------===//

TEST(RewriteIdentity, RewriteHeavyPipelinesMatchUnrewrittenPlans) {
  expectRewriteIdentity(Query::int64Array(0)
                            .where(lambda({xi()}, E(true)))
                            .skip(E(i64(0)))
                            .select(lambda({xi()}, xi() * E(i64(2))))
                            .take(E(i64(100)))
                            .toArray(),
                        "rw_ident_droppable");
  expectRewriteIdentity(Query::int64Array(0)
                            .take(E(i64(0)))
                            .select(lambda({xi()}, xi() * xi()))
                            .sum(),
                        "rw_ident_dead");
  expectRewriteIdentity(
      Query::int64Array(0)
          .where(lambda({xi()}, (xi() % E(i64(2))) == E(i64(0))))
          .where(lambda({xi()}, xi() > E(i64(0))))
          .sum(),
      "rw_ident_reorder");
  expectRewriteIdentity(
      Query::int64Array(0)
          .select(lambda({xi()}, xi() / (E(i64(1)) +
                                         abs(xi() % E(i64(4))))))
          .sum(),
      "rw_ident_elide");
  expectRewriteIdentity(Query::int64Array(0)
                            .where(lambda({xi()}, xi() > E(i64(10))))
                            .where(lambda({xi()}, xi() < E(i64(10))))
                            .count(),
                        "rw_ident_contra");
}
