//===- tests/adapt_test.cpp - Feedback-driven adaptive planning -*- C++ -*-===//
///
/// \file
/// Exercises steno::adapt with deterministic hand-fed profiles: EWMA
/// decay math, the minimum-sample gate, feedback-driven predicate ranking
/// in the rewriter (including the all-or-nothing commensurability gate
/// and certificate replay), and the end-to-end contract that a warm
/// adaptive recompile of a skewed predicate chain reorders the plan while
/// staying bit-identical to the static plan on both the interpreter and
/// native backends, while a profiled compile with Adaptive off keeps the
/// static order.
///
//===----------------------------------------------------------------------===//

#include "adapt/Adapt.h"
#include "analysis/Rewrite.h"
#include "expr/Analysis.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
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
using quil::RewriteOptions;
using quil::RewriteResult;
using quil::RewriteRule;
using quil::Sym;

namespace {

E xi() { return param("xi", Type::int64Ty()); }
std::int64_t i64(long long V) { return static_cast<std::int64_t>(V); }

unsigned countRule(const RewriteResult &R, RewriteRule Rule) {
  unsigned N = 0;
  for (const quil::RewriteCertificate &C : R.Certs)
    N += C.Rule == Rule;
  return N;
}

/// A hand-built cumulative snapshot for one Src -> Where -> Ret plan.
/// Counters are cumulative across calls, exactly as the ProfileStore
/// reports them; FeedbackStore::observe folds the deltas.
obs::ProfileSnapshot whereSnap(std::uint64_t PlanHash, std::uint64_t Runs,
                               std::uint64_t In, std::uint64_t Out,
                               std::uint64_t Nanos,
                               std::uint64_t OpId = 0x11) {
  obs::ProfileSnapshot S;
  S.PlanHash = PlanHash;
  S.Name = "fed";
  S.Runs = Runs;
  S.Ops.push_back({"Src", 0, false, 0, 0, In, 0});
  S.Ops.push_back({"Where", 1, true, OpId, In, Out, Nanos});
  S.Ops.push_back({"Ret", 1, false, 0, Out, Out, 0});
  return S;
}

/// OpIds (expr::hashLambda) of the Where predicates in chain order.
std::vector<std::uint64_t> whereOpIds(const Chain &C) {
  std::vector<std::uint64_t> Ids;
  for (const quil::Op &O : C.Ops)
    if (O.S == Sym::Pred && O.P == PredOp::Where)
      Ids.push_back(expr::hashLambda(O.Fn));
  return Ids;
}

} // namespace

//===--------------------------------------------------------------------===//
// Decay math
//===--------------------------------------------------------------------===//

TEST(AdaptDecay, FirstObservationSeedsTheMeansUndecayed) {
  adapt::FeedbackStore FS(/*Alpha=*/0.5, /*MinSamples=*/1);
  auto FB = FS.observe(whereSnap(0xA1, /*Runs=*/1, 100, 50, 1000));
  ASSERT_TRUE(FB.has_value());
  EXPECT_EQ(FB->Runs, 1u);
  ASSERT_EQ(FB->Preds.count(0x11), 1u);
  EXPECT_DOUBLE_EQ(FB->Preds.at(0x11).Sel, 0.5);
  EXPECT_DOUBLE_EQ(FB->Preds.at(0x11).NanosPerRow, 10.0);
  EXPECT_EQ(FB->Preds.at(0x11).Samples, 1u);
}

TEST(AdaptDecay, SecondObservationFoldsTheDeltaWithAlpha) {
  adapt::FeedbackStore FS(/*Alpha=*/0.5, /*MinSamples=*/1);
  FS.observe(whereSnap(0xA2, 1, 100, 50, 1000));
  // Cumulative counters: the new run saw 100 more rows, 80 of which
  // passed, in 2000 more nanoseconds.
  auto FB = FS.observe(whereSnap(0xA2, 2, 200, 130, 3000));
  ASSERT_TRUE(FB.has_value());
  EXPECT_EQ(FB->Runs, 2u);
  // Pred: sel 0.5*0.5 + 0.5*0.8 = 0.65; cost 0.5*10 + 0.5*20 = 15.
  EXPECT_DOUBLE_EQ(FB->Preds.at(0x11).Sel, 0.65);
  EXPECT_DOUBLE_EQ(FB->Preds.at(0x11).NanosPerRow, 15.0);
  EXPECT_EQ(FB->Preds.at(0x11).Samples, 2u);
}

TEST(AdaptDecay, UnchangedCountersFoldNothing) {
  adapt::FeedbackStore FS(0.5, 1);
  FS.observe(whereSnap(0xA3, 1, 100, 50, 1000));
  auto FB = FS.observe(whereSnap(0xA3, 1, 100, 50, 1000));
  ASSERT_TRUE(FB.has_value());
  EXPECT_EQ(FB->Runs, 1u);
  EXPECT_EQ(FB->Preds.at(0x11).Samples, 1u);
}

TEST(AdaptDecay, BackwardsCountersResetTheBaseline) {
  adapt::FeedbackStore FS(0.5, 1);
  FS.observe(whereSnap(0xA4, 5, 500, 250, 5000));
  // The profile store was cleared: cumulative counters went backwards.
  // The entry restarts rather than folding a negative delta.
  auto FB = FS.observe(whereSnap(0xA4, 1, 100, 90, 1000));
  ASSERT_TRUE(FB.has_value());
  EXPECT_EQ(FB->Runs, 1u);
  EXPECT_DOUBLE_EQ(FB->Preds.at(0x11).Sel, 0.9);
  EXPECT_EQ(FB->Preds.at(0x11).Samples, 1u);
}

//===--------------------------------------------------------------------===//
// Minimum-sample gate
//===--------------------------------------------------------------------===//

TEST(AdaptGate, ObservedStatsStayEmptyBelowMinSamples) {
  adapt::FeedbackStore FS(/*Alpha=*/0.3, /*MinSamples=*/3);
  FS.observe(whereSnap(0xB1, 1, 100, 10, 100));
  EXPECT_TRUE(FS.observedStats(0xB1).empty());
  FS.observe(whereSnap(0xB1, 2, 200, 20, 200));
  EXPECT_TRUE(FS.observedStats(0xB1).empty());
  FS.observe(whereSnap(0xB1, 3, 300, 30, 300));
  auto Stats = FS.observedStats(0xB1);
  ASSERT_EQ(Stats.count(0x11), 1u);
  EXPECT_DOUBLE_EQ(Stats.at(0x11).Sel, 0.1);
  EXPECT_GT(Stats.at(0x11).CostNanos, 0.0);
}

TEST(AdaptGate, UntimedPredicatesFallBackToUnitCost) {
  adapt::FeedbackStore FS(0.3, 1);
  obs::ProfileSnapshot S = whereSnap(0xB2, 1, 100, 25, /*Nanos=*/0);
  S.Ops[1].Timed = false;
  FS.observe(S);
  auto Stats = FS.observedStats(0xB2);
  ASSERT_EQ(Stats.count(0x11), 1u);
  EXPECT_DOUBLE_EQ(Stats.at(0x11).Sel, 0.25);
  EXPECT_DOUBLE_EQ(Stats.at(0x11).CostNanos, 1.0);
}

TEST(AdaptGate, UnknownPlanHasNoStats) {
  adapt::FeedbackStore FS(0.3, 1);
  EXPECT_TRUE(FS.observedStats(0xDEAD).empty());
  EXPECT_FALSE(FS.lookup(0xDEAD).has_value());
}

//===--------------------------------------------------------------------===//
// Feedback-driven predicate ranking in the rewriter
//===--------------------------------------------------------------------===//

namespace {

/// Two structurally identical Where preds (equal static cost, equal
/// static selectivity estimate), written in an order only observation
/// can improve.
Query twoPredQuery() {
  return Query::int64Array(0)
      .where(lambda({xi()}, xi() > E(i64(-100)))) // passes almost all
      .where(lambda({xi()}, xi() > E(i64(100))))  // passes almost none
      .sum();
}

} // namespace

TEST(AdaptRank, ObservedRankReordersWhereStaticCannot) {
  Chain C = quil::lower(twoPredQuery());
  ASSERT_FALSE(quil::validate(C).has_value());
  std::vector<std::uint64_t> Ids = whereOpIds(C);
  ASSERT_EQ(Ids.size(), 2u);

  // Static ranking sees two identical preds: the stable sort keeps the
  // written (pessimal) order.
  RewriteResult Static = quil::rewriteChain(C);
  EXPECT_EQ(countRule(Static, RewriteRule::ReorderPreds), 0u);

  // Observed: the second pred is far more selective at equal cost, so
  // rank = (sel - 1) / cost puts it first.
  RewriteOptions RO;
  RO.Observed[Ids[0]] = {/*Sel=*/0.95, /*CostNanos=*/5.0};
  RO.Observed[Ids[1]] = {/*Sel=*/0.05, /*CostNanos=*/5.0};
  RewriteResult R = quil::rewriteChain(C, RO);
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(countRule(R, RewriteRule::ReorderPreds), 1u);
  std::vector<std::uint64_t> After = whereOpIds(R.Rewritten);
  ASSERT_EQ(After.size(), 2u);
  EXPECT_EQ(After[0], Ids[1]);
  EXPECT_EQ(After[1], Ids[0]);

  // The certificate records that observed feedback justified the swap.
  bool SawFeedbackFact = false;
  for (const quil::RewriteCertificate &Cert : R.Certs)
    if (Cert.Rule == RewriteRule::ReorderPreds)
      SawFeedbackFact = Cert.Fact.find("feedback") != std::string::npos;
  EXPECT_TRUE(SawFeedbackFact);
}

TEST(AdaptRank, CheaperPredWinsAtEqualSelectivity) {
  Chain C = quil::lower(twoPredQuery());
  std::vector<std::uint64_t> Ids = whereOpIds(C);
  ASSERT_EQ(Ids.size(), 2u);
  RewriteOptions RO;
  RO.Observed[Ids[0]] = {0.5, /*CostNanos=*/50.0};
  RO.Observed[Ids[1]] = {0.5, /*CostNanos=*/5.0};
  RewriteResult R = quil::rewriteChain(C, RO);
  EXPECT_EQ(countRule(R, RewriteRule::ReorderPreds), 1u);
  EXPECT_EQ(whereOpIds(R.Rewritten)[0], Ids[1]);
}

TEST(AdaptRank, PartialFeedbackFallsBackToStaticRanking) {
  // Observed nanoseconds and static cost units are not commensurable:
  // feedback ranking requires stats for EVERY pred in the run.
  Chain C = quil::lower(twoPredQuery());
  std::vector<std::uint64_t> Ids = whereOpIds(C);
  RewriteOptions RO;
  RO.Observed[Ids[1]] = {0.05, 5.0}; // only one of the two
  RewriteResult R = quil::rewriteChain(C, RO);
  RewriteResult Static = quil::rewriteChain(C);
  EXPECT_EQ(countRule(R, RewriteRule::ReorderPreds),
            countRule(Static, RewriteRule::ReorderPreds));
  EXPECT_EQ(quil::hashChain(R.Rewritten), quil::hashChain(Static.Rewritten));
}

TEST(AdaptRank, FeedbackReorderCertificatesReplayDeterministically) {
  Chain C = quil::lower(twoPredQuery());
  std::vector<std::uint64_t> Ids = whereOpIds(C);
  RewriteOptions RO;
  RO.Observed[Ids[0]] = {0.95, 5.0};
  RO.Observed[Ids[1]] = {0.05, 5.0};
  RewriteResult R = quil::rewriteChain(C, RO);
  ASSERT_TRUE(R.Changed);

  // Replaying with the same observed stats verifies.
  std::string Err;
  EXPECT_TRUE(quil::verifyCertificates(C, R, RO, &Err)) << Err;

  // Replaying with different observed stats (the swap inverted) must
  // fail: the certificate is bound to the feedback that justified it.
  RewriteOptions Tampered;
  Tampered.Observed[Ids[0]] = {0.05, 5.0};
  Tampered.Observed[Ids[1]] = {0.95, 5.0};
  EXPECT_FALSE(quil::verifyCertificates(C, R, Tampered, &Err));
}

//===--------------------------------------------------------------------===//
// End-to-end: skewed preds reorder, results stay bit-identical
//===--------------------------------------------------------------------===//

namespace {

/// Pessimally ordered skew: the first pred passes everything, the
/// second passes a sliver. Only observation can see this.
Query skewedQuery() {
  return Query::int64Array(0)
      .where(lambda({xi()}, xi() >= E(i64(-1)))) // data is >= 0: all pass
      .where(lambda({xi()}, xi() < E(i64(8))))   // sliver passes
      .sum();
}

CompileOptions adaptOpts(Backend Exec, const char *Name) {
  CompileOptions CO;
  CO.Exec = Exec;
  CO.Analyze = analysis::Mode::Off;
  CO.Rewrite = true;
  CO.Profile = true;
  CO.Adaptive = true;
  CO.Name = Name;
  return CO;
}

} // namespace

TEST(AdaptEndToEnd, WarmRecompileReordersAndMatchesStaticBitForBit) {
  obs::ProfileStore::global().clear();
  adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
  FS.clear();

  std::vector<std::int64_t> Data(4096);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::int64_t>(I);
  Bindings B;
  B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));

  Query Q = skewedQuery();

  // Static reference (adaptivity pinned off).
  CompileOptions StaticCO;
  StaticCO.Exec = Backend::Interp;
  StaticCO.Analyze = analysis::Mode::Off;
  StaticCO.Rewrite = true;
  StaticCO.Adaptive = false;
  StaticCO.Name = "adapt_e2e_static";
  QueryResult Want = compileQuery(Q, StaticCO).run(B);

  // Cold adaptive compile: no feedback yet, so no reorder; running it
  // past the min-sample threshold seeds the FeedbackStore.
  CompiledQuery Cold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_e2e_cold"));
  unsigned Warmups =
      static_cast<unsigned>(adapt::FeedbackStore::global().minSamples()) + 1;
  for (unsigned R = 0; R != Warmups; ++R)
    Cold.run(B);

  // Warm recompile: ripe skew feedback reorders the preds under a
  // verified certificate...
  std::uint64_t CertsBefore = obs::counter("adapt.cert_verified").value();
  CompiledQuery Warm =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_e2e_warm"));
  ASSERT_NE(Warm.rewriteResult(), nullptr);
  EXPECT_EQ(countRule(*Warm.rewriteResult(), RewriteRule::ReorderPreds), 1u);
  EXPECT_GT(obs::counter("adapt.cert_verified").value(), CertsBefore);

  // ...and the reordered plan is bit-identical to the static plan.
  QueryResult GotInterp = Warm.run(B);
  ASSERT_EQ(GotInterp.rows().size(), Want.rows().size());
  for (std::size_t I = 0; I != Want.rows().size(); ++I)
    EXPECT_TRUE(GotInterp.rows()[I] == Want.rows()[I]) << "row " << I;

  // Same contract through the native backend.
  CompiledQuery WarmNative =
      compileQuery(Q, adaptOpts(Backend::Native, "adapt_e2e_native"));
  ASSERT_NE(WarmNative.rewriteResult(), nullptr);
  EXPECT_EQ(countRule(*WarmNative.rewriteResult(), RewriteRule::ReorderPreds),
            1u);
  QueryResult GotNative = WarmNative.run(B);
  ASSERT_EQ(GotNative.rows().size(), Want.rows().size());
  for (std::size_t I = 0; I != Want.rows().size(); ++I)
    EXPECT_TRUE(GotNative.rows()[I] == Want.rows()[I]) << "row " << I;

  obs::ProfileStore::global().clear();
  FS.clear();
}

TEST(AdaptEndToEnd, ProfileWithoutAdaptiveKeepsTheStaticOrder) {
  // Observations reach a plan only through the FeedbackStore, and only
  // with Adaptive on: a profiled compile with Adaptive off keeps the
  // static order however much profile the plan has accumulated.
  obs::ProfileStore::global().clear();
  adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
  FS.clear();

  std::vector<std::int64_t> Data(4096);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::int64_t>(I);
  Bindings B;
  B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));

  Query Q = skewedQuery();
  CompiledQuery Cold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_off_cold"));
  unsigned Warmups = static_cast<unsigned>(FS.minSamples()) + 1;
  for (unsigned R = 0; R != Warmups; ++R)
    Cold.run(B);

  CompileOptions ProfiledOnly = adaptOpts(Backend::Interp, "adapt_off_warm");
  ProfiledOnly.Adaptive = false;
  EXPECT_EQ(compileQuery(Q, ProfiledOnly).planHash(), Cold.planHash());

  // Control: the same profile does reorder an adaptive compile.
  CompiledQuery Warm =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_on_warm"));
  ASSERT_NE(Warm.rewriteResult(), nullptr);
  EXPECT_EQ(countRule(*Warm.rewriteResult(), RewriteRule::ReorderPreds), 1u);

  obs::ProfileStore::global().clear();
  FS.clear();
}
