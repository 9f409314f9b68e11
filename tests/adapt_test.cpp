//===- tests/adapt_test.cpp - Feedback-driven adaptive planning -*- C++ -*-===//
///
/// \file
/// Exercises the feedback re-rank of adjacent Where predicates: the
/// observed-run threshold, observed-selectivity ranking in the rewriter
/// (including the all-or-nothing gate and certificate replay), the
/// end-to-end contract that a warm adaptive recompile of a skewed
/// predicate chain reorders the plan while staying bit-identical to the
/// static plan on both the interpreter and native backends, and that a
/// profiled compile with Adaptive off keeps the static order.
///
//===----------------------------------------------------------------------===//

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

  // Observed: the second pred is far more selective at equal static
  // cost, so rank = (sel - 1) / cost puts it first.
  RewriteOptions RO;
  RO.Observed[Ids[0]] = {/*Sel=*/0.95};
  RO.Observed[Ids[1]] = {/*Sel=*/0.05};
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

TEST(AdaptRank, PartialFeedbackFallsBackToStaticRanking) {
  // An observed fraction and a static guess do not rank against each
  // other: feedback ranking requires an observation for EVERY pred in
  // the run.
  Chain C = quil::lower(twoPredQuery());
  std::vector<std::uint64_t> Ids = whereOpIds(C);
  RewriteOptions RO;
  RO.Observed[Ids[1]] = {0.05}; // only one of the two
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
  RO.Observed[Ids[0]] = {0.95};
  RO.Observed[Ids[1]] = {0.05};
  RewriteResult R = quil::rewriteChain(C, RO);
  ASSERT_TRUE(R.Changed);

  // Replaying with the same observed stats verifies.
  std::string Err;
  EXPECT_TRUE(quil::verifyCertificates(C, R, RO, &Err)) << Err;

  // Replaying with different observed stats (the swap inverted) must
  // fail: the certificate is bound to the feedback that justified it.
  RewriteOptions Tampered;
  Tampered.Observed[Ids[0]] = {0.05};
  Tampered.Observed[Ids[1]] = {0.95};
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

/// 0, 1, ..., 4095 bound to source slot 0.
struct Iota4096 {
  std::vector<std::int64_t> Data;
  Bindings B;
  Iota4096() : Data(4096) {
    for (std::size_t I = 0; I != Data.size(); ++I)
      Data[I] = static_cast<std::int64_t>(I);
    B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));
  }
};

unsigned reorders(const CompiledQuery &CQ) {
  return CQ.rewriteResult()
             ? countRule(*CQ.rewriteResult(), RewriteRule::ReorderPreds)
             : 0;
}

} // namespace

TEST(AdaptGate, ObservedStatsStayEmptyBelowMinSamples) {
  // One noisy run never reorders a plan: below quil::MinObservedRuns
  // profiled runs of the anchor, a warm adaptive compile keeps the
  // static order; at the threshold it reorders.
  obs::ProfileStore::global().clear();
  Iota4096 In;
  Query Q = skewedQuery();
  CompiledQuery Cold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_gate_cold"));
  for (std::uint64_t R = 0; R + 1 < quil::MinObservedRuns; ++R)
    Cold.run(In.B);
  CompiledQuery Below =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_gate_below"));
  EXPECT_EQ(reorders(Below), 0u);
  EXPECT_EQ(Below.planHash(), Cold.planHash());

  Cold.run(In.B);
  CompiledQuery AtThreshold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_gate_at"));
  EXPECT_EQ(reorders(AtThreshold), 1u);
  EXPECT_EQ(AtThreshold.anchorHash(), Cold.planHash());
  obs::ProfileStore::global().clear();
}

TEST(AdaptEndToEnd, WarmRecompileReordersAndMatchesStaticBitForBit) {
  obs::ProfileStore::global().clear();
  Iota4096 In;
  Query Q = skewedQuery();

  // Static reference (adaptivity pinned off).
  CompileOptions StaticCO;
  StaticCO.Exec = Backend::Interp;
  StaticCO.Analyze = analysis::Mode::Off;
  StaticCO.Rewrite = true;
  StaticCO.Adaptive = false;
  StaticCO.Name = "adapt_e2e_static";
  QueryResult Want = compileQuery(Q, StaticCO).run(In.B);

  // Cold adaptive compile: no profile yet, so no reorder; running it
  // past the observed-run threshold records the selectivities.
  CompiledQuery Cold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_e2e_cold"));
  EXPECT_EQ(reorders(Cold), 0u);
  for (std::uint64_t R = 0; R <= quil::MinObservedRuns; ++R)
    Cold.run(In.B);

  // Warm recompile: the observed skew reorders the preds under a
  // verified certificate...
  std::uint64_t CertsBefore = obs::counter("adapt.cert_verified").value();
  CompiledQuery Warm =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_e2e_warm"));
  EXPECT_EQ(reorders(Warm), 1u);
  EXPECT_GT(obs::counter("adapt.cert_verified").value(), CertsBefore);

  // ...and the reordered plan is bit-identical to the static plan.
  QueryResult GotInterp = Warm.run(In.B);
  ASSERT_EQ(GotInterp.rows().size(), Want.rows().size());
  for (std::size_t I = 0; I != Want.rows().size(); ++I)
    EXPECT_TRUE(GotInterp.rows()[I] == Want.rows()[I]) << "row " << I;

  // Same contract through the native backend.
  CompiledQuery WarmNative =
      compileQuery(Q, adaptOpts(Backend::Native, "adapt_e2e_native"));
  EXPECT_EQ(reorders(WarmNative), 1u);
  QueryResult GotNative = WarmNative.run(In.B);
  ASSERT_EQ(GotNative.rows().size(), Want.rows().size());
  for (std::size_t I = 0; I != Want.rows().size(); ++I)
    EXPECT_TRUE(GotNative.rows()[I] == Want.rows()[I]) << "row " << I;

  obs::ProfileStore::global().clear();
}

TEST(AdaptEndToEnd, ProfileWithoutAdaptiveKeepsTheStaticOrder) {
  // Observations reach a plan only with Adaptive on: a profiled compile
  // with Adaptive off keeps the static order however much profile the
  // query has accumulated.
  obs::ProfileStore::global().clear();
  Iota4096 In;
  Query Q = skewedQuery();
  CompiledQuery Cold =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_off_cold"));
  for (std::uint64_t R = 0; R <= quil::MinObservedRuns; ++R)
    Cold.run(In.B);

  CompileOptions ProfiledOnly = adaptOpts(Backend::Interp, "adapt_off_warm");
  ProfiledOnly.Adaptive = false;
  EXPECT_EQ(compileQuery(Q, ProfiledOnly).planHash(), Cold.planHash());

  // Control: the same profile does reorder an adaptive compile.
  CompiledQuery Warm =
      compileQuery(Q, adaptOpts(Backend::Interp, "adapt_on_warm"));
  EXPECT_EQ(reorders(Warm), 1u);

  obs::ProfileStore::global().clear();
}
