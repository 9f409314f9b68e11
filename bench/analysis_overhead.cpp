//===- bench/analysis_overhead.cpp - Cost of the analyze phase -*- C++ -*-===//
//
// Measures what STENO_ANALYZE=strict costs relative to off, on the
// Figure 1 and Figure 13 workloads:
//
//  - run-time ns/op of the compiled query (must be identical: analysis
//    is a pure compile phase and generates no code),
//  - compile-time per compileQuery with the Interp backend (isolates the
//    lower/validate/analyze/rewrite/codegen pipeline from the external
//    JIT compiler, so the analyze and rewrite shares are visible).
//
// Gates: with the plan rewriter ON (the default), the rewrite phase must
// cost at most 10% of the analyze phase on these workloads — they have
// no Pred operators and no int64 divisions, so rewriteChain's no-target
// pre-scan must keep the phase near-free — and Adaptive=true with
// nothing profiled (the idle adaptive hook) must add at most 1% to the
// compile. Each phase cost is the median, over many interleaved rounds,
// of one round's paired difference between two variants, so a noisy
// round moves the median little. The process exits 1 when a budget is
// exceeded.
//
// Results land in BENCH_analysis_overhead.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

CompileOptions opts(analysis::Mode Mode, Backend Exec, const char *Name,
                    bool Rewrite = true, bool Adaptive = false) {
  CompileOptions O;
  O.Analyze = Mode;
  O.Exec = Exec;
  O.Name = Name;
  O.Rewrite = Rewrite;
  O.Adaptive = Adaptive;
  return O;
}

/// Compiles of each variant per round.
constexpr int K = 20;
/// Rounds per workload.
constexpr int Rounds = 400;

/// Best-of seconds for one run of the Native-compiled query.
double runSeconds(const Query &Q, analysis::Mode Mode, const char *Name,
                  const Bindings &B) {
  CompiledQuery CQ = compileQuery(Q, opts(Mode, Backend::Native, Name));
  return bestSeconds([&] {
    doNotOptimize(static_cast<std::int64_t>(CQ.run(B).numRows()));
  });
}

bool measure(JsonReport &Json, const char *Name, const Query &Q,
             const Bindings &B, std::int64_t Items) {
  double RunStrict = runSeconds(Q, analysis::Mode::Strict, Name, B);
  double RunOff = runSeconds(Q, analysis::Mode::Off, Name, B);
  // The compile-time variants whose deltas are gated below:
  //  - Strict:   strict analysis, rewriter on (the default config),
  //  - Off:      analysis off       -> Strict - Off = analyze,
  //  - NoRw:     rewriter off       -> Strict - NoRw = rewrite,
  //  - Adaptive: Adaptive=true with an empty ProfileStore -> Adaptive -
  //              Strict = the idle hook.
  // The truths compared here are hundreds of nanoseconds on ~20us
  // compiles, and the host drifts by more than that within a
  // millisecond. So the variants interleave compile by compile, each
  // step in the next of the 24 orders of the four (every variant takes
  // every position and follows every other equally often), and a
  // round's delta compares the K compiles of each variant made side by
  // side. Each delta is the median over rounds: a preempted compile
  // spoils one round instead of the estimate.
  const CompileOptions Variants[4] = {
      opts(analysis::Mode::Strict, Backend::Interp, Name),
      opts(analysis::Mode::Off, Backend::Interp, Name),
      opts(analysis::Mode::Strict, Backend::Interp, Name,
           /*Rewrite=*/false),
      opts(analysis::Mode::Strict, Backend::Interp, Name, /*Rewrite=*/true,
           /*Adaptive=*/true)};
  std::vector<std::array<int, 4>> Orders;
  std::array<int, 4> Order = {0, 1, 2, 3};
  do
    Orders.push_back(Order);
  while (std::next_permutation(Order.begin(), Order.end()));
  auto compileOnce = [&](int V) {
    support::WallTimer T;
    CompiledQuery CQ = compileQuery(Q, Variants[V]);
    double S = T.seconds();
    doNotOptimize(static_cast<std::int64_t>(CQ.generatedSource().size()));
    return S;
  };
  for (int V = 0; V != 4; ++V)
    compileOnce(V); // warm-up
  std::vector<double> Strict, Analyze, Rewrite, Adapt;
  std::size_t Step = 0;
  for (int Round = 0; Round != Rounds; ++Round) {
    double S[4] = {0, 0, 0, 0};
    for (int I = 0; I != K; ++I, ++Step)
      for (int V : Orders[Step % Orders.size()])
        S[V] += compileOnce(V) / K;
    Strict.push_back(S[0]);
    Analyze.push_back(S[0] - S[1]);
    Rewrite.push_back(S[0] - S[2]);
    Adapt.push_back(S[3] - S[0]);
  }
  double CompStrict = median(Strict);
  double AnalyzeCost = median(Analyze);
  double RewriteCost = median(Rewrite);
  double AdaptCost = median(Adapt);
  double CompOff = CompStrict - AnalyzeCost;
  double CompNoRw = CompStrict - RewriteCost;
  double CompAdapt = CompStrict + AdaptCost;

  std::printf("%-14s run %8.3f / %8.3f ns/op (strict/off, %+5.2f%%)   "
              "compile %8.1f / %8.1f us (analyze share %.1f%%, rewrite "
              "%.1f%% of analyze, idle adaptive hook %+.2f%%)\n",
              Name, RunStrict * 1e9 / static_cast<double>(Items),
              RunOff * 1e9 / static_cast<double>(Items),
              100.0 * (RunStrict / RunOff - 1.0), CompStrict * 1e6,
              CompOff * 1e6, 100.0 * (1.0 - CompOff / CompStrict),
              AnalyzeCost > 0 ? 100.0 * RewriteCost / AnalyzeCost : 0.0,
              100.0 * AdaptCost / CompStrict);

  std::string P = Name;
  Json.add(P + "_run_strict", RunStrict, Items);
  Json.add(P + "_run_off", RunOff, Items);
  Json.add(P + "_compile_strict", CompStrict, 1, Rounds);
  Json.add(P + "_compile_off", CompOff, 1, Rounds);
  Json.add(P + "_compile_strict_norewrite", CompNoRw, 1, Rounds);
  Json.add(P + "_compile_adaptive_idle", CompAdapt, 1, Rounds);

  // Gate only when the analyze phase is measurable at all, and spot each
  // delta a noise floor of 2us over a round's K compiles of a variant.
  const double NoiseFloor = 2e-6 / K;
  if (AnalyzeCost > 1e-6 &&
      RewriteCost > 0.10 * AnalyzeCost + NoiseFloor) {
    std::fprintf(stderr,
                 "analysis_overhead: FAIL %s: rewrite phase is %.1f%% of "
                 "the analyze phase (budget 10%%)\n",
                 Name, 100.0 * RewriteCost / AnalyzeCost);
    return false;
  }
  // The adaptive hook with nothing learned must stay within 1% of the
  // non-adaptive compile (plus the same clock-jitter floor).
  if (AdaptCost > 0.01 * CompStrict + NoiseFloor) {
    std::fprintf(stderr,
                 "analysis_overhead: FAIL %s: idle adaptive hook adds "
                 "%.2f%% to the compile (budget 1%%)\n",
                 Name, 100.0 * AdaptCost / CompStrict);
    return false;
  }
  return true;
}

} // namespace

int main() {
  JsonReport Json("analysis_overhead");
  const std::int64_t N = scaled(10000000);
  std::vector<double> Xs = uniformDoubles(N, 1);
  std::vector<double> Gs = mixtureOfGaussians(scaled(1000000), 2);

  header("Analysis overhead: STENO_ANALYZE=strict vs off");
  bool Ok = true;

  auto X = param("x", Type::doubleTy());
  auto A = param("a", Type::doubleTy());

  // Figure 1: sum of squares.
  Bindings B1;
  B1.bindDoubleArray(0, Xs.data(), N);
  Ok &= measure(Json, "fig01_sumsq",
                Query::doubleArray(0).select(lambda({X}, X * X)).sum(), B1,
                N);

  // Figure 13 Sum.
  Ok &= measure(Json, "fig13_sum", Query::doubleArray(0).sum(), B1, N);

  // Figure 13 Group: binned histogram-style aggregation (dense keys).
  const std::int64_t Bins = 100;
  Bindings B2;
  B2.bindDoubleArray(0, Gs.data(),
                     static_cast<std::int64_t>(Gs.size()));
  Query Group = Query::doubleArray(0).groupByAggregateDense(
      lambda({X}, toInt64(X / 10.0)), E(Bins), E(0.0),
      lambda({A, X}, A + 1.0));
  Ok &= measure(Json, "fig13_group", Group, B2,
                static_cast<std::int64_t>(Gs.size()));

  return Ok ? 0 : 1;
}
