//===- bench/analysis_overhead.cpp - Cost of the analyze phase -*- C++ -*-===//
//
// Measures what Analyze = Strict costs relative to Off, on the
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
// compile. Each phase cost is the median, over 400 groups of 20
// interleaved rounds, of a group's paired difference between two
// variants, so a noisy group moves the median little. The process exits
// 1 when a budget is exceeded.
//
// Results land in BENCH_analysis_overhead.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

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

/// The compile-time estimator: Groups groups of K rounds, one compile of
/// each variant per round.
constexpr int K = 20;
constexpr int Groups = 400;

/// The mean of each group of K consecutive rounds of \p Seconds.
std::vector<double> groupMeans(const std::vector<double> &Seconds) {
  std::vector<double> Means(Groups, 0.0);
  for (std::size_t I = 0; I != Seconds.size(); ++I)
    Means[I / K] += Seconds[I] / K;
  return Means;
}

bool measure(JsonReport &Json, const char *Name, const Query &Q,
             const Bindings &B, std::int64_t Items) {
  CompiledQuery NativeStrict =
      compileQuery(Q, opts(analysis::Mode::Strict, Backend::Native, Name));
  CompiledQuery NativeOff =
      compileQuery(Q, opts(analysis::Mode::Off, Backend::Native, Name));
  Rounds Run(/*Count=*/5);
  int RunStrict = Run.add("run_strict", Items, [&] {
    doNotOptimize(static_cast<std::int64_t>(NativeStrict.run(B).numRows()));
  });
  int RunOff = Run.add("run_off", Items, [&] {
    doNotOptimize(static_cast<std::int64_t>(NativeOff.run(B).numRows()));
  });
  Run.run();

  // The compile-time variants whose deltas are gated below:
  //  - Strict:   strict analysis, rewriter on (the default config),
  //  - Off:      analysis off       -> Strict - Off = analyze,
  //  - NoRw:     rewriter off       -> Strict - NoRw = rewrite,
  //  - Adaptive: Adaptive=true with an empty ProfileStore -> Adaptive -
  //              Strict = the idle hook.
  // The truths compared here are hundreds of nanoseconds on ~20us
  // compiles, and the host drifts by more than that within a
  // millisecond. So the variants interleave compile by compile, the
  // rounds cycling through all 24 orders of the four (every variant
  // takes every position and follows every other equally often), and a
  // group's delta compares the K compiles of each variant made side by
  // side. Each delta is the median over groups: a preempted compile
  // spoils one group instead of the estimate.
  const CompileOptions Variants[4] = {
      opts(analysis::Mode::Strict, Backend::Interp, Name),
      opts(analysis::Mode::Off, Backend::Interp, Name),
      opts(analysis::Mode::Strict, Backend::Interp, Name,
           /*Rewrite=*/false),
      opts(analysis::Mode::Strict, Backend::Interp, Name, /*Rewrite=*/true,
           /*Adaptive=*/true)};
  const char *VariantNames[4] = {"compile_strict", "compile_off",
                                 "compile_strict_norewrite",
                                 "compile_adaptive_idle"};
  Rounds Compile(K * Groups);
  for (int V = 0; V != 4; ++V)
    Compile.add(VariantNames[V], 1, [&Q, &O = Variants[V]] {
      CompiledQuery CQ = compileQuery(Q, O);
      doNotOptimize(static_cast<std::int64_t>(CQ.generatedSource().size()));
    });
  Compile.run();
  std::vector<double> Means[4];
  for (int V = 0; V != 4; ++V)
    Means[V] = groupMeans(Compile.seconds(V));
  double CompStrict = median(Means[0]);
  double AnalyzeCost = medianDifference(Means[0], Means[1]);
  double RewriteCost = medianDifference(Means[0], Means[2]);
  double AdaptCost = medianDifference(Means[3], Means[0]);
  double CompOff = CompStrict - AnalyzeCost;

  double RunStrictS = Run.summary(RunStrict).Median;
  double RunOffS = Run.summary(RunOff).Median;
  std::printf("%-14s run %8.3f / %8.3f ns/op (strict/off, %+5.2f%%)   "
              "compile %8.1f / %8.1f us (analyze share %.1f%%, rewrite "
              "%.1f%% of analyze, idle adaptive hook %+.2f%%)\n",
              Name, RunStrictS * 1e9 / static_cast<double>(Items),
              RunOffS * 1e9 / static_cast<double>(Items),
              100.0 * (Run.ratio(RunStrict, RunOff) - 1.0), CompStrict * 1e6,
              CompOff * 1e6, 100.0 * AnalyzeCost / CompStrict,
              AnalyzeCost > 0 ? 100.0 * RewriteCost / AnalyzeCost : 0.0,
              100.0 * AdaptCost / CompStrict);

  std::string P = std::string(Name) + "_";
  Json.add(Run, P);
  Json.add(Compile, P);

  // Gate only when the analyze phase is measurable at all, and spot each
  // delta a noise floor of 2us over a group's K compiles of a variant.
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

  header("Analysis overhead: Analyze = Strict vs Off");
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
