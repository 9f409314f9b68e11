//===- bench/adapt_gain.cpp - Warm-over-cold adaptive planning win -------===//
//
// Measures what feedback-driven predicate reordering buys on a
// skewed-selectivity Where chain written in the pessimal order: three
// structurally identical `x > C` filters where the first passes ~99% of
// the rows, the second ~98% and the third ~1%. The static ranker sees
// three identical costs and selectivity estimates, so the stable sort
// keeps the written order and every row walks all three predicate ASTs.
// After a profiled cold phase records quil::MinObservedRuns runs in the
// ProfileStore, the warm recompile ranks by (observed selectivity - 1) /
// static cost and hoists the 1%-pass filter to the front: ~99% of the
// rows then evaluate one predicate instead of three.
//
// Gate: on the Interp backend — where each surviving predicate costs a
// real per-element AST walk — the warm plan must deliver at least 1.3x
// the cold plan's throughput. The process exits 1
// otherwise, so the bench-smoke CI job fails loudly. Cold is measured
// unprofiled (static plan, adaptivity off) so the ratio isolates the
// plan-order win from profiling overhead.
//
// Writes BENCH_adapt_gain.json (see BenchUtil.h JsonReport).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Rewrite.h"
#include "expr/Dsl.h"
#include "obs/Profile.h"
#include "steno/Steno.h"

#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

E xi() { return param("xi", Type::int64Ty()); }
E ci(long long V) { return E(static_cast<std::int64_t>(V)); }

/// Pessimal written order over uniform [0, 9999] data: pass-~99%,
/// pass-~98%, pass-~1%. All three are the same `x > C` template, so the
/// static cost model cannot tell them apart.
Query skewedPredChain() {
  return Query::int64Array(0)
      .where(lambda({xi()}, xi() > ci(99)))
      .where(lambda({xi()}, xi() > ci(199)))
      .where(lambda({xi()}, xi() > ci(9899)))
      .sum();
}

/// Rounds of the cold and the warm plan.
constexpr int kRounds = 9;

CompileOptions opts(bool Adaptive, bool Profile, const char *Name) {
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Analyze = analysis::Mode::Off;
  O.Rewrite = true;
  O.Adaptive = Adaptive;
  O.Profile = Profile;
  O.Name = Name;
  return O;
}

unsigned reorders(const CompiledQuery &CQ) {
  if (!CQ.rewriteResult())
    return 0;
  unsigned N = 0;
  for (const quil::RewriteCertificate &C : CQ.rewriteResult()->Certs)
    N += C.Rule == quil::RewriteRule::ReorderPreds;
  return N;
}

} // namespace

int main() {
  header("adaptive planning warm-over-cold gain (skewed pred chain)");
  const std::int64_t N = scaled(2000000);
  std::vector<std::int64_t> Data(static_cast<std::size_t>(N));
  std::mt19937_64 Rng(11);
  std::uniform_int_distribution<std::int64_t> Dist(0, 9999);
  for (auto &V : Data)
    V = Dist(Rng);
  Bindings B;
  B.bindInt64Array(0, Data.data(), N);

  obs::ProfileStore::global().clear();

  JsonReport Json("adapt_gain");
  Query Q = skewedPredChain();

  // Cold: the static plan in the written (pessimal) order.
  CompiledQuery Cold = compileQuery(Q, opts(false, false, "adapt_cold"));

  // Seed: profiled adaptive runs past the observed-run threshold (not
  // timed — this is the learning phase the warm compile consumes).
  CompiledQuery Seed = compileQuery(Q, opts(true, true, "adapt_seed"));
  std::uint64_t SeedRuns = quil::MinObservedRuns + 1;
  for (std::uint64_t I = 0; I != SeedRuns; ++I)
    doNotOptimize(Seed.run(B).scalarValue().asInt64());

  // Warm: recompile with feedback; the observed ranks must reorder.
  CompiledQuery Warm = compileQuery(Q, opts(true, false, "adapt_warm"));
  if (reorders(Warm) == 0) {
    std::fprintf(stderr, "adapt_gain: FAIL warm recompile did not reorder "
                         "the predicate chain\n");
    return 1;
  }

  Rounds R(kRounds);
  int ColdV = R.add("interp_cold", N, [&] {
    doNotOptimize(Cold.run(B).scalarValue().asInt64());
  });
  int WarmV = R.add("interp_warm", N, [&] {
    doNotOptimize(Warm.run(B).scalarValue().asInt64());
  });
  R.run();
  Json.add(R);

  double Gain = R.ratio(ColdV, WarmV);
  std::printf("  cold %s ms   warm %s ms   throughput gain %.2fx (median "
              "of %d per-round ratios; %llu seed runs)\n",
              msCell(R.summary(ColdV)).c_str(),
              msCell(R.summary(WarmV)).c_str(), Gain, kRounds,
              static_cast<unsigned long long>(SeedRuns));

  if (Gain < 1.3) {
    std::fprintf(stderr,
                 "adapt_gain: FAIL warm-over-cold throughput %.2fx is "
                 "below the 1.3x budget\n",
                 Gain);
    return 1;
  }
  return 0;
}
