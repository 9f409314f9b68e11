//===- bench/rewrite_gain.cpp - Run-time win from the plan rewriter ------===//
//
// Measures what Rewrite = true buys on a dead-predicate-heavy query:
// three filters that are provably always-true by interval reasoning
// (x % 8 < 8, abs(x % 3) >= 0, x % 5 <= 4), a Skip 0, and a division
// whose divisor interval [1, 7] lets the rewriter elide the ckdiv trap.
// The rewriter reduces the plan to Src -> Select -> Agg; the unrewritten
// plan evaluates every predicate per element and keeps the trap check.
//
// Gate: on the Interp backend — where each surviving operator costs a
// real per-element AST walk, so the plan-level win is isolated from the
// C++ optimizer — rewrite-on must be at least 20% faster than
// rewrite-off. The process exits 1 otherwise, so the bench-smoke CI job
// fails loudly. The Native-backend ratio is reported
// for information: g++ -O2 folds constant-true predicates on its own, so
// the native win is smaller by design.
//
// Writes BENCH_rewrite_gain.json (see BenchUtil.h JsonReport).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

E xi() { return param("xi", Type::int64Ty()); }
E ci(long long V) { return E(static_cast<std::int64_t>(V)); }

/// The dead-pred-heavy pipeline. Every Where is provably true for every
/// int64 element (the facts need interval reasoning, not just literal
/// folding), Skip 0 is a provable no-op, and the Select divisor
/// 1 + abs(xi % 7) has interval [1, 7].
Query deadPredHeavy() {
  return Query::int64Array(0)
      .where(lambda({xi()}, (xi() % ci(8)) < ci(8)))
      .where(lambda({xi()}, abs(xi() % ci(3)) >= ci(0)))
      .skip(ci(0))
      .where(lambda({xi()}, (xi() % ci(5)) <= ci(4)))
      .select(lambda({xi()}, xi() / (ci(1) + abs(xi() % ci(7)))))
      .sum();
}

CompileOptions opts(Backend Exec, bool Rewrite, const char *Name) {
  CompileOptions O;
  O.Exec = Exec;
  O.Rewrite = Rewrite;
  O.Analyze = analysis::Mode::Off; // isolate run time from diagnostics
  O.Name = Name;
  return O;
}

/// Rounds of the four variants.
constexpr int kRounds = 5;

} // namespace

int main() {
  header("plan-rewriter run-time gain (dead-pred-heavy query)");
  const std::int64_t N = scaled(2000000);
  std::vector<std::int64_t> Data(static_cast<std::size_t>(N));
  std::mt19937_64 Rng(7);
  std::uniform_int_distribution<std::int64_t> Dist(-1000, 1000);
  for (auto &V : Data)
    V = Dist(Rng);
  Bindings B;
  B.bindInt64Array(0, Data.data(), N);

  JsonReport Json("rewrite_gain");
  Query Q = deadPredHeavy();

  CompiledQuery Compiled[4] = {
      compileQuery(Q, opts(Backend::Interp, true, "rw_gain_i_on")),
      compileQuery(Q, opts(Backend::Interp, false, "rw_gain_i_off")),
      compileQuery(Q, opts(Backend::Native, true, "rw_gain_n_on")),
      compileQuery(Q, opts(Backend::Native, false, "rw_gain_n_off"))};
  const char *Names[4] = {"interp_rewrite_on", "interp_rewrite_off",
                          "native_rewrite_on", "native_rewrite_off"};
  Rounds R(kRounds);
  for (int V = 0; V != 4; ++V)
    R.add(Names[V], N, [&CQ = Compiled[V], &B] {
      doNotOptimize(CQ.run(B).scalarValue().asInt64());
    });
  R.run();
  Json.add(R);

  double InterpGain = 1.0 - R.ratio(0, 1);
  double NativeGain = 1.0 - R.ratio(2, 3);
  std::printf("  interp  on %8.2f ms   off %8.2f ms   gain %5.1f%%\n",
              R.summary(0).Median * 1e3, R.summary(1).Median * 1e3,
              100.0 * InterpGain);
  std::printf("  native  on %8.2f ms   off %8.2f ms   gain %5.1f%%\n",
              R.summary(2).Median * 1e3, R.summary(3).Median * 1e3,
              100.0 * NativeGain);
  std::printf("  (medians of %d interleaved rounds; gains from the median "
              "of per-round ratios)\n",
              kRounds);

  if (InterpGain < 0.20) {
    std::fprintf(stderr,
                 "rewrite_gain: FAIL interp gain %.1f%% is below the 20%% "
                 "budget\n",
                 100.0 * InterpGain);
    return 1;
  }
  return 0;
}
