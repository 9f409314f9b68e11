//===- bench/profile_overhead.cpp - Cost of the profiling subsystem ------===//
//
// Measures what operator-level profiling (obs::ProfileStore) costs on the
// native backend, per workload:
//
//   baseline  the unprofiled plan's entry function invoked straight
//             through jit::run — the exact machine code of `off`, minus
//             CompiledQuery::run's profiling plumbing (the sink null
//             check and the merge call that never fires)
//   off       CompiledQuery::run of a Profile=false plan. The generated
//             TU is byte-identical to baseline's (no counter arrays, no
//             timers), so any delta is run()-plumbing and noise.
//   on        CompiledQuery::run of a Profile=true plan: stack-local
//             counter/timer accumulation in the generated loop plus one
//             ProfileStore merge per run.
//
// Gate: off must stay within 5% of baseline ("profiling off is free") —
// the process exits 1 when the ratio exceeds 1.05, so
// the bench-smoke CI job fails loudly instead of recording a regression.
// The on/off ratio is reported for information but not gated: timed
// operators pay two clock reads per op invocation by design.
//
// Writes BENCH_profile_overhead.json (see BenchUtil.h JsonReport).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "jit/Jit.h"
#include "obs/Profile.h"
#include "steno/Steno.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

CompileOptions nativeOptions(bool Profile, const std::string &Name) {
  CompileOptions O;
  O.Exec = Backend::Native;
  O.Profile = Profile;
  O.Name = Name;
  return O;
}

struct Workload {
  const char *Name;
  Query Q;
};

/// Rounds of the gated pair (a few ms per call, so a median over many
/// rounds), and of the profiled plan, ~100x slower, in rounds of its own
/// so that it runs next to neither side of the gate.
constexpr int kRounds = 41;
constexpr int kProfiledRounds = 5;

bool measure(const Workload &W, const Bindings &B, std::int64_t Items,
             JsonReport &Json) {
  CompiledQuery Off = compileQuery(W.Q, nativeOptions(false, W.Name));
  CompiledQuery On = compileQuery(W.Q, nativeOptions(true, W.Name));

  // The baseline shares Off's generated TU but skips run()'s plumbing:
  // recompile the identical source and call the entry point directly.
  std::string Err;
  std::unique_ptr<jit::CompiledModule> Module = jit::CompiledModule::compile(
      Off.generatedSource(), Off.program().Name, &Err);
  if (!Module) {
    std::fprintf(stderr, "profile_overhead: baseline compile failed: %s\n",
                 Err.c_str());
    return false;
  }

  Rounds R(kRounds);
  int Base = R.add("baseline", Items, [&] {
    ResultBuilder Out(true, Off.program().ResultType);
    rt::Columns Cols = Out.columns();
    jit::run(Module->entry(), B.sources(), B.values(), Cols);
    doNotOptimize(Cols.Cols[0].Len);
  });
  int OffV = R.add("off", Items, [&] {
    doNotOptimize(Off.run(B).scalarValue().asDouble());
  });
  R.run();
  Rounds Profiled(kProfiledRounds);
  Profiled.add("on", Items, [&] {
    doNotOptimize(On.run(B).scalarValue().asDouble());
  });
  Profiled.run();

  double OffOverhead = R.ratio(OffV, Base) - 1.0;
  double OnMedian = Profiled.summary(0).Median;
  double OffMedian = R.summary(OffV).Median;
  std::printf("  %-10s baseline %8.2f ms   off %8.2f ms (%+5.1f%%)   "
              "on %8.2f ms (%+5.1f%% vs off)\n",
              W.Name, R.summary(Base).Median * 1e3, OffMedian * 1e3,
              100.0 * OffOverhead, OnMedian * 1e3,
              100.0 * (OnMedian / OffMedian - 1.0));
  Json.add(R, std::string(W.Name) + "_");
  Json.add(Profiled, std::string(W.Name) + "_");

  if (OffOverhead > 0.05) {
    std::fprintf(stderr,
                 "profile_overhead: FAIL %s: profiling-off run is %.1f%% "
                 "over baseline (budget 5%%)\n",
                 W.Name, 100.0 * OffOverhead);
    return false;
  }
  return true;
}

} // namespace

int main() {
  header("profiling overhead (native backend)");
  const std::int64_t N = scaled(4000000);
  std::vector<double> Data = uniformDoubles(N, /*Seed=*/42);
  Bindings B;
  B.bindDoubleArray(0, Data.data(), N);

  auto X = param("x", Type::doubleTy());
  Workload Workloads[] = {
      {"sumsq", Query::doubleArray(0).select(lambda({X}, X * X)).sum()},
      {"filter",
       Query::doubleArray(0)
           .where(lambda({X}, X > 500.0))
           .select(lambda({X}, X * 2.0))
           .sum()},
  };

  JsonReport Json("profile_overhead");
  std::printf("  N = %lld doubles per run; baseline and off in %d "
              "interleaved rounds (off's overhead is the median of "
              "per-round ratios), on in %d rounds of its own\n",
              static_cast<long long>(N), kRounds, kProfiledRounds);
  bool Ok = true;
  for (const Workload &W : Workloads)
    Ok = measure(W, B, N, Json) && Ok;

  // Show the artifact the instrumentation buys at this price.
  if (auto Snap = obs::ProfileStore::global().snapshot(
          compileQuery(Workloads[1].Q, nativeOptions(true, "filter"))
              .planHash()))
    std::printf("\n%s", obs::renderExplainAnalyze(*Snap).c_str());

  return Ok ? 0 : 1;
}
