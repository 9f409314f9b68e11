//===- bench/profile_overhead.cpp - Cost of the profiling subsystem ------===//
//
// Measures what operator-level profiling (obs::ProfileStore) costs on the
// native backend, per workload: sumsq (Figure 1's sum of squares), filter
// (a guarded sum) and takewhile (an ascending input whose TakeWhile ends
// the loop halfway, then a sum; a profiled plan must stop where the
// unprofiled one does):
//
//   baseline  the unprofiled plan's entry function invoked straight
//             through jit::run — the exact machine code of `off`, minus
//             CompiledQuery::run's profiling plumbing (the sink null
//             check and the merge call that never fires)
//   off       CompiledQuery::run of a Profile=false plan. The generated
//             TU is byte-identical to baseline's (no counter array), so
//             any delta is run()-plumbing and noise.
//   on        CompiledQuery::run of a Profile=true plan: the same loop
//             plus row counters in a stack-local array (a guarded sum
//             adds its guard to them), flushed once per run, and one
//             ProfileStore merge per run. No clock is read.
//
// All three run in the same interleaved rounds. Gates, on the median of
// the per-round ratios: off must stay within 5% of baseline ("profiling
// off is free") and on within 10% of off ("profiling on is cheap"). The
// process exits 1 when either bound is exceeded on any workload, so
// the bench-smoke CI job fails loudly instead of recording a regression.
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
#include <vector>

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
  const Bindings *B;
  std::int64_t Items; ///< Elements one run reads.
};

/// Rounds of the three variants. A call takes a few ms, and on a shared
/// host a single round's ratio spreads by ±10% or more, so the gates
/// read the median of many rounds: the filter's on/off of ~1.06 sits
/// close to its 1.10 bound.
constexpr int kRounds = 201;

/// The gates' ceilings on off / baseline and on / off.
constexpr double MaxOffOverBaseline = 1.05;
constexpr double MaxOnOverOff = 1.10;

bool measure(const Workload &W, JsonReport &Json) {
  const Bindings &B = *W.B;
  std::int64_t Items = W.Items;
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
  int OnV = R.add("on", Items, [&] {
    doNotOptimize(On.run(B).scalarValue().asDouble());
  });
  R.run();

  double OffRatio = R.ratio(OffV, Base);
  double OnRatio = R.ratio(OnV, OffV);
  std::printf("  %-10s baseline %8.2f ms   off %8.2f ms (%5.3fx)   "
              "on %8.2f ms (%5.3fx off)\n",
              W.Name, R.summary(Base).Median * 1e3,
              R.summary(OffV).Median * 1e3, OffRatio,
              R.summary(OnV).Median * 1e3, OnRatio);
  Json.add(R, std::string(W.Name) + "_");

  bool Ok = true;
  if (OffRatio > MaxOffOverBaseline) {
    std::fprintf(stderr,
                 "profile_overhead: FAIL %s: profiling-off run is %.3fx "
                 "baseline (gate: <= %.2f)\n",
                 W.Name, OffRatio, MaxOffOverBaseline);
    Ok = false;
  }
  if (OnRatio > MaxOnOverOff) {
    std::fprintf(stderr,
                 "profile_overhead: FAIL %s: profiled run is %.3fx the "
                 "unprofiled run (gate: <= %.2f)\n",
                 W.Name, OnRatio, MaxOnOverOff);
    Ok = false;
  }
  return Ok;
}

} // namespace

int main() {
  header("profiling overhead (native backend)");
  const std::int64_t N = scaled(4000000);
  std::vector<double> Data = uniformDoubles(N, /*Seed=*/42);
  Bindings B;
  B.bindDoubleArray(0, Data.data(), N);
  std::vector<double> Asc(static_cast<std::size_t>(N));
  for (std::int64_t I = 0; I != N; ++I)
    Asc[static_cast<std::size_t>(I)] = static_cast<double>(I);
  Bindings BAsc;
  BAsc.bindDoubleArray(0, Asc.data(), N);

  auto X = param("x", Type::doubleTy());
  const double Half = static_cast<double>(N / 2);
  Workload Workloads[] = {
      {"sumsq", Query::doubleArray(0).select(lambda({X}, X * X)).sum(), &B,
       N},
      {"filter",
       Query::doubleArray(0)
           .where(lambda({X}, X > 500.0))
           .select(lambda({X}, X * 2.0))
           .sum(),
       &B, N},
      {"takewhile",
       Query::doubleArray(0).takeWhile(lambda({X}, X < Half)).sum(), &BAsc,
       N / 2 + 1},
  };

  JsonReport Json("profile_overhead");
  std::printf("  N = %lld doubles per run; baseline, off and on in %d "
              "interleaved rounds; ratios are medians of per-round ratios "
              "(gates: off <= %.2fx baseline, on <= %.2fx off)\n",
              static_cast<long long>(N), kRounds, MaxOffOverBaseline,
              MaxOnOverOff);
  bool Ok = true;
  for (const Workload &W : Workloads)
    Ok = measure(W, Json) && Ok;

  // Show the artifact the instrumentation buys at this price.
  if (auto Snap = obs::ProfileStore::global().snapshot(
          compileQuery(Workloads[1].Q, nativeOptions(true, "filter"))
              .planHash()))
    std::printf("\n%s", obs::renderExplainAnalyze(*Snap).c_str());

  return Ok ? 0 : 1;
}
