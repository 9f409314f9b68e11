//===- bench/par_skew.cpp - Static partitioning vs work stealing -*- C++ -*-===//
//
// The motivating measurement for the morsel scheduler (dryad/Morsel.h):
// a static Partitioner (paper §6, plinq::partitionSpan) makes the whole
// fan-out wait on the slowest chunk at the join barrier, so a skewed
// per-element cost caps the speedup near #workers / skew-factor. The
// work-stealing scheduler rebalances at morsel granularity and should
// approach linear speedup on the same input.
//
// Workload: sum of spin(x), where spin's iteration count depends on the
// element value — "heavy" elements cost ~16x a light one. Two inputs
// with IDENTICAL total work:
//
//   uniform   heavy elements scattered evenly (every 8th)
//   skewed    all heavy elements contiguous at the front (first N/8)
//
// Variants, at 1/2/4/8 workers:
//
//   static    partitionSpan into W chunks + homomorphicApply (barrier)
//   steal     plinq::asParallel morsel dispatch (work stealing)
//
// BENCH_par_skew.json rows are named <variant>_<input>_w<W>.
//
// Gate, at 8 workers: the process exits 1 when stealing beats static
// partitioning on the skewed input by less than 1.5x, costs more than 5%
// over static on the uniform input, or scales the skewed input by less
// than 2.0x from 1 to 8 workers. The bounds need ~4+ hardware threads
// to manifest: on fewer, the 8 static chunks timeshare (the OS scheduler
// implicitly rebalances them), so the gate is skipped there.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/HomomorphicApply.h"
#include "dryad/ThreadPool.h"
#include "plinq/Plinq.h"

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace steno;
using namespace steno::bench;

namespace {

constexpr int LightIters = 24;
constexpr int HeavyIters = 384; // 16x a light element

/// A value-dependent compute kernel the optimizer cannot collapse.
/// Elements >= 0.5 are the heavy ones.
inline double spin(double X) {
  int Iters = X >= 0.5 ? HeavyIters : LightIters;
  double V = X;
  for (int I = 0; I < Iters; ++I)
    V = V * 1.0000001 + 1e-9;
  return V;
}

/// Light values in [0, 0.5); positions selected by \p Heavy get +0.5.
std::vector<double> makeInput(std::int64_t N, bool Skewed) {
  support::SplitMix64 Rng(97);
  std::vector<double> Out(static_cast<std::size_t>(N));
  for (std::size_t I = 0; I != Out.size(); ++I) {
    double V = Rng.nextDouble(0.0, 0.5);
    bool Heavy = Skewed ? (I < Out.size() / 8) : (I % 8 == 0);
    Out[I] = Heavy ? V + 0.5 : V;
  }
  return Out;
}

struct Span {
  const double *Data;
  std::size_t N;
};

/// Static baseline: one chunk per worker, barrier at the join.
double staticSum(dryad::ThreadPool &Pool, const std::vector<double> &Xs,
                 unsigned Parts) {
  std::vector<Span> Spans;
  std::size_t Base = Xs.size() / Parts;
  std::size_t Extra = Xs.size() % Parts;
  std::size_t Pos = 0;
  for (unsigned P = 0; P != Parts; ++P) {
    std::size_t Len = Base + (P < Extra ? 1 : 0);
    Spans.push_back(Span{Xs.data() + Pos, Len});
    Pos += Len;
  }
  std::vector<double> Partials =
      dryad::homomorphicApply(Pool, Spans, [](const Span &S) {
        double T = 0;
        for (std::size_t I = 0; I != S.N; ++I)
          T += spin(S.Data[I]);
        return T;
      });
  double Total = 0;
  for (double V : Partials)
    Total += V;
  return Total;
}

/// Morsel-driven: dynamic dispatch with stealing.
double stealSum(dryad::ThreadPool &Pool, const std::vector<double> &Xs) {
  return plinq::asParallel(Pool, Xs)
      .select([](double X) { return spin(X); })
      .sum();
}

} // namespace

int main() {
  const std::int64_t N = scaled(1 << 20);
  const unsigned WorkerCounts[] = {1, 2, 4, 8};
  std::vector<double> Uniform = makeInput(N, /*Skewed=*/false);
  std::vector<double> Skewed = makeInput(N, /*Skewed=*/true);

  JsonReport Report("par_skew");
  header("Static partitioning vs work stealing under skew, " +
         std::to_string(N) + " elements (heavy:light cost " +
         std::to_string(HeavyIters / LightIters) + ":1, 1/8 heavy)");

  std::map<std::string, double> Seconds; // by BENCH row name
  std::printf("\n%-8s %-9s %12s %12s %10s\n", "input", "workers",
              "static (ms)", "steal (ms)", "steal/static");
  for (const char *InputName : {"uniform", "skew"}) {
    const std::vector<double> &Xs =
        std::string(InputName) == "uniform" ? Uniform : Skewed;
    for (unsigned W : WorkerCounts) {
      dryad::ThreadPool Pool(W);
      double StaticS =
          bestSeconds([&] { doNotOptimize(staticSum(Pool, Xs, W)); });
      double StealS =
          bestSeconds([&] { doNotOptimize(stealSum(Pool, Xs)); });
      std::string Suffix = std::string(InputName) + "_w" + std::to_string(W);
      Report.add("static_" + Suffix, StaticS, N);
      Report.add("steal_" + Suffix, StealS, N);
      Seconds["static_" + Suffix] = StaticS;
      Seconds["steal_" + Suffix] = StealS;
      std::printf("%-8s %-9u %12.1f %12.1f %9.2fx\n", InputName, W,
                  StaticS * 1e3, StealS * 1e3, StaticS / StealS);
    }
  }
  std::printf("\n(static speedup on the skewed input caps near "
              "W/(1 + (W-1)/8's share of the heavy chunk); stealing "
              "should stay near-linear.)\n");

  unsigned Cpus = std::thread::hardware_concurrency();
  if (Cpus < 4) {
    std::printf("par_skew: gate skipped: %u hardware thread(s); the "
                "8-worker bounds need ~4+ (fewer timeshare the static "
                "chunks, implicitly rebalancing them)\n",
                Cpus);
    return 0;
  }
  double SkewSpeedup = Seconds["static_skew_w8"] / Seconds["steal_skew_w8"];
  double UniformOverhead =
      Seconds["steal_uniform_w8"] / Seconds["static_uniform_w8"] - 1.0;
  // Same input and work at both worker counts, so the seconds ratio is
  // the rows/s ratio.
  double SkewScaling = Seconds["steal_skew_w1"] / Seconds["steal_skew_w8"];
  std::printf("par_skew: skew speedup (steal vs static, 8 workers) %.2fx "
              "(floor 1.5x); uniform overhead %+.1f%% (ceiling +5%%); "
              "skew scaling (steal, 1 -> 8 workers) %.2fx (floor 2.0x)\n",
              SkewSpeedup, UniformOverhead * 100.0, SkewScaling);
  bool Ok = true;
  if (SkewSpeedup < 1.5) {
    std::fprintf(stderr, "par_skew: FAIL: work stealing no longer beats "
                         "static partitioning under skew by 1.5x\n");
    Ok = false;
  }
  if (UniformOverhead > 0.05) {
    std::fprintf(stderr, "par_skew: FAIL: morsel dispatch costs more than "
                         "5%% over static partitioning on uniform input\n");
    Ok = false;
  }
  if (SkewScaling < 2.0) {
    std::fprintf(stderr, "par_skew: FAIL: work stealing scales the skewed "
                         "input less than 2.0x from 1 to 8 workers\n");
    Ok = false;
  }
  return Ok ? 0 : 1;
}
