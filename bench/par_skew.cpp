//===- bench/par_skew.cpp - Static partitioning vs morsels -----*- C++ -*-===//
//
// The motivating measurement for the morsel scheduler (dryad/Morsel.h):
// a static Partitioner (paper §6, plinq::partitionSpan) makes the whole
// fan-out wait on the slowest chunk at the join barrier, so a skewed
// per-element cost caps the speedup near #workers / skew-factor. Morsel
// dispatch hands out small ranges to whichever worker is free and should
// approach linear speedup on the same input.
//
// Workload: sum of spin(x), where spin's iteration count depends on the
// element value — "heavy" elements cost ~16x a light one. Two inputs
// with IDENTICAL total work:
//
//   uniform   heavy elements scattered evenly (every 8th)
//   skewed    all heavy elements contiguous at the front (first N/8)
//
// Variants, at 1/2/4/8 workers, both running the same linq chain
// select(spin).sum() over their ranges, so they differ only in dispatch:
//
//   static    partitionSpan into W chunks + homomorphicApply (barrier)
//   morsel    plinq::asParallel, morsels claimed from dryad::morselFor
//
// All sixteen cells run in 15 interleaved rounds (bench::Rounds), a
// cell's two variants registered side by side, and each bound below is
// checked on the median over the rounds of that round's ratio, so a
// preempted run spoils one round instead of the verdict.
// BENCH_par_skew.json rows are named <variant>_<input>_w<W>.
//
// Gate, at 8 workers: the process exits 1 when morsel dispatch beats
// static partitioning on the skewed input by less than 1.5x, costs more
// than 5% over static on the uniform input, or scales the skewed input
// by less than 2.0x from 1 to 8 workers. The bounds need ~4+ hardware
// threads to manifest: on fewer, the 8 static chunks timeshare (the OS
// scheduler implicitly rebalances them), so the gate is skipped there.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/HomomorphicApply.h"
#include "dryad/ThreadPool.h"
#include "plinq/Plinq.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace steno;
using namespace steno::bench;

namespace {

constexpr int LightIters = 24;
constexpr int HeavyIters = 384; // 16x a light element
constexpr int kRounds = 15;

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

/// Static baseline: one chunk per worker, barrier at the join.
double staticSum(dryad::ThreadPool &Pool, const std::vector<double> &Xs) {
  std::vector<double> Partials = dryad::homomorphicApply(
      Pool, plinq::partitionSpan(Xs.data(), Xs.size(), Pool.workerCount()),
      [](const linq::Seq<double> &Chunk) {
        return Chunk.select([](double X) { return spin(X); }).sum();
      });
  double Total = 0;
  for (double V : Partials)
    Total += V;
  return Total;
}

/// Morsel-driven: dynamic dispatch from the shared claim cursor.
double morselSum(dryad::ThreadPool &Pool, const std::vector<double> &Xs) {
  return plinq::asParallel(Pool, Xs)
      .select([](double X) { return spin(X); })
      .sum();
}

} // namespace

int main() {
  const std::int64_t N = scaled(1 << 20);
  const unsigned WorkerCounts[] = {1, 2, 4, 8};
  const std::map<std::string, std::vector<double>> Inputs = {
      {"uniform", makeInput(N, /*Skewed=*/false)},
      {"skew", makeInput(N, /*Skewed=*/true)}};
  std::map<unsigned, std::unique_ptr<dryad::ThreadPool>> Pools;
  for (unsigned W : WorkerCounts)
    Pools[W] = std::make_unique<dryad::ThreadPool>(W);

  header("Static partitioning vs morsel dispatch under skew, " +
         std::to_string(N) + " elements (heavy:light cost " +
         std::to_string(HeavyIters / LightIters) + ":1, 1/8 heavy), " +
         std::to_string(kRounds) + " interleaved rounds");

  // Variant indices by BENCH row name.
  std::map<std::string, int> Cell;
  Rounds R(kRounds);
  for (const auto &[InputName, Xs] : Inputs)
    for (unsigned W : WorkerCounts) {
      dryad::ThreadPool *Pool = Pools[W].get();
      const std::vector<double> *In = &Xs;
      std::string Suffix = InputName + "_w" + std::to_string(W);
      Cell["static_" + Suffix] = R.add("static_" + Suffix, N, [Pool, In] {
        doNotOptimize(staticSum(*Pool, *In));
      });
      Cell["morsel_" + Suffix] = R.add("morsel_" + Suffix, N, [Pool, In] {
        doNotOptimize(morselSum(*Pool, *In));
      });
    }
  R.run();
  JsonReport Report("par_skew");
  Report.add(R);

  // Median over rounds of the per-round ratio of two cells.
  auto ratio = [&](const std::string &Num, const std::string &Den) {
    return R.ratio(Cell.at(Num), Cell.at(Den));
  };
  std::printf("\n%-8s %-9s %12s %12s %14s\n", "input", "workers",
              "static (ms)", "morsel (ms)", "morsel/static");
  for (const auto &[InputName, Xs] : Inputs)
    for (unsigned W : WorkerCounts) {
      std::string Suffix = InputName + "_w" + std::to_string(W);
      std::printf("%-8s %-9u %12.1f %12.1f %13.3fx\n", InputName.c_str(), W,
                  R.summary(Cell.at("static_" + Suffix)).Median * 1e3,
                  R.summary(Cell.at("morsel_" + Suffix)).Median * 1e3,
                  ratio("morsel_" + Suffix, "static_" + Suffix));
    }
  std::printf("\n(medians over %d rounds; static speedup on the skewed "
              "input caps near W/(1 + (W-1)/8's share of the heavy chunk); "
              "morsel dispatch should stay near-linear.)\n",
              kRounds);

  unsigned Cpus = std::thread::hardware_concurrency();
  if (Cpus < 4) {
    std::printf("par_skew: gate skipped: %u hardware thread(s); the "
                "8-worker bounds need ~4+ (fewer timeshare the static "
                "chunks, implicitly rebalancing them)\n",
                Cpus);
    return 0;
  }
  double SkewSpeedup = ratio("static_skew_w8", "morsel_skew_w8");
  double UniformOverhead =
      ratio("morsel_uniform_w8", "static_uniform_w8") - 1.0;
  // Same input and work at both worker counts, so the seconds ratio is
  // the rows/s ratio.
  double SkewScaling = ratio("morsel_skew_w1", "morsel_skew_w8");
  std::printf("par_skew: medians of per-round ratios: skew speedup (morsel "
              "vs static, 8 workers) %.2fx (floor 1.5x); uniform overhead "
              "%+.1f%% (ceiling +5%%); skew scaling (morsel, 1 -> 8 "
              "workers) %.2fx (floor 2.0x)\n",
              SkewSpeedup, UniformOverhead * 100.0, SkewScaling);
  bool Ok = true;
  if (SkewSpeedup < 1.5) {
    std::fprintf(stderr, "par_skew: FAIL: morsel dispatch no longer beats "
                         "static partitioning under skew by 1.5x\n");
    Ok = false;
  }
  if (UniformOverhead > 0.05) {
    std::fprintf(stderr, "par_skew: FAIL: morsel dispatch costs more than "
                         "5%% over static partitioning on uniform input\n");
    Ok = false;
  }
  if (SkewScaling < 2.0) {
    std::fprintf(stderr, "par_skew: FAIL: morsel dispatch scales the skewed "
                         "input less than 2.0x from 1 to 8 workers\n");
    Ok = false;
  }
  return Ok ? 0 : 1;
}
