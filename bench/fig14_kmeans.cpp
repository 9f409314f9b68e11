//===- bench/fig14_kmeans.cpp - Reproduces paper Figure 14 -----*- C++ -*-===//
//
// Figure 14 (§7.2): distributed k-means, unoptimized (LINQ vertices) vs
// Steno-optimized, varying the point dimension while holding the total
// input size (points x dimension) constant. The paper holds it at 10^9
// doubles across a 100-node cluster and reports speedups of 1.9x at
// d = 10, 1.19x at d = 100, converging near d = 1000 as the distance
// computation comes to dominate.
//
// Here the dryad substrate runs the same vertex programs over in-memory
// partitions (DESIGN.md documents the substitution); the default total is
// 2*10^7 doubles (scale with STENO_BENCH_SCALE). Reported per-dimension:
// one-iteration times for LINQ vertices, Steno vertices and hand loops,
// plus the LINQ/Steno speedup — the Figure 14 series.
//
// The 8 partitions run on a pool of min(8, hardware threads) workers, so
// no two pool threads contend for a CPU the host does not have. The three
// variants run in 9 interleaved rounds (bench::Rounds); a cell is the
// median of its 9 times with the quartiles beside it.
//
// Gate (CI bench-smoke): exits 1 when LINQ / Steno at d = 10 is below the
// paper's 1.9x, or when Steno / hand exceeds 2.0 at any dimension.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/Dist.h"
#include "dryad/HomomorphicApply.h"
#include "workloads/Kmeans.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace steno;
using namespace steno::bench;
using namespace steno::workloads;

namespace {

/// Rounds of the three variants per dimension.
constexpr int kRounds = 9;
/// The gate: the paper's LINQ / Steno speedup at d = 10 is the floor, and
/// Steno may take at most twice the hand loops' time at any dimension.
constexpr std::int64_t GateDim = 10;
constexpr double MinSpeedupAtGateDim = 1.9;
constexpr double MaxStenoOverHand = 2.0;

} // namespace

int main() {
  const std::int64_t TotalDoubles = scaled(20000000);
  const std::int64_t K = 10; // clusters
  const unsigned Parts = 8; // simulated vertices
  const std::int64_t Dims[] = {5, 10, 20, 50, 100, 200, 500, 1000};
  const unsigned Workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, Parts);

  header("Figure 14: distributed k-means, speedup vs dimension");
  std::printf("total input held constant at %lld doubles "
              "(points x dim); k = %lld; %u partitions on %u workers; "
              "median (quartiles) of %d interleaved rounds; ratios are "
              "medians of per-round ratios\n\n",
              static_cast<long long>(TotalDoubles),
              static_cast<long long>(K), Parts, Workers, kRounds);

  dryad::ThreadPool Pool(Workers);
  JsonReport Json("fig14_kmeans");
  bool Ok = true;

  std::printf("%6s %10s %22s %22s %22s %7s %7s\n", "dim", "points",
              "linq ms (q1-q3)", "steno ms (q1-q3)", "hand ms (q1-q3)",
              "spdup", "vs hand");

  for (std::int64_t Dim : Dims) {
    std::int64_t NumPoints = TotalDoubles / Dim;
    if (NumPoints < K)
      continue;
    KmeansData Data = KmeansData::make(NumPoints, Dim, K, 99);
    std::vector<dryad::DoublePartition> Partitions =
        dryad::partitionPoints(Data.Points, Dim, Parts);

    // Compile the Steno vertex once per dimension (the query embeds the
    // static dim); amortized across the job's iterations as in §7.2.
    dryad::DistOptions Options;
    Options.Name = "kmeans_d" + std::to_string(Dim);
    dryad::DistributedQuery Step =
        dryad::DistributedQuery::compile(buildStepQuery(K, Dim), Options);

    const std::vector<double> &Centroids = Data.Centroids;
    std::vector<Bindings> PartBindings;
    for (const dryad::DoublePartition &P : Partitions) {
      Bindings B;
      B.bindPointArray(0, P.Data.data(), P.count(), Dim);
      B.bindDoubleArray(1, Centroids.data(),
                        static_cast<std::int64_t>(Centroids.size()));
      PartBindings.push_back(std::move(B));
    }

    std::int64_t Items = NumPoints * Dim;
    Rounds R(kRounds);
    int Linq = R.add("linq", Items, [&] { // LINQ vertices
      std::vector<double> Slots = mergePartials(dryad::homomorphicApply(
          Pool, Partitions, [&](const dryad::DoublePartition &P) {
            return linqVertexPartials(P, Centroids, K, Dim);
          }));
      doNotOptimize(Slots[0]);
    });
    int Steno = R.add("steno", Items, [&] { // Steno vertices
      QueryResult Res = Step.run(Pool, PartBindings);
      doNotOptimize(static_cast<std::int64_t>(Res.numRows()));
    });
    int Hand = R.add("hand", Items, [&] { // hand loops
      std::vector<double> Slots = mergePartials(dryad::homomorphicApply(
          Pool, Partitions, [&](const dryad::DoublePartition &P) {
            return handVertexPartials(P, Centroids, K, Dim);
          }));
      doNotOptimize(Slots[0]);
    });
    R.run();
    Json.add(R, "d" + std::to_string(Dim) + "_");

    double Speedup = R.ratio(Linq, Steno);
    double VsHand = R.ratio(Steno, Hand);
    std::printf("%6lld %10lld %22s %22s %22s %6.2fx %6.2fx\n",
                static_cast<long long>(Dim),
                static_cast<long long>(NumPoints),
                msCell(R.summary(Linq)).c_str(),
                msCell(R.summary(Steno)).c_str(),
                msCell(R.summary(Hand)).c_str(), Speedup, VsHand);
    if (Dim == GateDim && Speedup < MinSpeedupAtGateDim) {
      std::fprintf(stderr,
                   "fig14_kmeans: FAIL: LINQ / Steno at d=%lld is %.2fx, "
                   "below the paper's %.1fx\n",
                   static_cast<long long>(Dim), Speedup,
                   MinSpeedupAtGateDim);
      Ok = false;
    }
    if (VsHand > MaxStenoOverHand) {
      std::fprintf(stderr,
                   "fig14_kmeans: FAIL: Steno takes %.2fx the hand loops' "
                   "time at d=%lld, above the %.1f ceiling\n",
                   VsHand, static_cast<long long>(Dim), MaxStenoOverHand);
      Ok = false;
    }
  }

  std::printf("\npaper's Figure 14: 1.9x at d=10, 1.19x at d=100, "
              "converging for d >= 1000 as per-element compute "
              "dominates the iterator overhead\n");
  std::printf("gates: LINQ / Steno at d=%lld >= %.1f; Steno / hand <= %.1f "
              "at every dimension\n",
              static_cast<long long>(GateDim), MinSpeedupAtGateDim,
              MaxStenoOverHand);
  return Ok ? 0 : 1;
}
