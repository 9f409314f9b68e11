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
// no two pool threads contend for a CPU the host does not have. Each
// variant is warmed up once, then the three run in turn for 9 rounds, so
// a drift in the host's speed hits all three alike; a cell is the median
// of its 9 times with the quartiles beside it. (Best-of-2 on an 8-thread
// pool over 4 vCPUs spread the d=1000 Steno cell over 62-118 ms.)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/Dist.h"
#include "dryad/HomomorphicApply.h"
#include "workloads/Kmeans.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

using namespace steno;
using namespace steno::bench;
using namespace steno::workloads;

namespace {

/// Rounds of the three variants per dimension.
constexpr int kRounds = 9;

/// The quartiles of \p Xs (sorted in place), linearly interpolated.
struct Quartiles {
  double Q1, Median, Q3;
};

Quartiles quartiles(std::vector<double> &Xs) {
  std::sort(Xs.begin(), Xs.end());
  auto at = [&](double Q) {
    double Pos = Q * static_cast<double>(Xs.size() - 1);
    std::size_t Lo = static_cast<std::size_t>(Pos);
    std::size_t Hi = std::min(Lo + 1, Xs.size() - 1);
    return Xs[Lo] + (Pos - static_cast<double>(Lo)) * (Xs[Hi] - Xs[Lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// "median (q1-q3)" in milliseconds.
std::string cell(const Quartiles &Q) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.1f (%.1f-%.1f)", Q.Median * 1e3,
                Q.Q1 * 1e3, Q.Q3 * 1e3);
  return Buf;
}

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
              "median (quartiles) of %d interleaved rounds\n\n",
              static_cast<long long>(TotalDoubles),
              static_cast<long long>(K), Parts, Workers, kRounds);

  dryad::ThreadPool Pool(Workers);

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

    const std::function<void()> Variants[3] = {
        [&] { // LINQ vertices
          std::vector<double> Slots =
              mergePartials(dryad::homomorphicApply(
                  Pool, Partitions,
                  [&](const dryad::DoublePartition &P) {
                    return linqVertexPartials(P, Centroids, K, Dim);
                  }));
          doNotOptimize(Slots[0]);
        },
        [&] { // Steno vertices
          QueryResult R = Step.run(Pool, PartBindings);
          doNotOptimize(R.numRows());
        },
        [&] { // hand loops
          std::vector<double> Slots =
              mergePartials(dryad::homomorphicApply(
                  Pool, Partitions,
                  [&](const dryad::DoublePartition &P) {
                    return handVertexPartials(P, Centroids, K, Dim);
                  }));
          doNotOptimize(Slots[0]);
        }};
    std::vector<double> Times[3];
    for (const std::function<void()> &Run : Variants)
      Run(); // warm-up: page faults, code fill
    for (int Round = 0; Round != kRounds; ++Round)
      for (int V = 0; V != 3; ++V) {
        support::WallTimer T;
        Variants[V]();
        Times[V].push_back(T.seconds());
      }
    Quartiles Linq = quartiles(Times[0]);
    Quartiles Steno = quartiles(Times[1]);
    Quartiles Hand = quartiles(Times[2]);

    std::printf("%6lld %10lld %22s %22s %22s %6.2fx %6.2fx\n",
                static_cast<long long>(Dim),
                static_cast<long long>(NumPoints), cell(Linq).c_str(),
                cell(Steno).c_str(), cell(Hand).c_str(),
                Linq.Median / Steno.Median, Steno.Median / Hand.Median);
  }

  std::printf("\npaper's Figure 14: 1.9x at d=10, 1.19x at d=100, "
              "converging for d >= 1000 as per-element compute "
              "dominates the iterator overhead\n");
  return 0;
}
