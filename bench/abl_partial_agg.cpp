//===- bench/abl_partial_agg.cpp - §6/Figure 12 partial Agg ----*- C++ -*-===//
//
// Measures the value of the paper's parallel optimization: appending a
// partial Agg_i to each partition's subquery and combining with Agg*
// (Figure 12), versus shipping every element to a single aggregating
// vertex. On a cluster the difference is network I/O; in this substrate
// it is materialization + a second pass, which preserves the shape
// (partial aggregation wins, and its advantage grows with partition
// count).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/HomomorphicApply.h"
#include "dryad/Partition.h"
#include "dryad/ThreadPool.h"
#include "fused/Fused.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;
using namespace steno::dryad;

/// Rounds of the two variants per partition count.
constexpr int kRounds = 5;

int main() {
  const std::int64_t N = scaled(20000000);
  std::vector<double> Flat = uniformDoubles(N, 51, 0, 1);
  header("Ablation D: partial aggregation (Agg_i + Agg*, Figure 12) vs "
         "central aggregation, " +
         std::to_string(N) + " doubles, median (quartiles) of " +
         std::to_string(kRounds) + " interleaved rounds");

  std::printf("\n%6s %24s %24s %9s\n", "parts", "partial agg ms",
              "central agg ms", "benefit");

  JsonReport Json("abl_partial_agg");
  for (unsigned Parts : {1u, 2u, 4u, 8u, 16u}) {
    std::vector<DoublePartition> Partitions =
        partitionDoubles(Flat, Parts);
    ThreadPool Pool(Parts);

    Rounds R(kRounds);
    // Figure 12: per-partition Agg_i (a fused sum-of-squares), then the
    // Agg* combine over P partials.
    int Partial = R.add("partial", N, [&] {
      std::vector<double> Partials = homomorphicApply(
          Pool, Partitions, [](const DoublePartition &P) {
            return fused::from(P.Data) |
                   fused::select([](double X) { return X * X; }) |
                   fused::sum();
          });
      double Total = 0;
      for (double V : Partials)
        Total += V;
      doNotOptimize(Total);
    });
    // Central aggregation: each vertex only transforms (homomorphic
    // prefix), materializing its output partition; a single downstream
    // vertex consumes everything.
    int Central = R.add("central", N, [&] {
      std::vector<std::vector<double>> Shipped = homomorphicApply(
          Pool, Partitions, [](const DoublePartition &P) {
            return fused::from(P.Data) |
                   fused::select([](double X) { return X * X; }) |
                   fused::toVector<double>();
          });
      double Total = 0;
      for (const std::vector<double> &Part : Shipped)
        for (double V : Part)
          Total += V;
      doNotOptimize(Total);
    });
    R.run();
    Json.add(R, "p" + std::to_string(Parts) + "_");

    std::printf("%6u %24s %24s %8.2fx\n", Parts,
                msCell(R.summary(Partial)).c_str(),
                msCell(R.summary(Central)).c_str(), R.ratio(Central, Partial));
  }

  std::printf("\npartial aggregation sends P accumulators to Agg* "
              "instead of N elements (§6: 'reduces the amount of "
              "coordination between partitions')\n");
  return 0;
}
