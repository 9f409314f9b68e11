//===- bench/fig13_micro.cpp - Reproduces paper Figure 13 ------*- C++ -*-===//
//
// Figure 13 (§7.1): the four sequential microbenchmarks —
//   Sum    sum of 10^7 doubles
//   SumSq  sum of squares of 10^7 doubles
//   Cart   Cartesian product of 10^7 x 10^3 doubles, multiplied & summed
//   Group  binned histogram of 10^7 mixture-of-Gaussians doubles
// plus one row from Clash of the Lambdas (PAPERS.md), the filtered fold
// the paper's figure lacks —
//   SumSqEven  sum of the squares of the even ones of 10^7 int64s
// each measured as: LINQ, Steno including compilation, Steno excluding
// compilation, and hand-optimized — normalized to the LINQ time.
//
// Paper results: speedups 3.32x (Sum) .. 14.1x (Group); Steno-vs-hand
// overhead 53% for Sum (a missed JIT temporary elimination) and <3% for
// the others.
//
// Cart defaults to 10^5 x 10^3 pairs here (10^8 inner elements) so the
// LINQ variant finishes in seconds on one core; scale with
// STENO_BENCH_SCALE.
//
// Gate (CI bench-smoke): the figure's claim, generated code close to the
// hand-optimized loop. Exits 1 when any row's Steno (excl. compilation) /
// hand-optimized time exceeds 1.25.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/StringUtil.h"
#include "expr/Dsl.h"
#include "linq/Linq.h"
#include "steno/Steno.h"

#include <cstdio>
#include <unordered_map>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

/// Rounds of a row's four variants.
constexpr int kRounds = 9;

/// The gate's ceiling on Steno (excl. compilation) / hand-optimized.
constexpr double MaxStenoOverHand = 1.25;

/// One row of the figure: its LINQ and hand-optimized variants, and the
/// Steno query over \p B timed with and without its one-off compilation.
/// Returns Steno (excl. compilation) / hand-optimized, the median of the
/// per-round ratios.
double row(const char *Name, std::int64_t Items, JsonReport &Json,
           const std::function<void()> &LinqFn, const Query &Q,
           const Bindings &B, const std::function<void()> &HandFn) {
  CompiledQuery CQ = compileQuery(Q, {});
  Rounds R(kRounds);
  int Linq = R.add("linq", Items, LinqFn);
  // Including compilation: a fresh compile and one run per call.
  R.add("steno_incl_compile", Items, [&] {
    CompiledQuery Fresh = compileQuery(Q, {});
    doNotOptimize(static_cast<std::int64_t>(Fresh.run(B).numRows()));
  });
  // Excluding compilation: reuse the cached compiled query (§7.1).
  int Excl = R.add("steno_excl_compile", Items, [&] {
    doNotOptimize(static_cast<std::int64_t>(CQ.run(B).numRows()));
  });
  int Hand = R.add("hand", Items, HandFn);
  R.run();

  std::printf("\n%s (normalized to LINQ = 100%%)\n", Name);
  printRelative(R, Linq);
  double Ratio = R.ratio(Excl, Hand);
  std::printf("  Steno-vs-hand overhead: %+.1f%%\n", 100.0 * (Ratio - 1.0));
  Json.add(R, std::string(Name) + "_");
  return Ratio;
}

} // namespace

int main() {
  const std::int64_t N = scaled(10000000);
  const std::int64_t CartOuter = scaled(100000);
  const std::int64_t CartInner = 1000;

  header("Figure 13: sequential microbenchmarks");
  std::printf("Sum/SumSq/Group over %lld doubles, SumSqEven over as many "
              "int64s; Cart over %lld x %lld; median (quartiles) of %d "
              "interleaved rounds\n",
              static_cast<long long>(N),
              static_cast<long long>(CartOuter),
              static_cast<long long>(CartInner), kRounds);

  JsonReport Json("fig13_micro");
  std::string Gate;
  bool Failed = false;
  auto gate = [&](const char *Name, double Ratio) {
    Gate += support::strFormat(" %s %.2f", Name, Ratio);
    Failed = Failed || Ratio > MaxStenoOverHand;
  };
  auto X = param("x", Type::doubleTy());

  std::vector<double> Xs = uniformDoubles(N, 2);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);
  gate("Sum", row(
                  "Sum", N, Json,
                  [&] {
                    doNotOptimize(
                        linq::fromSpan(Xs.data(), Xs.size()).sum());
                  },
                  Query::doubleArray(0).sum(), B, [&] {
                    double Acc = 0;
                    for (double V : Xs)
                      Acc += V;
                    doNotOptimize(Acc);
                  }));
  gate("SumSq",
       row(
           "SumSq", N, Json,
           [&] {
             doNotOptimize(linq::fromSpan(Xs.data(), Xs.size())
                               .select([](double V) { return V * V; })
                               .sum());
           },
           Query::doubleArray(0).select(lambda({X}, X * X)).sum(), B, [&] {
             double Acc = 0;
             for (double V : Xs)
               Acc += V * V;
             doNotOptimize(Acc);
           }));

  // SumSqEven: int64s below 1000, each even with probability 1/2, so the
  // hand loop's branch on parity mispredicts where Steno's guarded sum
  // masks the addend instead (DESIGN.md §5).
  std::vector<std::int64_t> Is(static_cast<std::size_t>(N));
  support::SplitMix64 IntRng(6);
  for (std::int64_t &V : Is)
    V = static_cast<std::int64_t>(IntRng.nextBelow(1000));
  Bindings IntB;
  IntB.bindInt64Array(0, Is.data(), N);
  auto I = param("i", Type::int64Ty());
  gate("SumSqEven",
       row(
           "SumSqEven", N, Json,
           [&] {
             doNotOptimize(linq::fromSpan(Is.data(), Is.size())
                               .where([](std::int64_t V) { return V % 2 == 0; })
                               .select([](std::int64_t V) { return V * V; })
                               .sum());
           },
           Query::int64Array(0)
               .where(lambda({I}, I % E(std::int64_t{2}) == E(std::int64_t{0})))
               .select(lambda({I}, I * I))
               .sum(),
           IntB, [&] {
             std::int64_t Acc = 0;
             for (std::int64_t V : Is)
               if (V % 2 == 0)
                 Acc += V * V;
             doNotOptimize(Acc);
           }));

  std::vector<double> CartXs = uniformDoubles(CartOuter, 3, 0, 1);
  std::vector<double> CartYs = uniformDoubles(CartInner, 4, 0, 1);
  Bindings CartB;
  CartB.bindDoubleArray(0, CartXs.data(), CartOuter);
  CartB.bindDoubleArray(1, CartYs.data(), CartInner);
  auto Y = param("y", Type::doubleTy());
  gate("Cart",
       row(
           "Cart", CartOuter * CartInner, Json,
           [&] {
             doNotOptimize(
                 linq::fromSpan(CartXs.data(), CartXs.size())
                     .selectMany([&CartYs](double Xv) {
                       return linq::fromSpan(CartYs.data(), CartYs.size())
                           .select([Xv](double Yv) { return Xv * Yv; });
                     })
                     .sum());
           },
           Query::doubleArray(0)
               .selectMany(X,
                           Query::doubleArray(1).select(lambda({Y}, X * Y)))
               .sum(),
           CartB, [&] {
             double Acc = 0;
             for (double Xv : CartXs)
               for (double Yv : CartYs)
                 Acc += Xv * Yv;
             doNotOptimize(Acc);
           }));

  // Group: LINQ's GroupBy with a counting result selector materializes the
  // bags, as unoptimized LINQ does. The hand-optimized loop counts with a
  // hash map from bin to count, what a programmer writes when the key
  // range is not statically known (the dense-array variant for known key
  // ranges is measured in abl_groupby).
  std::vector<double> Mog = mixtureOfGaussians(N, 5);
  Bindings GroupB;
  GroupB.bindDoubleArray(0, Mog.data(), N);
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto C = param("c", Type::int64Ty());
  auto V = param("v", Type::doubleTy());
  Query BagCount = Query::overVec(G.second())
                       .aggregate(E(0), lambda({C, V}, C + 1),
                                  lambda({C}, pair(G.first(), C)));
  gate("Group",
       row(
           "Group", N, Json,
           [&] {
             auto Rows =
                 linq::fromSpan(Mog.data(), Mog.size())
                     .groupBy(
                         [](double Xv) {
                           return static_cast<std::int64_t>(Xv);
                         },
                         [](std::int64_t Key,
                            const std::vector<double> &Bag) {
                           return std::make_pair(
                               Key, static_cast<std::int64_t>(Bag.size()));
                         })
                     .toVector();
             doNotOptimize(static_cast<std::int64_t>(Rows.size()));
           },
           Query::doubleArray(0)
               .groupBy(lambda({X}, toInt64(X)))
               .selectNested(G, BagCount),
           GroupB, [&] {
             std::unordered_map<std::int64_t, std::int64_t> Counts;
             for (double Xv : Mog)
               ++Counts[static_cast<std::int64_t>(Xv)];
             doNotOptimize(static_cast<std::int64_t>(Counts.size()));
           }));

  std::printf("\npaper's Figure 13: speedups 3.32x (Sum) .. 14.1x "
              "(Group); Steno-vs-hand overhead 53%% (Sum), <3%% "
              "(others)\n");
  std::printf("Steno (excl. compilation) / hand-optimized, medians of "
              "per-round ratios:%s (gate: <= %.2f)\n",
              Gate.c_str(), MaxStenoOverHand);
  if (Failed) {
    std::fprintf(stderr,
                 "fig13_micro: FAIL: a row's Steno time is above %.2fx the "
                 "hand-optimized time:%s\n",
                 MaxStenoOverHand, Gate.c_str());
    return 1;
  }
  return 0;
}
