//===- bench/abl_groupby.cpp - Ablation B: §4.3 specialization --*- C++ -*-===//
//
// Measures the GroupBy-Aggregate specialization in isolation: the same
// group-then-fold query compiled with the §4.3 pass disabled (bags
// materialized in a Lookup, then folded) and enabled (one-pass partial
// aggregates), across key cardinalities — plus the dense-key sink the
// paper's closing §4.3 remark sketches (O(1) keys when the key range is
// known), measured via the static fused library.
//
// Gate (CI bench-smoke): exits 1 when fused GroupByAggregate / bags
// exceeds 0.5 at any key count. Losing §4.3's specialization puts it
// near 1.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "fused/Fused.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

/// Rounds of the three variants per key count.
constexpr int kRounds = 5;
/// The gate's ceiling on fused GroupByAggregate / bags.
constexpr double MaxFusedOverBags = 0.5;

int main() {
  const std::int64_t N = scaled(5000000);
  std::vector<double> Xs = uniformDoubles(N, 31, 0, 1.0);
  header("Ablation B: GroupBy vs fused GroupByAggregate (§4.3), " +
         std::to_string(N) + " elements, median (quartiles) of " +
         std::to_string(kRounds) + " interleaved rounds");

  std::printf("\n%8s %22s %22s %22s %10s\n", "keys", "bags ms",
              "fused GBA ms", "dense ms", "GBA gain");

  JsonReport Json("abl_groupby");
  bool Ok = true;
  for (std::int64_t Keys : {10, 100, 1000, 10000, 100000}) {
    double Scale = static_cast<double>(Keys);
    auto X = param("x", Type::doubleTy());
    auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
    auto A = param("a", Type::doubleTy());
    auto V = param("v", Type::doubleTy());
    Query BagSum = Query::overVec(G.second())
                       .aggregate(E(0.0), lambda({A, V}, A + V),
                                  lambda({A}, pair(G.first(), A)));
    Query Q = Query::doubleArray(0)
                  .groupBy(lambda({X}, toInt64(X * Scale)))
                  .selectNested(G, BagSum);

    Bindings B;
    B.bindDoubleArray(0, Xs.data(), N);

    CompileOptions NoSpec;
    NoSpec.SpecializeGroupByAggregate = false;
    NoSpec.Name = "grp_bags";
    CompiledQuery BagsCQ = compileQuery(Q, NoSpec);

    CompileOptions Spec;
    Spec.Name = "grp_fused";
    CompiledQuery FusedCQ = compileQuery(Q, Spec);

    Rounds R(kRounds);
    int Bags = R.add("bags", N, [&] {
      doNotOptimize(static_cast<std::int64_t>(BagsCQ.run(B).numRows()));
    });
    int Fused = R.add("fused_gba", N, [&] {
      doNotOptimize(static_cast<std::int64_t>(FusedCQ.run(B).numRows()));
    });
    // Dense-key static sink (key range known a priori).
    int Dense = R.add("dense", N, [&] {
      auto Slots = fused::from(Xs) |
                   fused::denseGroupByAggregate(
                       Keys,
                       [Scale](double Xv) {
                         return static_cast<std::int64_t>(Xv * Scale);
                       },
                       0.0, [](double Acc, double Xv) { return Acc + Xv; });
      doNotOptimize(Slots[0]);
    });
    R.run();
    Json.add(R, "k" + std::to_string(Keys) + "_");

    double Ratio = R.ratio(Fused, Bags);
    std::printf("%8lld %22s %22s %22s %9.2fx\n", static_cast<long long>(Keys),
                msCell(R.summary(Bags)).c_str(),
                msCell(R.summary(Fused)).c_str(),
                msCell(R.summary(Dense)).c_str(), 1.0 / Ratio);
    if (Ratio > MaxFusedOverBags) {
      std::fprintf(stderr,
                   "abl_groupby: FAIL: at %lld keys fused GroupByAggregate "
                   "takes %.2fx the bags' time, above the %.1f ceiling\n",
                   static_cast<long long>(Keys), Ratio, MaxFusedOverBags);
      Ok = false;
    }
  }

  std::printf("\n'bags' materializes every group's members (Figure 7(b) "
              "Lookup); 'fused GBA' keeps one accumulator per key (§4.3); "
              "'dense' replaces the hash sink with an array when the key "
              "range is known\n");
  std::printf("gate: fused GBA / bags, the median of per-round ratios, <= "
              "%.1f at every key count\n",
              MaxFusedOverBags);
  return Ok ? 0 : 1;
}
