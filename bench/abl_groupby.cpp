//===- bench/abl_groupby.cpp - Ablation B: §4.3 specialization --*- C++ -*-===//
//
// Measures the GroupBy-Aggregate specialization in isolation: the same
// group-then-fold query compiled with the §4.3 pass disabled (bags
// materialized in a Lookup, then folded) and enabled (one-pass partial
// aggregates), across key cardinalities — plus the dense-key sink the
// paper's closing §4.3 remark sketches (O(1) keys when the key range is
// known), measured via the static fused library.
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

int main() {
  const std::int64_t N = scaled(5000000);
  std::vector<double> Xs = uniformDoubles(N, 31, 0, 1.0);
  header("Ablation B: GroupBy vs fused GroupByAggregate (§4.3), " +
         std::to_string(N) + " elements");

  std::printf("\n%8s %16s %16s %14s %10s\n", "keys", "bags (ms)",
              "fused GBA (ms)", "dense (ms)", "GBA gain");

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
    CompiledQuery Bags = compileQuery(Q, NoSpec);

    CompileOptions Spec;
    Spec.Name = "grp_fused";
    CompiledQuery Fused = compileQuery(Q, Spec);

    double BagsS = bestSeconds(
        [&] {
          doNotOptimize(
              static_cast<std::int64_t>(Bags.run(B).numRows()));
        },
        2);
    double FusedS = bestSeconds(
        [&] {
          doNotOptimize(
              static_cast<std::int64_t>(Fused.run(B).numRows()));
        },
        2);

    // Dense-key static sink (key range known a priori).
    double DenseS = bestSeconds(
        [&] {
          auto Slots =
              fused::from(Xs) |
              fused::denseGroupByAggregate(
                  Keys,
                  [Scale](double Xv) {
                    return static_cast<std::int64_t>(Xv * Scale);
                  },
                  0.0, [](double Acc, double Xv) { return Acc + Xv; });
          doNotOptimize(Slots[0]);
        },
        2);

    std::printf("%8lld %16.1f %16.1f %14.1f %9.2fx\n",
                static_cast<long long>(Keys), BagsS * 1e3, FusedS * 1e3,
                DenseS * 1e3, BagsS / FusedS);
  }

  std::printf("\n'bags' materializes every group's members (Figure 7(b) "
              "Lookup); 'fused GBA' keeps one accumulator per key (§4.3); "
              "'dense' replaces the hash sink with an array when the key "
              "range is known\n");
  return 0;
}
