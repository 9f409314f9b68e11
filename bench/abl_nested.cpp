//===- bench/abl_nested.cpp - Ablation A: nested-loop generation -*-C++-*-===//
//
// Isolates the contribution of §5 (nested loop generation) from plain
// iterator fusion on the Cart query. The paper argues that without the
// Figure 11 stack transition "the Sum and nested SelectMany operators
// must consume from iterators, which limits the potential performance
// improvement"; this ablation measures exactly that configuration:
//
//   linq              every boundary is an iterator (the baseline)
//   fused-outer-only  the outer loop is fused, but each nested collection
//                     is consumed through a type-erased iterator boundary
//   steno (jit)       full fusion including nested loops
//   hand              plain nested for loops
//
// Gate (CI bench-smoke): exits 1 when Steno / fused-outer-only exceeds
// 0.5. Losing §5's nested-loop generation puts it near 1.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "linq/Linq.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

/// The gate's ceiling on Steno / fused-outer-only.
constexpr double MaxStenoOverOuterOnly = 0.5;

int main() {
  const std::int64_t Outer = scaled(100000);
  const std::int64_t Inner = 1000;
  const std::int64_t Items = Outer * Inner;
  std::vector<double> Xs = uniformDoubles(Outer, 21, 0, 1);
  std::vector<double> Ys = uniformDoubles(Inner, 22, 0, 1);

  header("Ablation A: iterator fusion with/without nested-loop "
         "generation (Cart, " +
         std::to_string(Outer) + " x " + std::to_string(Inner) + ")");

  Bindings B;
  B.bindDoubleArray(0, Xs.data(), Outer);
  B.bindDoubleArray(1, Ys.data(), Inner);
  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .selectMany(X, Query::doubleArray(1)
                                   .select(lambda({Y}, X * Y)))
                .sum();
  CompiledQuery CQ = compileQuery(Q, {});

  Rounds R(/*Count=*/5);
  // Full iterator chains.
  int Linq = R.add("linq", Items, [&] {
    doNotOptimize(linq::fromSpan(Xs.data(), Xs.size())
                      .selectMany([&Ys](double Xv) {
                        return linq::fromSpan(Ys.data(), Ys.size())
                            .select([Xv](double Yv) { return Xv * Yv; });
                      })
                      .sum());
  });
  // Outer loop fused; the nested query still crosses an opaque iterator
  // boundary per inner element (what a naive "optimize each query
  // separately" scheme yields, §5's strawman).
  int OuterOnly = R.add("fused_outer_only", Items, [&] {
    double Acc = 0;
    for (double Xv : Xs) {
      linq::Seq<double> InnerSeq =
          linq::fromSpan(Ys.data(), Ys.size())
              .select([Xv](double Yv) { return Xv * Yv; });
      auto E = InnerSeq.getEnumerator();
      while (E->moveNext())
        Acc += E->current();
    }
    doNotOptimize(Acc);
  });
  // Full Steno.
  int Steno = R.add("steno_jit", Items, [&] {
    doNotOptimize(CQ.run(B).scalarValue().asDouble());
  });
  // Hand loops.
  R.add("hand", Items, [&] {
    double Acc = 0;
    for (double Xv : Xs)
      for (double Yv : Ys)
        Acc += Xv * Yv;
    doNotOptimize(Acc);
  });
  R.run();

  std::printf("\n");
  printRelative(R, Linq);
  std::printf("\nthe gap between fused-outer-only and steno is the "
              "contribution of nested-loop generation (§5)\n");

  JsonReport Json("abl_nested");
  Json.add(R);

  double Ratio = R.ratio(Steno, OuterOnly);
  std::printf("Steno / fused-outer-only (median of per-round ratios): "
              "%.2f (gate: <= %.1f)\n",
              Ratio, MaxStenoOverOuterOnly);
  if (Ratio > MaxStenoOverOuterOnly) {
    std::fprintf(stderr,
                 "abl_nested: FAIL: Steno takes %.2fx the fused-outer-only "
                 "time, above the %.1f ceiling: nested-loop generation "
                 "(§5) no longer pays\n",
                 Ratio, MaxStenoOverOuterOnly);
    return 1;
  }
  return 0;
}
