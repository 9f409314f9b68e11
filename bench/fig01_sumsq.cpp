//===- bench/fig01_sumsq.cpp - Reproduces paper Figure 1 -------*- C++ -*-===//
//
// Figure 1: "Relative execution time for computing the sum of squares of
// 10^7 doubles using LINQ, an imperative loop, and a Steno-optimized
// query. Steno achieves a 7.4x speedup over LINQ." The paper normalizes
// to LINQ = 100%; the for loop and Steno land at 13.5% / 13.6%.
//
// This binary reports the same three bars (plus the static fused variant)
// normalized the same way, and a second pair: the same query ending in
// .toArray() instead of .sum(), against a hand loop that push_backs x * x
// into a std::vector<double> reserved to N. Each of those frees its
// output inside its timed region, and the Steno side reads its result
// through numRows() and its double column, never the Value view.
//
// Gates (CI bench-smoke): the figure's claim, Steno about as fast as the
// hand-written loop, for a query that folds and for one whose every row
// leaves the loop. Exits 1 when Steno jit / for loop exceeds 1.15, or
// Steno ToArray / vector loop exceeds 2.0. At scale 0.5 on 4 vCPUs of an
// Intel Xeon (g++ 12.2.0), ten runs read 0.98-1.03 and 0.98-1.01: the
// rows are appended to the result's typed columns and the query's buffer
// is handed over whole. The ToArray ratio read 8-12 while each row left
// the loop through a host callback and a Value.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "fused/Fused.h"
#include "linq/Linq.h"
#include "steno/Steno.h"

#include <cstdio>
#include <vector>

using namespace steno;
using namespace steno::bench;

/// Rounds of the six variants.
constexpr int kRounds = 15;

int main() {
  const std::int64_t N = scaled(10000000); // the paper's 10^7 doubles
  std::vector<double> Xs = uniformDoubles(N, 1);
  header("Figure 1: sum of squares of " + std::to_string(N) +
         " doubles");

  // Steno: the declarative query, optimized and JIT-compiled once (the
  // figure's Steno bar excludes the one-off compilation, which §7.1
  // reports separately; we print it for reference).
  using namespace steno::expr;
  using namespace steno::expr::dsl;
  auto X = param("x", Type::doubleTy());
  query::Query Q = query::Query::doubleArray(0)
                       .select(lambda({X}, X * X))
                       .sum();
  CompiledQuery CQ = compileQuery(Q, {});
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);
  // The same query ending in .toArray(): every row leaves the loop.
  query::Query ToArrayQ = query::Query::doubleArray(0)
                              .select(lambda({X}, X * X))
                              .toArray();
  CompiledQuery ToArrayCQ = compileQuery(ToArrayQ, {});

  Rounds R(kRounds);
  // LINQ: xs.Select(x => x * x).Sum() through lazy iterators.
  int Linq = R.add("linq_sum", N, [&] {
    doNotOptimize(linq::fromSpan(Xs.data(), Xs.size())
                      .select([](double X) { return X * X; })
                      .sum());
  });
  int Loop = R.add("for_loop", N, [&] {
    double Acc = 0;
    for (double X : Xs)
      Acc += X * X;
    doNotOptimize(Acc);
  });
  int Steno = R.add("steno_jit", N, [&] {
    doNotOptimize(CQ.run(B).scalarValue().asDouble());
  });
  // Static fused (the §9 compile-time endpoint).
  R.add("static_fused", N, [&] {
    doNotOptimize(fused::from(Xs) |
                  fused::select([](double V) { return V * V; }) |
                  fused::sum());
  });
  // Both ToArray sides free their output inside the timed region.
  int VecLoop = R.add("vector_loop", N, [&] {
    std::vector<double> Out;
    Out.reserve(Xs.size());
    for (double X : Xs)
      Out.push_back(X * X);
    doNotOptimize(Out.back());
  });
  int ToArray = R.add("steno_toarray", N, [&] {
    QueryResult Res = ToArrayCQ.run(B);
    doNotOptimize(Res.doubleColumn(0)[Res.numRows() - 1]);
  });
  R.run();

  std::printf("\n");
  printRelative(R, Linq);
  std::printf("(median and quartiles of %d interleaved rounds; ratios are "
              "medians of per-round ratios)\n",
              kRounds);
  std::printf("\none-off Steno compile+load: %.0f ms (paper: ~69 ms with "
              "csc; §7.1)\n",
              CQ.compileMillis());
  std::printf("paper's Figure 1: for loop 13.5%%, Steno 13.6%%, "
              "7.4x speedup over LINQ\n");

  JsonReport Json("fig01_sumsq");
  Json.add(R);

  int Rc = 0;
  double Ratio = R.ratio(Steno, Loop);
  std::printf("Steno jit / for loop: %.2f (gate: <= 1.15)\n", Ratio);
  if (Ratio > 1.15) {
    std::fprintf(stderr,
                 "fig01_sumsq: FAIL: Steno jit takes %.2fx the for loop's "
                 "time, above the 1.15 ceiling\n",
                 Ratio);
    Rc = 1;
  }
  double ToArrayRatio = R.ratio(ToArray, VecLoop);
  std::printf("Steno ToArray / vector loop: %.2f (gate: <= 2.0)\n",
              ToArrayRatio);
  if (ToArrayRatio > 2.0) {
    std::fprintf(stderr,
                 "fig01_sumsq: FAIL: Steno ToArray takes %.2fx the vector "
                 "loop's time, above the 2.0 ceiling\n",
                 ToArrayRatio);
    Rc = 1;
  }
  return Rc;
}
