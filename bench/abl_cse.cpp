//===- bench/abl_cse.cpp - Ablation E: §9 CSE ------------------*- C++ -*-===//
//
// §9 names common-subexpression elimination as the next optimization
// Steno's conservative design left on the table. This repo implements it
// (expr/Cse.h); this ablation measures the same query compiled with the
// pass off and on, for workloads whose inlined lambdas repeat work:
//
//   dist2:  sum((p[d]-c[d]) * (p[d]-c[d])) over points (the k-means
//           distance kernel — the subtraction is computed twice without
//           CSE)
//   poly:   sqrt(x*x+1) / (sqrt(x*x+1) + 2) per element
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

double timeQuery(const Query &Q, const Bindings &B, bool Cse,
                 const char *Name) {
  CompileOptions Options;
  Options.EnableCse = Cse;
  Options.Name = Name;
  CompiledQuery CQ = compileQuery(Q, Options);
  return bestSeconds(
      [&] {
        doNotOptimize(
            static_cast<std::int64_t>(CQ.run(B).numRows()));
      },
      3);
}

void report(const char *Name, double OffS, double OnS) {
  std::printf("%-8s %14.1f %14.1f %9.2fx\n", Name, OffS * 1e3, OnS * 1e3,
              OffS / OnS);
}

} // namespace

int main() {
  header("Ablation E: common-subexpression elimination (§9)");
  std::printf("\n%-8s %14s %14s %9s\n", "query", "CSE off (ms)",
              "CSE on (ms)", "gain");

  // dist2 kernel: points x centroid-row, repeated subtraction.
  {
    const std::int64_t Dim = 16;
    const std::int64_t NumPoints = scaled(500000);
    std::vector<double> Points =
        uniformDoubles(NumPoints * Dim, 61, -1, 1);
    std::vector<double> Centroid = uniformDoubles(Dim, 62, -1, 1);
    Bindings B;
    B.bindPointArray(0, Points.data(), NumPoints, Dim);
    B.bindDoubleArray(1, Centroid.data(), Dim);

    auto P = param("p", Type::vecTy());
    auto D = param("d", Type::int64Ty());
    E DimE = E(Dim);
    Query Dist2 =
        Query::range(E(0), DimE)
            .select(lambda({D}, (P[D] - slice(1, E(0), DimE)[D]) *
                                    (P[D] - slice(1, E(0), DimE)[D])))
            .sum();
    Query Q = Query::pointArray(0).selectNested(P, Dist2).sum();
    report("dist2", timeQuery(Q, B, false, "dist2_off"),
           timeQuery(Q, B, true, "dist2_on"));
  }

  // poly: per-element repeated sqrt.
  {
    const std::int64_t N = scaled(5000000);
    std::vector<double> Xs = uniformDoubles(N, 63, 0, 10);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(), N);
    auto X = param("x", Type::doubleTy());
    E Root = sqrt(X * X + 1.0);
    Query Q = Query::doubleArray(0)
                  .select(lambda({X}, Root / (Root + 2.0)))
                  .sum();
    report("poly", timeQuery(Q, B, false, "poly_off"),
           timeQuery(Q, B, true, "poly_on"));
  }

  std::printf("\n(the host compiler can CSE pure arithmetic itself, so "
              "gains appear where it cannot prove it profitable or the "
              "expression defeats its heuristics — e.g. repeated libm "
              "calls)\n");
  return 0;
}
