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
// each on the native and the interpreter backend.
//
// Gate (CI bench-smoke): exits 1 when interpreted dist2, CSE on / CSE
// off, exceeds 0.90. The pass pays
// in the interpreter, which re-evaluates every duplicated subtree; the
// native rows are within noise of 1, because g++ -O3 CSEs the pure
// arithmetic itself.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

/// Rounds of a query's four variants.
constexpr int kRounds = 15;
/// The gate's ceiling on interpreted dist2, CSE on / CSE off.
constexpr double MaxInterpDist2OnOverOff = 0.90;

/// Times \p Q over \p B with CSE off and on, on the native and the
/// interpreter backend, prints a row per backend, and returns the
/// interpreter's CSE-on / CSE-off time, the median of per-round ratios.
double measure(const char *Name, const Query &Q, const Bindings &B,
               std::int64_t Items, JsonReport &Json) {
  Rounds R(kRounds);
  std::vector<CompiledQuery> Compiled;
  Compiled.reserve(4);
  for (Backend Exec : {Backend::Native, Backend::Interp})
    for (bool Cse : {false, true}) {
      std::string Variant = std::string(Exec == Backend::Native ? "native"
                                                                : "interp") +
                            (Cse ? "_cse_on" : "_cse_off");
      CompileOptions Options;
      Options.EnableCse = Cse;
      Options.Exec = Exec;
      Options.Name = std::string(Name) + "_" + Variant;
      Compiled.push_back(compileQuery(Q, Options));
      const CompiledQuery &CQ = Compiled.back();
      R.add(Variant, Items, [&CQ, &B] {
        doNotOptimize(static_cast<std::int64_t>(CQ.run(B).numRows()));
      });
    }
  R.run();
  Json.add(R, std::string(Name) + "_");
  for (int Off : {0, 2})
    std::printf("%-8s %-7s %22s %22s %9.2fx\n", Name,
                Off == 0 ? "native" : "interp",
                msCell(R.summary(Off)).c_str(),
                msCell(R.summary(Off + 1)).c_str(), R.ratio(Off, Off + 1));
  return R.ratio(3, 2);
}

} // namespace

int main() {
  header("Ablation E: common-subexpression elimination (§9)");
  std::printf("\n%-8s %-7s %22s %22s %9s\n", "query", "backend",
              "CSE off ms (q1-q3)", "CSE on ms (q1-q3)", "gain");
  JsonReport Json("abl_cse");

  // dist2 kernel: points x centroid-row, repeated subtraction.
  double InterpDist2 = 0;
  {
    const std::int64_t Dim = 16;
    // 5*10^4 points keep an interpreted run near 0.3 s, so 15 rounds fit
    // in seconds; the interpreter's per-round ratios spread over +-10%.
    const std::int64_t NumPoints = scaled(50000);
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
    InterpDist2 = measure("dist2", Q, B, NumPoints * Dim, Json);
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
    measure("poly", Q, B, N, Json);
  }

  std::printf("\n(median and quartiles of %d interleaved rounds; the host "
              "compiler can CSE pure arithmetic itself, so native gains "
              "appear only where it cannot prove it profitable or the "
              "expression defeats its heuristics — e.g. repeated libm "
              "calls; the interpreter evaluates every duplicated subtree)\n",
              kRounds);
  std::printf("interpreted dist2, CSE on / CSE off (median of per-round "
              "ratios): %.2f (gate: <= %.2f)\n",
              InterpDist2, MaxInterpDist2OnOverOff);
  if (InterpDist2 > MaxInterpDist2OnOverOff) {
    std::fprintf(stderr,
                 "abl_cse: FAIL: CSE saves the interpreted dist2 kernel "
                 "too little: on / off %.2f, above the %.2f ceiling\n",
                 InterpDist2, MaxInterpDist2OnOverOff);
    return 1;
  }
  return 0;
}
