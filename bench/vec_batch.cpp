//===- bench/vec_batch.cpp - Batched vs scalar interpretation --*- C++ -*-===//
//
// Measures the vectorized columnar batch path (DESIGN.md §5i) against
// the element-at-a-time scalar path on the paper's single-thread
// workloads: the Figure 1 sum-of-squares chain and a Figure 13-style
// filtered chain that exercises selection vectors. Per-element
// interpreter dispatch is replaced by one dispatch per 1024-lane batch.
//
// Gate (CI bench-smoke): the batched interpreter must hold at least a
// 1.5x throughput advantage over the scalar interpreter on the Figure 1
// chain; exits 1 otherwise.
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

CompiledQuery compileVariant(const Query &Q, bool Vectorize,
                             const std::string &Name) {
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Vectorize = Vectorize;
  O.Name = Name;
  return compileQuery(Q, O);
}

/// Rounds of a shape's two variants.
constexpr int kRounds = 5;

} // namespace

int main() {
  const std::int64_t N = scaled(10000000);
  std::vector<double> Xs = uniformDoubles(N, 1);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);

  auto X = param("x", Type::doubleTy());
  // Figure 1: Select(x => x*x).Sum().
  Query Fig01 = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  // Figure 13-style filtered chain: Where survivors go sparse, so the
  // batched path runs its selection-vector kernels.
  Query Fig13F = Query::doubleArray(0)
                     .where(lambda({X}, X > E(250.0)))
                     .select(lambda({X}, X * X + E(1.0)))
                     .sum();

  struct Shape {
    const char *Name;
    const Query *Q;
  } Shapes[] = {{"fig01", &Fig01}, {"fig13_filtered", &Fig13F}};

  header("Vectorized batch execution: interpreter, " + std::to_string(N) +
         " doubles, median of " + std::to_string(kRounds) +
         " interleaved rounds");
  std::printf("%-28s %12s %12s %10s\n", "variant", "time (ms)",
              "Melem/s", "speedup");

  JsonReport Json("vec_batch");
  double Fig01Speedup = 0;

  for (const Shape &S : Shapes) {
    CompiledQuery Compiled[] = {
        compileVariant(*S.Q, false, std::string(S.Name) + "_scalar"),
        compileVariant(*S.Q, true, std::string(S.Name) + "_vec")};
    if (!Compiled[1].vectorized()) {
      std::fprintf(stderr, "vec_batch: %s did not vectorize\n", S.Name);
      return 1;
    }
    Rounds R(kRounds);
    const char *Names[] = {"interp_scalar", "interp_vec"};
    for (int V = 0; V != 2; ++V)
      R.add(Names[V], N, [&CQ = Compiled[V], &B] {
        doNotOptimize(CQ.run(B).scalarValue().asDouble());
      });
    R.run();
    Json.add(R, std::string(S.Name) + "_");

    for (int V = 0; V != R.variants(); ++V) {
      double Median = R.summary(V).Median;
      std::printf("%-28s %12.1f %12.1f %9.2fx\n",
                  (std::string(S.Name) + " " + R.name(V)).c_str(),
                  Median * 1e3, static_cast<double>(N) / Median / 1e6,
                  R.ratio(0, V));
    }
    if (S.Q == &Fig01)
      Fig01Speedup = R.ratio(0, 1); // scalar / batched
  }

  std::printf("\nfig01 batched vs scalar interp, median of per-round "
              "ratios: %.2fx (gate: >= 1.50x)\n",
              Fig01Speedup);
  if (Fig01Speedup < 1.5) {
    std::fprintf(stderr,
                 "vec_batch: FAIL: batched interpreter speedup %.2fx "
                 "below the 1.5x floor\n",
                 Fig01Speedup);
    return 1;
  }
  return 0;
}
