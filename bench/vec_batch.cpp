//===- bench/vec_batch.cpp - Batched vs scalar interpretation --*- C++ -*-===//
//
// Measures the vectorized columnar batch path (DESIGN.md §5i) against
// the element-at-a-time scalar path on the paper's single-thread
// workloads: the Figure 1 sum-of-squares chain and a Figure 13-style
// filtered chain that exercises selection vectors. Sweeps the batch
// size (64 / 256 / 1024 / 4096) to show the amortization curve — per-
// element interpreter dispatch is replaced by one dispatch per batch,
// so the win should saturate once the batch covers the dispatch cost.
//
// Gate (CI bench-smoke): the batched interpreter at the default batch
// size must hold at least a 1.5x throughput advantage over the scalar
// interpreter on the Figure 1 chain; exits 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdio>
#include <cstdlib>

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

double runSeconds(const CompiledQuery &CQ, const Bindings &B) {
  return bestSeconds(
      [&] { doNotOptimize(CQ.run(B).scalarValue().asDouble()); });
}

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

  const char *BatchSizes[] = {"64", "256", "1024", "4096"};

  header("Vectorized batch execution: interpreter, " + std::to_string(N) +
         " doubles");
  std::printf("%-28s %12s %12s %10s\n", "variant", "time (ms)",
              "Melem/s", "speedup");

  JsonReport Json("vec_batch");
  double Fig01Scalar = 0, Fig01Vec1024 = 0;

  for (const Shape &S : Shapes) {
    CompiledQuery Scalar =
        compileVariant(*S.Q, false, std::string(S.Name) + "_scalar");
    double ScalarS = runSeconds(Scalar, B);
    Json.add(std::string(S.Name) + "_interp_scalar", ScalarS, N);
    std::printf("%-28s %12.1f %12.1f %9s\n",
                (std::string(S.Name) + " interp scalar").c_str(),
                ScalarS * 1e3, static_cast<double>(N) / ScalarS / 1e6,
                "1.00x");
    if (S.Q == &Fig01)
      Fig01Scalar = ScalarS;

    for (const char *BS : BatchSizes) {
      ::setenv("STENO_BATCH_SIZE", BS, 1); // read at plan time
      CompiledQuery Vec =
          compileVariant(*S.Q, true, std::string(S.Name) + "_vec_b" + BS);
      ::unsetenv("STENO_BATCH_SIZE");
      if (!Vec.vectorized()) {
        std::fprintf(stderr, "vec_batch: %s did not vectorize\n", S.Name);
        return 1;
      }
      double VecS = runSeconds(Vec, B);
      Json.add(std::string(S.Name) + "_interp_vec_b" + BS, VecS, N);
      std::printf("%-28s %12.1f %12.1f %9.2fx\n",
                  (std::string(S.Name) + " interp batch=" + BS).c_str(),
                  VecS * 1e3, static_cast<double>(N) / VecS / 1e6,
                  ScalarS / VecS);
      if (S.Q == &Fig01 && std::string(BS) == "1024")
        Fig01Vec1024 = VecS;
    }
  }

  double Speedup = Fig01Vec1024 > 0 ? Fig01Scalar / Fig01Vec1024 : 0;
  std::printf("\nfig01 batched(1024) vs scalar interp: %.2fx "
              "(gate: >= 1.50x)\n",
              Speedup);
  if (Speedup < 1.5) {
    std::fprintf(stderr,
                 "vec_batch: FAIL: batched interpreter speedup %.2fx "
                 "below the 1.5x floor\n",
                 Speedup);
    return 1;
  }
  return 0;
}
