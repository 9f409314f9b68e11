//===- bench/abl_plinq.cpp - Ablation F: PLINQ vs HomomorphicApply -*-C++-*-===//
//
// §6's intra-machine story: DryadLINQ used to run homomorphic subqueries
// with PLINQ, whose per-element iterator composition "suffers from
// similar virtual call overheads to sequential LINQ"; the paper replaces
// it with HomomorphicApply, which maps the Steno-compiled query body
// across partitions with one indirect call per *partition*. This
// ablation measures that replacement on the SumSq workload:
//
//   linq (sequential)        one iterator chain, one thread
//   plinq                    iterator chains, one per partition
//   HomomorphicApply(fused)  fused loop body per partition
//   steno runParallel        the compiled dynamic query, view-partitioned
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/Dist.h"
#include "dryad/HomomorphicApply.h"
#include "expr/Dsl.h"
#include "fused/Fused.h"
#include "linq/Linq.h"
#include "plinq/Plinq.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;

/// Rounds of the four variants.
constexpr int kRounds = 9;

int main() {
  const std::int64_t N = scaled(10000000);
  const unsigned Parts = 8;
  std::vector<double> Xs = uniformDoubles(N, 71);
  dryad::ThreadPool Pool(Parts);

  header("Ablation F: PLINQ vs HomomorphicApply (§6), sum of squares of " +
         std::to_string(N) + " doubles, " + std::to_string(Parts) +
         " partitions");

  // Raw spans for the fused body (no iterator interface).
  struct Span {
    const double *Data;
    std::size_t N;
  };
  std::vector<Span> Spans;
  {
    std::size_t Base = Xs.size() / Parts;
    std::size_t Extra = Xs.size() % Parts;
    std::size_t Pos = 0;
    for (unsigned P = 0; P != Parts; ++P) {
      std::size_t Len = Base + (P < Extra ? 1 : 0);
      Spans.push_back(Span{Xs.data() + Pos, Len});
      Pos += Len;
    }
  }

  // The dynamic pipeline end-to-end: compiled once, view-partitioned.
  using namespace steno::expr;
  using namespace steno::expr::dsl;
  auto X = param("x", Type::doubleTy());
  query::Query Q = query::Query::doubleArray(0)
                       .select(lambda({X}, X * X))
                       .sum();
  dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(Q);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);

  Rounds R(kRounds);
  int Linq = R.add("linq", N, [&] {
    doNotOptimize(linq::fromSpan(Xs.data(), Xs.size())
                      .select([](double V) { return V * V; })
                      .sum());
  });
  R.add("plinq", N, [&] {
    doNotOptimize(plinq::asParallel(Pool, Xs)
                      .select([](double V) { return V * V; })
                      .sum());
  });
  // HomomorphicApply over a statically fused body.
  R.add("homomorphic_apply_fused", N, [&] {
    std::vector<double> Partials = dryad::homomorphicApply(
        Pool, Spans, [](const Span &S) {
          return fused::from(S.Data, S.N) |
                 fused::select([](double V) { return V * V; }) |
                 fused::sum();
        });
    double Total = 0;
    for (double V : Partials)
      Total += V;
    doNotOptimize(Total);
  });
  R.add("steno_run_parallel", N, [&] {
    doNotOptimize(DQ.runParallel(Pool, B).scalarValue().asDouble());
  });
  R.run();

  std::printf("\n");
  printRelative(R, Linq);
  std::printf("\n(median and quartiles of %d interleaved rounds; on a "
              "single hardware thread the parallel variants gain nothing "
              "from concurrency, isolating the per-element cost difference "
              "§6 describes)\n",
              kRounds);

  JsonReport Json("abl_plinq");
  Json.add(R);
  return 0;
}
