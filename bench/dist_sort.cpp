//===- bench/dist_sort.cpp - Parallel OrderBy against one thread -*- C++ -*-===//
//
// §6 turns an OrderBy into a distributed sort: each partition runs the
// homomorphic prefix and emits every row beside its OrderBy key, computed
// natively in the vertex, and the Agg* stage (dryad::combineParallelPartials)
// sorts the concatenated rows' numbers once by that key column and gathers
// their typed columns, interpreting no key and building no Value. This
// binary times DistributedQuery::runParallel of xs.OrderBy(x => x) over
// 200,000 uniform doubles on a 4-worker pool against the same query
// compiled natively and run on one thread, whose sort moves the doubles
// themselves, and checks that both return the same rows.
//
// Gate (CI bench-smoke): exits 1 when parallel / one thread exceeds 3, or
// when the rows differ. At scale 0.5 on a 4-vCPU Xeon ten runs read
// 1.99-2.36: the Agg* sort runs on one thread, over row numbers whose key
// it reads from the key column in every radix pass.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dryad/Dist.h"
#include "expr/Dsl.h"
#include "steno/Steno.h"

#include <cstdio>

using namespace steno;
using namespace steno::bench;

int main() {
  const std::int64_t N = scaled(200000);
  constexpr unsigned Workers = 4;
  constexpr int kRounds = 9;
  constexpr double MaxRatio = 3.0;
  std::vector<double> Xs = uniformDoubles(N, 1);
  header("Distributed OrderBy: " + std::to_string(N) + " doubles, " +
         std::to_string(Workers) + " workers vs one thread");

  using namespace steno::expr;
  using namespace steno::expr::dsl;
  auto X = param("x", Type::doubleTy());
  query::Query Q = query::Query::doubleArray(0).orderBy(lambda({X}, X));
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);

  dryad::DistOptions DO;
  DO.Name = "dist_sort";
  dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(Q, DO);
  if (!DQ.parallel()) {
    std::fprintf(stderr, "dist_sort: FAIL: the sort did not fan out: %s\n",
                 DQ.whyNotParallel().c_str());
    return 1;
  }
  CompileOptions CO;
  CO.Name = "dist_sort_seq";
  CompiledQuery CQ = compileQuery(Q, CO);

  dryad::ThreadPool Pool(Workers);
  Rounds R(kRounds);
  int Par = R.add("run_parallel_4w", N, [&] {
    doNotOptimize(
        static_cast<std::int64_t>(DQ.runParallel(Pool, B).numRows()));
  });
  int Seq = R.add("native_1t", N, [&] {
    doNotOptimize(static_cast<std::int64_t>(CQ.run(B).numRows()));
  });
  R.run();

  QueryResult ParRows = DQ.runParallel(Pool, B);
  QueryResult SeqRows = CQ.run(B);
  bool Same = ParRows.rows().size() == SeqRows.rows().size();
  for (std::size_t I = 0; Same && I != SeqRows.rows().size(); ++I)
    Same = ParRows.rows()[I] == SeqRows.rows()[I];

  double Ratio = R.ratio(Par, Seq);
  std::printf("\n%-30s %22s\n", "variant", "ms (q1-q3)");
  std::printf("%-30s %22s\n", "runParallel (4 workers)",
              msCell(R.summary(Par)).c_str());
  std::printf("%-30s %22s\n", "native, one thread",
              msCell(R.summary(Seq)).c_str());
  std::printf("parallel / one thread, median of %d per-round ratios: %.2f "
              "(gate: <= %.0f)\n",
              kRounds, Ratio, MaxRatio);

  JsonReport Json("dist_sort");
  Json.add(R);

  if (!Same) {
    std::fprintf(stderr, "dist_sort: FAIL: runParallel rows differ from "
                         "the one-thread rows\n");
    return 1;
  }
  if (Ratio > MaxRatio) {
    std::fprintf(stderr,
                 "dist_sort: FAIL: runParallel takes %.2fx the one-thread "
                 "time, above the %.0f ceiling\n",
                 Ratio, MaxRatio);
    return 1;
  }
  return 0;
}
