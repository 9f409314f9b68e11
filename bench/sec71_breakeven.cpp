//===- bench/sec71_breakeven.cpp - Reproduces §7.1's cost model -*-C++-*-===//
//
// §7.1's one-off-cost analysis: "Summing 10 million doubles with LINQ
// takes approximately 83 ms, whereas with Steno it takes 25 ms plus 69 ms
// for compilation. The break-even point is approximately 12 million
// doubles."
//
// This binary measures the same three quantities on this machine —
// LINQ per-element cost, Steno per-element cost, Steno one-off
// compile+load cost — solves for the break-even input size, and verifies
// it empirically with a sweep. Writes BENCH_sec71_breakeven.json (see
// BenchUtil.h JsonReport).
//
// Gate (CI bench-smoke): exits 1 when the modelled break-even exceeds
// 10^8 elements, about 8x the paper's. It is the compile cost that moves
// it: a generated TU that parses <chrono>, <vector>, <cmath>, ... again
// takes about 1.1 s to compile and puts it near 4*10^8.
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

/// Rounds of the three measured quantities.
constexpr int kRounds = 5;

int main() {
  const std::int64_t N = scaled(10000000);
  std::vector<double> Xs = uniformDoubles(N, 11);
  header("Section 7.1: one-off compilation cost and break-even point");

  // The three measured quantities, on the paper's Sum query.
  Query Q = Query::doubleArray(0).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), N);
  Rounds R(kRounds);
  int Linq = R.add("linq_sum", N, [&] {
    doNotOptimize(linq::fromSpan(Xs.data(), Xs.size()).sum());
  });
  int Steno = R.add("steno_sum", N, [&] {
    doNotOptimize(CQ.run(B).scalarValue().asDouble());
  });
  // A fresh compile and load of the query (the paper's 69 ms).
  int Compile = R.add("compile_load", 1, [&] {
    CompiledQuery Fresh = compileQuery(Q, {});
    doNotOptimize(static_cast<std::int64_t>(Fresh.generatedSource().size()));
  });
  R.run();

  double LinqS = R.summary(Linq).Median;
  double StenoS = R.summary(Steno).Median;
  double CompileMs = R.summary(Compile).Median * 1e3;
  double LinqPerElemNs = 1e9 * LinqS / static_cast<double>(N);
  double StenoPerElemNs = 1e9 * StenoS / static_cast<double>(N);
  std::printf("\nLINQ Sum(%lld):  %8.1f ms  (%.2f ns/element)\n",
              static_cast<long long>(N), LinqS * 1e3, LinqPerElemNs);
  std::printf("Steno Sum(%lld): %8.1f ms  (%.2f ns/element)\n",
              static_cast<long long>(N), StenoS * 1e3, StenoPerElemNs);
  std::printf("Steno one-off compile+load: %.0f ms\n", CompileMs);
  std::printf("(medians of %d interleaved rounds)\n", kRounds);

  // Model: LINQ(n) = a_linq * n; Steno(n) = compile + a_steno * n. The
  // break-even is the median over rounds of a round's compile time over
  // its per-element saving; below 0, Steno never breaks even.
  std::vector<double> Saved;
  for (int I = 0; I != kRounds; ++I)
    Saved.push_back((R.seconds(Linq)[I] - R.seconds(Steno)[I]) /
                    static_cast<double>(N));
  double BreakEven = medianRatio(R.seconds(Compile), Saved);
  std::printf("\nmodelled break-even: %.2g elements "
              "(paper: ~1.2e7 with csc's 69 ms compile)\n",
              BreakEven);

  JsonReport Json("sec71_breakeven");
  Json.add(R);

  // Empirical sweep: total time (compile amortized over ONE run) for
  // LINQ vs Steno across input sizes.
  std::printf("\n%14s %14s %20s %12s\n", "n", "LINQ (ms)",
              "Steno+compile (ms)", "winner");
  for (double Frac :
       {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    std::int64_t M = static_cast<std::int64_t>(
        static_cast<double>(N) * Frac);
    if (M < 1 || static_cast<size_t>(M) > Xs.size() * 4)
      continue;
    std::vector<double> Sub = uniformDoubles(M, 12);
    Bindings SubB;
    SubB.bindDoubleArray(0, Sub.data(), M);
    Rounds Sweep(/*Count=*/3);
    int L = Sweep.add("linq", M, [&] {
      doNotOptimize(linq::fromSpan(Sub.data(), Sub.size()).sum());
    });
    int S = Sweep.add("steno", M, [&] {
      doNotOptimize(CQ.run(SubB).scalarValue().asDouble());
    });
    Sweep.run();
    double LinqMs = Sweep.summary(L).Median * 1e3;
    double StenoTotalMs = CompileMs + Sweep.summary(S).Median * 1e3;
    std::printf("%14lld %14.1f %20.1f %12s\n", static_cast<long long>(M),
                LinqMs, StenoTotalMs, LinqMs < StenoTotalMs ? "LINQ" : "Steno");
  }
  std::printf("\n(cached compiled queries pay the compile cost zero "
              "times after the first use — the amortized column is the "
              "Steno run time alone, %.1f ms at n=%lld)\n",
              StenoS * 1e3, static_cast<long long>(N));

  constexpr double MaxBreakEven = 1e8;
  std::printf("modelled break-even: %.2g elements (gate: <= %.0e)\n",
              BreakEven, MaxBreakEven);
  if (!(BreakEven > 0 && BreakEven <= MaxBreakEven)) {
    std::fprintf(stderr,
                 "sec71_breakeven: FAIL: Steno breaks even with LINQ only "
                 "at %.2g elements (compile+load %.0f ms), above the %.0e "
                 "ceiling\n",
                 BreakEven, CompileMs, MaxBreakEven);
    return 1;
  }
  return 0;
}
