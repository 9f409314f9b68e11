//===- bench/abl_overhead.cpp - Ablation C: overhead anatomy ---*- C++ -*-===//
//
// Decomposes the per-element overheads the paper's introduction names:
//   1. two virtual calls per element per operator (iterator chains of
//      increasing depth vs the fused equivalents),
//   2. the indirect call into the user function (std::function vs an
//      inlined lambda),
//   3. the state-machine logic of stateful operators.
//
// Each variant makes kPasses passes over 2^16 in-cache doubles per call,
// and the variants run in interleaved rounds (bench::Rounds); a row is
// the median ns per element with its quartiles.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "fused/Fused.h"
#include "linq/Linq.h"

#include <cstdio>
#include <functional>
#include <vector>

using namespace steno;
using namespace steno::bench;

namespace {

const std::int64_t N = 1 << 16; // elements per pass
constexpr int kPasses = 16;
constexpr int kRounds = 15;

/// The fused equivalent of Depth stacked Selects: the compiler collapses
/// the whole chain.
template <int Depth> double fusedChainOnce(const std::vector<double> &Xs) {
  double Acc = 0;
  for (double X : Xs) {
    double V = X;
    for (int I = 0; I < Depth; ++I)
      V += 1.0;
    Acc += V;
  }
  return Acc;
}

} // namespace

int main() {
  const std::vector<double> Xs = uniformDoubles(N, 41, 0, 1);
  const std::int64_t Items = N * kPasses;
  header("Ablation C: per-element overhead anatomy, " + std::to_string(N) +
         " doubles x " + std::to_string(kPasses) + " passes per call");

  Rounds R(kRounds);
  auto add = [&](const std::string &Name, std::function<double()> Pass) {
    R.add(Name, Items, [Pass = std::move(Pass)] {
      for (int P = 0; P != kPasses; ++P)
        doNotOptimize(Pass());
    });
  };

  // Iterator chains of increasing depth: Depth stacked Selects, then Sum.
  std::vector<linq::Seq<double>> Chains;
  for (int Depth : {1, 2, 4, 8}) {
    linq::Seq<double> S = linq::fromSpan(Xs.data(), Xs.size());
    for (int I = 0; I < Depth; ++I)
      S = S.select([](double X) { return X + 1.0; });
    Chains.push_back(S);
  }
  for (std::size_t I = 0; I != Chains.size(); ++I)
    add("linq_chain_" + std::to_string(1 << I),
        [&Chains, I] { return Chains[I].sum(); });
  add("fused_chain_1", [&] { return fusedChainOnce<1>(Xs); });
  add("fused_chain_2", [&] { return fusedChainOnce<2>(Xs); });
  add("fused_chain_4", [&] { return fusedChainOnce<4>(Xs); });
  add("fused_chain_8", [&] { return fusedChainOnce<8>(Xs); });

  // Indirect user-function call per element (the delegate cost), and the
  // same body inlined.
  std::function<double(double)> Fn = [](double X) { return X * X; };
  add("std_function_call", [&] {
    double Acc = 0;
    for (double X : Xs)
      Acc += Fn(X);
    return Acc;
  });
  add("inlined_call", [&] {
    double Acc = 0;
    for (double X : Xs)
      Acc += X * X;
    return Acc;
  });

  // State-machine cost: a Where that passes everything, LINQ vs fused.
  linq::Seq<double> PassAll = linq::fromSpan(Xs.data(), Xs.size())
                                  .where([](double X) { return X >= 0.0; });
  add("linq_where_pass_all", [&] { return PassAll.sum(); });
  add("fused_where_pass_all", [&] {
    return fused::from(Xs) | fused::where([](double X) { return X >= 0.0; }) |
           fused::sum();
  });
  R.run();

  std::printf("\n%-22s %26s %12s\n", "variant", "ns/element (q1-q3)",
              "Melem/s");
  for (int V = 0; V != R.variants(); ++V) {
    Summary S = R.summary(V);
    double PerNs = 1e9 / static_cast<double>(Items);
    std::printf("%-22s %10.3f (%.3f-%.3f) %12.0f\n", R.name(V).c_str(),
                S.Median * PerNs, S.Q1 * PerNs, S.Q3 * PerNs,
                static_cast<double>(Items) / S.Median / 1e6);
  }
  std::printf("(median and quartiles of %d interleaved rounds)\n", kRounds);

  JsonReport Json("abl_overhead");
  Json.add(R);
  return 0;
}
