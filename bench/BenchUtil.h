//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
///
/// \file
/// The one timing harness of the per-figure benchmark binaries. Each
/// binary reproduces one table/figure of the paper and prints rows in the
/// paper's shape (see EXPERIMENTS.md for the mapping).
///
/// Every variant is timed the same way: a binary registers its variants
/// with a Rounds, which runs each once untimed and then times them in
/// interleaved rounds, the order changing from round to round (see
/// roundOrders) so that no variant always runs first and a drift of the
/// host's speed hits all variants alike. A figure's ratio, and every
/// gate, is read off the median over rounds of the per-round ratio
/// (Rounds::ratio): each round pairs times taken moments apart, and a
/// preempted round moves the median little. JsonReport writes each
/// variant's median, quartiles and best with the host they ran on.
///
/// Sizes are the paper's where a laptop allows, and scale with the
/// STENO_BENCH_SCALE environment variable (a double multiplier; set it
/// below 1 for quick smoke runs, e.g. STENO_BENCH_SCALE=0.1).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_BENCH_BENCHUTIL_H
#define STENO_BENCH_BENCHUTIL_H

#include "support/Random.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace steno {
namespace bench {

/// Global size multiplier from STENO_BENCH_SCALE (default 1.0).
inline double scaleFactor() {
  static const double Scale = [] {
    const char *Env = std::getenv("STENO_BENCH_SCALE");
    double V = Env ? std::atof(Env) : 1.0;
    return V > 0 ? V : 1.0;
  }();
  return Scale;
}

/// N scaled by STENO_BENCH_SCALE, at least 1.
inline std::int64_t scaled(std::int64_t N) {
  double V = static_cast<double>(N) * scaleFactor();
  return V < 1 ? 1 : static_cast<std::int64_t>(V);
}

/// The median, quartiles and minimum of a sample.
struct Summary {
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
  double Best = 0;
};

/// The quantile \p Q (in [0, 1]) of the non-empty, sorted \p Sorted,
/// linearly interpolated between neighbouring order statistics.
inline double quantile(const std::vector<double> &Sorted, double Q) {
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] +
         (Pos - static_cast<double>(Lo)) * (Sorted[Hi] - Sorted[Lo]);
}

/// Summarizes the non-empty sample \p Xs.
inline Summary summarize(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  return {quantile(Xs, 0.5), quantile(Xs, 0.25), quantile(Xs, 0.75),
          Xs.front()};
}

/// Median of the non-empty \p Xs (the mean of the middle two for an even
/// count).
inline double median(std::vector<double> Xs) {
  return summarize(std::move(Xs)).Median;
}

/// Median over rounds r of Num[r] / Den[r]. Unlike the ratio of the two
/// medians, it pairs each time with the one taken in the same round.
inline double medianRatio(const std::vector<double> &Num,
                          const std::vector<double> &Den) {
  std::vector<double> Ratios(Num.size());
  for (std::size_t R = 0; R != Num.size(); ++R)
    Ratios[R] = Num[R] / Den[R];
  return median(std::move(Ratios));
}

/// Median over rounds r of A[r] - B[r].
inline double medianDifference(const std::vector<double> &A,
                               const std::vector<double> &B) {
  std::vector<double> Diffs(A.size());
  for (std::size_t R = 0; R != A.size(); ++R)
    Diffs[R] = A[R] - B[R];
  return median(std::move(Diffs));
}

/// The order in which each of \p Count rounds runs \p Variants variants:
/// the permutations in lexicographic order, each run forward in one round
/// and reversed in the next. So within every two rounds each pair of
/// variants runs once in each order, no variant (of two or more) always
/// runs first, and every 2 * Variants! rounds each order runs twice.
inline std::vector<std::vector<int>> roundOrders(int Variants, int Count) {
  std::vector<int> Order(static_cast<std::size_t>(Variants));
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<std::vector<int>> Out;
  Out.reserve(static_cast<std::size_t>(Count));
  for (int R = 0; R != Count; ++R) {
    if (R % 2 == 0) {
      Out.push_back(Order);
      continue;
    }
    Out.emplace_back(Order.rbegin(), Order.rend());
    std::next_permutation(Order.begin(), Order.end());
  }
  return Out;
}

/// Times a bench's variants in interleaved rounds. Register each variant
/// with add(), then call run() once: every variant runs once untimed
/// (page faults, code fill, lazy set-up), then once per round in the
/// order roundOrders gives, and its wall-clock seconds are kept per round.
class Rounds {
public:
  explicit Rounds(int Count) : Count(Count) {}

  /// Registers a variant that processes \p Items elements per call and
  /// returns its index.
  int add(std::string Name, std::int64_t Items, std::function<void()> Fn) {
    Vars.push_back({std::move(Name), Items, std::move(Fn), {}});
    return static_cast<int>(Vars.size()) - 1;
  }

  void run() {
    for (Variant &V : Vars)
      V.Fn();
    for (const std::vector<int> &Order :
         roundOrders(static_cast<int>(Vars.size()), Count))
      for (int I : Order) {
        Variant &V = Vars[static_cast<std::size_t>(I)];
        support::WallTimer T;
        V.Fn();
        V.Seconds.push_back(T.seconds());
      }
  }

  int variants() const { return static_cast<int>(Vars.size()); }
  const std::string &name(int V) const { return at(V).Name; }
  std::int64_t items(int V) const { return at(V).Items; }
  /// Seconds of variant \p V, one per round.
  const std::vector<double> &seconds(int V) const { return at(V).Seconds; }
  Summary summary(int V) const { return summarize(at(V).Seconds); }
  /// Median over rounds of A's time / B's time.
  double ratio(int A, int B) const {
    return medianRatio(seconds(A), seconds(B));
  }

private:
  struct Variant {
    std::string Name;
    std::int64_t Items;
    std::function<void()> Fn;
    std::vector<double> Seconds;
  };
  const Variant &at(int V) const {
    return Vars[static_cast<std::size_t>(V)];
  }

  int Count;
  std::vector<Variant> Vars;
};

/// Defeats dead-code elimination of a computed value.
inline void doNotOptimize(double V) {
  __asm__ __volatile__("" : : "g"(V) : "memory");
}

inline void doNotOptimize(std::int64_t V) {
  __asm__ __volatile__("" : : "g"(V) : "memory");
}

/// Uniform doubles in [Lo, Hi), deterministic.
inline std::vector<double> uniformDoubles(std::int64_t N,
                                          std::uint64_t Seed,
                                          double Lo = 0.0,
                                          double Hi = 1000.0) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(static_cast<size_t>(N));
  for (double &V : Out)
    V = Rng.nextDouble(Lo, Hi);
  return Out;
}

/// The paper's Group input: a one-dimensional mixture of Gaussians.
inline std::vector<double> mixtureOfGaussians(std::int64_t N,
                                              std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  const double Means[] = {100.0, 400.0, 750.0};
  const double Sigmas[] = {40.0, 90.0, 30.0};
  const double Weights[] = {0.5, 0.3, 0.2};
  std::vector<double> Out;
  Out.reserve(static_cast<size_t>(N));
  while (Out.size() < static_cast<size_t>(N)) {
    double U = Rng.nextDouble();
    int C = U < Weights[0] ? 0 : (U < Weights[0] + Weights[1] ? 1 : 2);
    double V = Means[C] + Sigmas[C] * Rng.nextGaussian();
    if (V >= 0.0 && V < 1000.0)
      Out.push_back(V);
  }
  return Out;
}

/// Prints a section header for a figure/table.
inline void header(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

/// "median (q1-q3)" of \p S in milliseconds.
inline std::string msCell(const Summary &S) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.1f (%.1f-%.1f)", S.Median * 1e3,
                S.Q1 * 1e3, S.Q3 * 1e3);
  return Buf;
}

/// Prints every variant of \p R: its median and quartiles in ms, and its
/// time relative to variant \p Base as the median of per-round ratios.
inline void printRelative(const Rounds &R, int Base) {
  std::printf("%-26s %24s %12s %9s\n", "variant", "ms (q1-q3)",
              ("rel. to " + R.name(Base)).c_str(), "speedup");
  for (int V = 0; V != R.variants(); ++V) {
    double Rel = R.ratio(V, Base);
    std::printf("%-26s %24s %11.1f%% %8.2fx\n", R.name(V).c_str(),
                msCell(R.summary(V)).c_str(), 100.0 * Rel, 1.0 / Rel);
  }
}

/// The machine a bench runs on, with the fields stenobench/run_all.sh
/// writes to host.json: hardware threads, CPU model, compiler.
inline std::string hostJson() {
  std::string Cpu = "unknown";
  std::ifstream Info("/proc/cpuinfo");
  for (std::string Line; std::getline(Info, Line);)
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Cpu = Line.substr(Line.find_first_not_of(' ', Colon + 1));
      break;
    }
  // The build's compiler (which the JIT also runs) and its version.
  return "{\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + Cpu + "\", \"compiler\": \"" STENO_HOST_CXX
         " " __VERSION__ "\"}";
}

/// Machine-readable companion to the human tables: one entry per measured
/// variant, written to BENCH_<binary>.json on destruction with the host
/// and the scale, so the repo's perf trajectory can be tracked across
/// commits without scraping stdout. Files land in $STENO_BENCH_OUT if
/// set, else the working directory.
class JsonReport {
public:
  /// \p Binary names the output file (BENCH_<Binary>.json).
  explicit JsonReport(std::string Binary) : Binary(std::move(Binary)) {}

  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;

  /// Records one variant from its per-round \p Seconds over \p Items
  /// elements per round: median, quartiles, best, the round count, and
  /// ns per item at the median.
  void add(const std::string &Name, std::int64_t Items,
           const std::vector<double> &Seconds) {
    Summary S = summarize(Seconds);
    double PerItem = Items > 0 ? static_cast<double>(Items) : 1.0;
    char Buf[512];
    std::snprintf(Buf, sizeof Buf,
                  "    {\"name\": \"%s\", \"items\": %lld, \"rounds\": %zu, "
                  "\"median_s\": %.9g, \"q1_s\": %.9g, \"q3_s\": %.9g, "
                  "\"best_s\": %.9g, \"ns_per_op\": %.3f}",
                  Name.c_str(), static_cast<long long>(Items),
                  Seconds.size(), S.Median, S.Q1, S.Q3, S.Best,
                  S.Median * 1e9 / PerItem);
    if (!Entries.empty())
      Entries += ",\n";
    Entries += Buf;
  }

  /// Records every variant of \p R, each name prefixed by \p Prefix.
  void add(const Rounds &R, const std::string &Prefix = "") {
    for (int V = 0; V != R.variants(); ++V)
      add(Prefix + R.name(V), R.items(V), R.seconds(V));
  }

  ~JsonReport() {
    const char *Dir = std::getenv("STENO_BENCH_OUT");
    std::string Path = (Dir && *Dir ? std::string(Dir) + "/" : std::string()) +
                       "BENCH_" + Binary + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write %s\n", Path.c_str());
      return;
    }
    std::fprintf(F,
                 "{\n  \"binary\": \"%s\",\n  \"host\": %s,\n"
                 "  \"scale\": %g,\n  \"results\": [\n%s\n  ]\n}\n",
                 Binary.c_str(), hostJson().c_str(), scaleFactor(),
                 Entries.c_str());
    std::fclose(F);
  }

private:
  std::string Binary;
  std::string Entries;
};

} // namespace bench
} // namespace steno

#endif // STENO_BENCH_BENCHUTIL_H
