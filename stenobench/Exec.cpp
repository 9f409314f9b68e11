//===- stenobench/Exec.cpp - The `exec` and `exec_stream` workloads -------===//
//
// The library user: compile once, run many times. Nine queries: Figure 1's
// sum of squares of doubles, the shapes of the paper's Figure 13 and of
// the sum / sumOfSquares / sumOfSquaresEven / cart suite of "Clash of the
// Lambdas", a GroupBy, a sort, a 50%-selective filter and an early exit.
//
//   exec         in-cache inputs, each query compiled for the Native
//                backend, the library's default; the end-to-end numbers
//                come from these runs. A traced run also compiles each
//                for the Interp backend and runs the splittable ones plus
//                `cart_skew` through dryad::DistributedQuery::runParallel
//                on a 4-worker pool, for per-layer numbers.
//   exec_stream  the queries that stream their input, natively, at
//                Figure 1's scale: every input is many times a core's
//                cache, so each run reads it from the shared L3 or memory.
//
// The measured phase interleaves every (query, backend) pair
// round-robin, so drift in the machine's speed hits all of them alike.
// Time goes to generated code (codegen, jit), the batch kernels (vec,
// interp) and morsel scheduling (dryad); serve, shard and the wire are
// bypassed.
//
// Each round ends with the hand-written loops, Figure 1's baseline, over
// the same inputs. The host is a few vCPUs of a shared machine whose
// speed moves by 10-20% from one minute to the next; the loops are
// harness code no change to src/ touches, so how long they took in a
// round measures the host's speed in that round. The end-to-end times
// are calibrated with it: each native run's time is divided by its
// round's loop speed relative to the reference host's (kRefLoopNsPerRow).
// That keeps what the code costs and drops what the host's state added:
// across ten runs of one commit the calibrated median spread by 3-5%
// between quartiles where the raw one spread by 9-21%. The p99 is
// calibrated by the loops' p99 (kRefLoopTail): a host stall delays a loop
// as often as a native run.
//
// Set-up is calibrated the same way. Its time goes mostly to the C++
// compiler the JIT runs, so a hand-written query compiled by that
// compiler with the JIT's flags, as many at once as the set-up compiles
// (referenceCompileS), is timed before and after each set-up, and the
// set-up's compile time is divided by their mean relative to the
// reference host's (kRefCompileS).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "analysis/Analysis.h"
#include "analysis/Rewrite.h"
#include "codegen/Generator.h"
#include "codegen/VecGen.h"
#include "cpptree/Printer.h"
#include "dryad/Dist.h"
#include "expr/Dsl.h"
#include "jit/Jit.h"
#include "obs/Metrics.h"
#include "quil/Quil.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"
#include "support/Random.h"
#include "support/TempFile.h"
#include "support/Timing.h"
#include "vec/BatchExec.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <sys/resource.h>
#include <thread>
#include <unordered_map>

using namespace steno;
using namespace steno::bench;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

constexpr unsigned kPoolWorkers = 4;
constexpr unsigned kSetupReps = 3;
constexpr unsigned kMinRounds = 15;
/// exec_stream's inputs are this many times exec's: 4 M rows, 32 MB, per
/// input, against 2 MB of L2 per core.
constexpr unsigned kStreamScale = 32;
/// The reference host's speed on the suites' hand-written loops: the
/// geometric mean over the loops of their median time per input row, the
/// median of ten runs on 4 vCPUs of an Intel Xeon (g++ 12.2.0, Release)
/// when the benchmark was introduced. Fixed from then on: it sets the
/// scale of the calibrated times, not what they compare.
constexpr double kRefLoopNsPerRow = 2.72;       // exec
constexpr double kRefStreamLoopNsPerRow = 1.87; // exec_stream
/// The reference host's loop tail, the median of five runs: the 99th
/// percentile of the loops' calibrated times relative to their loop's
/// median.
constexpr double kRefLoopTail = 1.40;       // exec
constexpr double kRefStreamLoopTail = 1.19; // exec_stream
/// The reference host's time for referenceCompileS(): the median over
/// seventeen runs on the same host, fixed from then on like the loops'.
constexpr double kRefCompileS = 1.8;

/// A hand-written query for the reference compile: Figure 1's loop and a
/// hash-map count, over the headers a generated translation unit pulls in
/// (steno/Rt.h's and the printers' own).
constexpr const char *kRefSource = R"(#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>
#include <vector>

extern "C" double stb_ref_sumsq(const double *X, std::int64_t N) {
  double Acc = 0;
  for (std::int64_t I = 0; I < N; ++I)
    Acc += X[I] * X[I];
  return Acc;
}

extern "C" std::int64_t stb_ref_groups(const double *X, std::int64_t N) {
  std::unordered_map<std::int64_t, std::int64_t> Counts;
  for (std::int64_t I = 0; I < N; ++I)
    ++Counts[static_cast<std::int64_t>(std::floor(X[I]))];
  std::vector<std::pair<std::int64_t, std::int64_t>> Out(Counts.begin(),
                                                         Counts.end());
  std::sort(Out.begin(), Out.end());
  return static_cast<std::int64_t>(Out.size());
}
)";

/// One suite entry: the query, its seeded inputs, and a hand-written loop
/// computing the same answer (the Figure 1 / Figure 13 baseline).
struct ExecQuery {
  std::string Name;
  bool RunNative = false, RunInterp = false; ///< Serial backends it runs on.
  bool RunParallel = false; ///< Runs through DistributedQuery::runParallel.
  Query Q;
  std::vector<double> D0, D1;
  std::vector<std::int64_t> I0;
  Bindings B;
  double Rows = 0; ///< Input rows one run consumes (ns/row denominator).
  std::function<double(const ExecQuery &)> Hand;

  CompiledQuery Native, Interp;
  std::unique_ptr<dryad::DistributedQuery> Dist; ///< Null when serial.
  double CompileMs = 0;
  QueryResult Expected;
};

std::vector<double> uniformD(std::size_t N, std::uint64_t Seed, double Lo,
                             double Hi) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(N);
  for (double &V : Out)
    V = Rng.nextDouble(Lo, Hi);
  return Out;
}

std::vector<std::int64_t> uniformI(std::size_t N, std::uint64_t Seed,
                                   std::uint64_t Below) {
  support::SplitMix64 Rng(Seed);
  std::vector<std::int64_t> Out(N);
  for (std::int64_t &V : Out)
    V = static_cast<std::int64_t>(Rng.nextBelow(Below));
  return Out;
}

/// The paper's Group input: a mixture of three Gaussians over [0, 1000).
std::vector<double> mixture(std::size_t N, std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  const double Means[] = {100.0, 400.0, 750.0}, Sig[] = {40.0, 90.0, 30.0};
  std::vector<double> Out;
  Out.reserve(N);
  while (Out.size() < N) {
    double U = Rng.nextDouble();
    int C = U < 0.5 ? 0 : (U < 0.8 ? 1 : 2);
    double V = Means[C] + Sig[C] * Rng.nextGaussian();
    if (V >= 0.0 && V < 1000.0)
      Out.push_back(V);
  }
  return Out;
}

void bindAll(ExecQuery &E) {
  E.B = Bindings();
  if (!E.I0.empty())
    E.B.bindInt64Array(0, E.I0.data(), static_cast<std::int64_t>(E.I0.size()));
  if (!E.D0.empty())
    E.B.bindDoubleArray(0, E.D0.data(), static_cast<std::int64_t>(E.D0.size()));
  if (!E.D1.empty())
    E.B.bindDoubleArray(1, E.D1.data(), static_cast<std::int64_t>(E.D1.size()));
}

/// Builds the queries named in \p Names (in suite order) with inputs drawn
/// from \p Seed, \p Scale times the base size (cart_skew's work grows
/// with the square of its input).
std::vector<ExecQuery> buildQueries(std::uint64_t Seed, bool Smoke,
                                    unsigned Scale,
                                    const std::vector<std::string> &Names) {
  std::size_t Div = Smoke ? 8 : 1;
  std::size_t N = Scale * (1u << 17) / Div, Sort = Scale * (1u << 15) / Div;
  std::size_t CartOuter = Scale * 256 / Div, CartInner = 512;
  std::size_t SkewN = static_cast<std::size_t>(1024 * std::sqrt(Scale)) / Div;
  auto seedOf = [&](unsigned I) { return Seed * 0x9E3779B97F4A7C15ull + I; };
  auto Xd = param("x", Type::doubleTy());
  auto Yd = param("y", Type::doubleTy());
  auto Xi = param("x", Type::int64Ty());
  auto Di = param("d", Type::int64Ty());

  std::vector<ExecQuery> S;
  auto want = [&](const char *Name) -> ExecQuery * {
    if (std::find(Names.begin(), Names.end(), Name) == Names.end())
      return nullptr;
    S.emplace_back();
    S.back().Name = Name;
    return &S.back();
  };
  // sum: xs.Sum()
  if (ExecQuery *P = want("sum")) {
    ExecQuery &T = *P;
    T.I0 = uniformI(N, seedOf(0), 1000);
    T.Q = Query::int64Array(0).sum();
    T.Hand = [](const ExecQuery &T) {
      std::int64_t Acc = 0;
      for (std::int64_t X : T.I0)
        Acc += X;
      return static_cast<double>(Acc);
    };
  }
  // sumsq: xs.Select(x => x * x).Sum()
  if (ExecQuery *P = want("sumsq")) {
    ExecQuery &T = *P;
    T.I0 = uniformI(N, seedOf(1), 1000);
    T.Q = Query::int64Array(0).select(lambda({Xi}, Xi * Xi)).sum();
    T.Hand = [](const ExecQuery &T) {
      std::int64_t Acc = 0;
      for (std::int64_t X : T.I0)
        Acc += X * X;
      return static_cast<double>(Acc);
    };
  }
  // fig1_sumsq: Figure 1's query, sumsq over doubles
  if (ExecQuery *P = want("fig1_sumsq")) {
    ExecQuery &T = *P;
    T.D0 = uniformD(N, seedOf(9), 0, 1);
    T.Q = Query::doubleArray(0).select(lambda({Xd}, Xd * Xd)).sum();
    T.Hand = [](const ExecQuery &T) {
      double Acc = 0;
      for (double X : T.D0)
        Acc += X * X;
      return Acc;
    };
  }
  // sumsq_even: xs.Where(x => x % 2 == 0).Select(x => x * x).Sum()
  if (ExecQuery *P = want("sumsq_even")) {
    ExecQuery &T = *P;
    T.I0 = uniformI(N, seedOf(2), 1000);
    T.Q = Query::int64Array(0)
              .where(lambda({Xi}, Xi % E(2) == E(0)))
              .select(lambda({Xi}, Xi * Xi))
              .sum();
    T.Hand = [](const ExecQuery &T) {
      std::int64_t Acc = 0;
      for (std::int64_t X : T.I0)
        if (X % 2 == 0)
          Acc += X * X;
      return static_cast<double>(Acc);
    };
  }
  // cart: xs.SelectMany(x => ys.Select(y => x * y)).Sum()
  if (ExecQuery *P = want("cart")) {
    ExecQuery &T = *P;
    T.D0 = uniformD(CartOuter, seedOf(3), 0, 1);
    T.D1 = uniformD(CartInner, seedOf(4), 0, 1);
    T.Q = Query::doubleArray(0)
              .selectMany(Xd,
                          Query::doubleArray(1).select(lambda({Yd}, Xd * Yd)))
              .sum();
    T.Hand = [](const ExecQuery &T) {
      double Acc = 0;
      for (double X : T.D0)
        for (double Y : T.D1)
          Acc += X * Y;
      return Acc;
    };
  }
  // group: the §4.3 GroupBy + bag count, specialized to GroupByAggregate
  // by the compiler.
  if (ExecQuery *P = want("group")) {
    ExecQuery &T = *P;
    T.D0 = mixture(N, seedOf(5));
    auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
    auto C = param("c", Type::int64Ty());
    auto V = param("v", Type::doubleTy());
    Query BagCount = Query::overVec(G.second())
                         .aggregate(E(0), lambda({C, V}, C + E(1)),
                                    lambda({C}, pair(G.first(), C)));
    T.Q = Query::doubleArray(0)
              .groupBy(lambda({Xd}, toInt64(Xd)))
              .selectNested(G, BagCount);
    T.Hand = [](const ExecQuery &T) {
      std::unordered_map<std::int64_t, std::int64_t> Counts;
      for (double X : T.D0)
        ++Counts[static_cast<std::int64_t>(X)];
      return static_cast<double>(Counts.size());
    };
  }
  // sort: xs.OrderBy(x => x).ToArray()
  if (ExecQuery *P = want("sort")) {
    ExecQuery &T = *P;
    T.D0 = uniformD(Sort, seedOf(6), -1000, 1000);
    T.Q = Query::doubleArray(0).orderBy(lambda({Xd}, Xd)).toArray();
    T.Hand = [](const ExecQuery &T) {
      std::vector<double> Copy = T.D0;
      std::stable_sort(Copy.begin(), Copy.end());
      return Copy.front();
    };
  }
  // filter_count: xs.Where(x => x > 0).Count(), ~50% selective
  if (ExecQuery *P = want("filter_count")) {
    ExecQuery &T = *P;
    T.D0 = uniformD(N, seedOf(7), -1, 1);
    T.Q = Query::doubleArray(0).where(lambda({Xd}, Xd > E(0.0))).count();
    T.Hand = [](const ExecQuery &T) {
      std::int64_t N = 0;
      for (double X : T.D0)
        N += X > 0;
      return static_cast<double>(N);
    };
  }
  // take_while: ascending xs.TakeWhile(x < half).Sum() exits halfway
  if (ExecQuery *P = want("take_while")) {
    ExecQuery &T = *P;
    support::SplitMix64 Rng(seedOf(8));
    T.D0.resize(N);
    double Acc = 0;
    for (double &X : T.D0)
      X = Acc += Rng.nextDouble(0, 2);
    double Half = T.D0[N / 2];
    T.Q = Query::doubleArray(0).takeWhile(lambda({Xd}, Xd < E(Half))).sum();
    T.Hand = [Half](const ExecQuery &T) {
      double S = 0;
      for (double X : T.D0) {
        if (!(X < Half))
          break;
        S += X;
      }
      return S;
    };
  }
  // cart_skew: ascending xs.SelectMany(x => Range(0, x).Select(d => d + x))
  // — per-element cost grows toward the tail (parallel runs only).
  if (ExecQuery *P = want("cart_skew")) {
    ExecQuery &T = *P;
    T.I0.resize(SkewN);
    for (std::size_t I = 0; I != SkewN; ++I)
      T.I0[I] = static_cast<std::int64_t>(I);
    T.Q = Query::int64Array(0)
              .selectMany(Xi, Query::range(E(0), Xi)
                                  .select(lambda({Di}, Di + Xi)))
              .sum();
  }

  for (ExecQuery &T : S) {
    bindAll(T);
    if (T.Name == "cart")
      T.Rows = static_cast<double>(T.D0.size() * T.D1.size());
    else if (T.Name == "cart_skew")
      T.Rows = static_cast<double>(SkewN) * static_cast<double>(SkewN - 1) / 2;
    else
      T.Rows = static_cast<double>(T.I0.empty() ? T.D0.size() : T.I0.size());
  }
  return S;
}

/// The queries exec_stream runs: those that read their input once, front
/// to back. Not sort (its cost is the sort), nor cart (its inputs are
/// small by construction).
const std::vector<std::string> &streamNames() {
  static const std::vector<std::string> N = {
      "sum",   "sumsq",        "fig1_sumsq", "sumsq_even",
      "group", "filter_count", "take_while"};
  return N;
}

/// The exec suite: the nine serial queries at base size, whose data fits
/// in one core's L2 (2 MB on the reference host), natively. A traced run
/// adds the Interp backend and the parallel queries at four times that
/// size, so each of the 4 workers' shares fits its own L2 (a fan-out of a
/// few hundred microseconds would measure thread wake-ups more than the
/// morsel runtime). The exec_stream suite: streamNames() at kStreamScale
/// times the base size, natively; together its inputs (224 MB) exceed the
/// host's L3, so a query's input has left the cache by the time the
/// round-robin comes back to it.
std::vector<ExecQuery> buildSuite(std::uint64_t Seed, bool Smoke, bool Stream,
                                  bool Traced) {
  if (Stream) {
    std::vector<ExecQuery> Suite =
        buildQueries(Seed, Smoke, kStreamScale, streamNames());
    for (ExecQuery &E : Suite)
      E.RunNative = true;
    return Suite;
  }
  std::vector<ExecQuery> Suite =
      buildQueries(Seed, Smoke, 1, execQueryNames());
  for (ExecQuery &E : Suite) {
    E.RunNative = true;
    E.RunInterp = Traced;
  }
  if (!Traced)
    return Suite;
  for (ExecQuery &E : buildQueries(Seed + 1, Smoke, 4, execParallelNames())) {
    E.RunParallel = true;
    Suite.push_back(std::move(E));
  }
  return Suite;
}

/// Runs \p Tasks on kPoolWorkers threads, each taking the next task left.
void runConcurrently(const std::vector<std::function<void()>> &Tasks) {
  std::atomic<std::size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != kPoolWorkers; ++W)
    Threads.emplace_back([&] {
      for (std::size_t I; (I = Next.fetch_add(1)) < Tasks.size();)
        Tasks[I]();
    });
  for (std::thread &T : Threads)
    T.join();
}

/// Seconds to compile kRefSource into kPoolWorkers shared objects at once,
/// with the compiler and flags of jit::CompiledModule::compile and as many
/// compiles running as compileSuite keeps; -1 when a compile failed.
/// Harness code no change to src/ touches, so it measures how fast the
/// host runs the compiler at the time.
double referenceCompileS() {
  const std::string &Dir = support::processTempDir();
  std::string Src = Dir + "/stb_ref.cpp";
  support::writeFile(Src, kRefSource);
  std::atomic<bool> Ok{true};
  std::vector<std::function<void()>> Tasks;
  for (unsigned W = 0; W != kPoolWorkers; ++W)
    Tasks.push_back([&, W] {
      std::string Cmd = "'" STENO_HOST_CXX "' -std=c++20 -O3 -fPIC -shared -o '" +
                        Dir + "/stb_ref_" + std::to_string(W) + ".so' '" +
                        Src + "' > /dev/null 2>&1";
      if (std::system(Cmd.c_str()) != 0)
        Ok = false;
    });
  support::WallTimer T;
  runConcurrently(Tasks);
  return Ok ? T.seconds() : -1;
}

/// Compiles every entry for the backends it runs on, on kPoolWorkers
/// threads: a library user warming a process compiles its queries
/// concurrently. Returns false when an expected-parallel query compiled
/// into the sequential fallback.
bool compileSuite(std::vector<ExecQuery> &S, std::string &Err) {
  std::vector<std::function<void()>> Tasks;
  for (ExecQuery &E : S) {
    if (E.RunNative)
      Tasks.push_back([&E] {
        Span Sp("steno.compile_native");
        support::WallTimer T;
        CompileOptions O;
        O.Name = "stb_" + E.Name;
        E.Native = compileQuery(E.Q, O);
        E.CompileMs = T.millis();
      });
    if (E.RunInterp)
      Tasks.push_back([&E] {
        Span Sp("steno.compile_interp");
        CompileOptions O;
        O.Exec = Backend::Interp;
        O.Name = "stb_" + E.Name;
        E.Interp = compileQuery(E.Q, O);
      });
    if (E.RunParallel)
      Tasks.push_back([&E] {
        Span Sp("dryad.compile");
        dryad::DistOptions O;
        O.Name = "stb_dist_" + E.Name;
        O.WarnSequentialFallback = false;
        E.Dist = std::make_unique<dryad::DistributedQuery>(
            dryad::DistributedQuery::compile(E.Q, O));
      });
  }
  runConcurrently(Tasks);
  for (const ExecQuery &E : S)
    if (E.Dist && !E.Dist->parallel()) {
      Err = "exec query '" + E.Name + "' compiled into the sequential "
            "fallback: " + E.Dist->whyNotParallel();
      return false;
    }
  return true;
}

/// Per-(query, backend) latency samples in microseconds.
struct Kind {
  std::string Query, Backend;
  double Rows = 0;
  std::vector<double> Micros;
};

struct Counters {
  std::uint64_t Dispatched, Steals, Splits, Busy, Idle;
  static Counters read() {
    return {obs::counter("dryad.morsel.dispatched").value(),
            obs::counter("dryad.morsel.steals").value(),
            obs::counter("dryad.morsel.splits").value(),
            obs::counter("dryad.morsel.busy_micros").value(),
            obs::counter("dryad.morsel.idle_micros").value()};
  }
};

struct ReplayTimes {
  std::map<std::string, std::vector<double>> Phase; ///< Metric -> samples.
  double RewriteCerts = 0;
  /// A replayed plan hash differed from planHash(), or the replayed
  /// source failed to compile or load.
  bool Failed = false;
};

/// Replays compileQuery's phase order (Steno.cpp) through each phase's
/// public function, timing each, and checks that the replayed plan hash
/// equals the compiled query's planHash().
void replayCompile(const ExecQuery &E, unsigned Index, ReplayTimes &R) {
  CompileOptions O; // the defaults compileQuery ran with
  auto timed = [&](const char *SpanName, const char *Metric, auto Fn) {
    Span Sp(SpanName);
    support::WallTimer T;
    Fn();
    R.Phase[Metric].push_back(T.seconds() * 1e6);
  };
  quil::Chain Chain;
  timed("quil.lower", "quil.lower_us", [&] { Chain = quil::lower(E.Q); });
  timed("quil.validate", "quil.validate_us",
        [&] { (void)quil::validate(Chain); });
  if (O.Analyze != analysis::Mode::Off)
    timed("analysis.analyze", "analysis.analyze_us",
          [&] { (void)analysis::analyzeChain(Chain); });
  timed("analysis.rewrite", "analysis.rewrite_us", [&] {
    if (O.Rewrite && quil::chainHasRewriteTargets(Chain)) {
      quil::RewriteResult RR = quil::rewriteChain(Chain);
      R.RewriteCerts += static_cast<double>(RR.Certs.size());
      if (RR.Changed)
        Chain = RR.Rewritten;
    }
  });
  if (O.SpecializeGroupByAggregate)
    timed("quil.specialize", "quil.specialize_us",
          [&] { Chain = quil::specializeGroupByAggregate(Chain); });
  std::string Entry = "stb_replay_" + E.Name + "_" + std::to_string(Index);
  cpptree::Program Prog;
  cpptree::SlotUsage Slots;
  std::string Source;
  timed("codegen.generate", "codegen.generate_us", [&] {
    codegen::GenOptions G;
    G.EnableCse = O.EnableCse;
    G.Profile = O.Profile;
    Prog = codegen::generate(Chain, Entry, G);
    Slots = cpptree::scanSlots(Prog);
  });
  timed("cpptree.print", "cpptree.print_us",
        [&] { Source = cpptree::printProgram(Prog); });
  if (O.Vectorize) {
    vec::VecPlan VP;
    timed("vec.plan", "vec.plan_us", [&] { VP = vec::planChain(Chain); });
    if (VP.Ok)
      timed("codegen.vecgen", "codegen.vecgen_us", [&] {
        Source = codegen::printVectorizedProgram(VP, Slots, Entry, O.Profile);
      });
  }
  R.Phase["codegen.tu_bytes"].push_back(static_cast<double>(Source.size()));
  std::uint64_t Hash = 0;
  {
    Span Sp("quil.hash");
    Hash = quil::hashChain(Chain);
  }
  if (Hash != E.Native.planHash())
    R.Failed = true;

  std::unique_ptr<jit::CompiledModule> M;
  {
    Span Sp("jit.compile");
    M = jit::CompiledModule::compile(Source, Entry);
  }
  if (!M) {
    R.Failed = true;
    return;
  }
  // dlopen of a fresh copy: a path the loader has never mapped.
  std::string Copy = M->objectPath() + ".copy.so";
  std::filesystem::copy_file(M->objectPath(), Copy,
                             std::filesystem::copy_options::overwrite_existing);
  double LoadMs = 0;
  {
    Span Sp("jit.dlopen");
    support::WallTimer T;
    std::unique_ptr<jit::CompiledModule> L =
        jit::CompiledModule::load(Copy, Entry);
    LoadMs = T.millis();
    if (!L)
      R.Failed = true;
  }
  R.Phase["jit.dlopen_ms"].push_back(LoadMs);
  R.Phase["jit.cc_ms"].push_back(M->compileMillis() - LoadMs);
  R.Phase["jit.so_bytes"].push_back(
      static_cast<double>(std::filesystem::file_size(M->objectPath())));
}

/// Median cost of one CompiledQuery::run on a 1-row input: the fixed
/// per-call overhead a request pays on top of its rows.
double runOverheadNs(const CompiledQuery &CQ) {
  std::int64_t One = 1;
  Bindings B;
  B.bindInt64Array(0, &One, 1);
  std::vector<double> Ns;
  for (int I = 0; I != 2000; ++I) {
    std::int64_t T0 = Tracer::nowNs();
    QueryResult R = CQ.run(B);
    Ns.push_back(static_cast<double>(Tracer::nowNs() - T0));
  }
  return median(Ns);
}

} // namespace

const std::vector<std::string> &steno::bench::execQueryNames() {
  static const std::vector<std::string> N = {
      "sum",   "sumsq", "fig1_sumsq",   "sumsq_even", "cart",
      "group", "sort",  "filter_count", "take_while"};
  return N;
}

const std::vector<std::string> &steno::bench::execParallelNames() {
  static const std::vector<std::string> N = {
      "sum", "sumsq", "sumsq_even", "cart", "filter_count", "cart_skew"};
  return N;
}

Outcome steno::bench::runExec(const RunConfig &C) {
  Outcome Out;
  bool Stream = C.Workload == "exec_stream";
  // Reference answers first, on a copy of the inputs: harness work that
  // must count neither as set-up nor as the system's memory. (No suite
  // result borrows its input buffers, so the copy can go.)
  std::vector<QueryResult> Expected;
  for (ExecQuery &E : buildSuite(C.Seed, C.Smoke, Stream, C.Traced)) {
    Span Sp("steno.run_reference");
    Expected.push_back(runReference(E.Q, E.B));
  }
  resetPeakRss();
  // An untraced run sets up kSetupReps times from nothing, each set-up
  // between two reference compiles. A set-up's compiles are calibrated
  // like the runs (see the file comment), over the mean of the two
  // reference compiles relative to the reference host's; generating the
  // inputs is harness code and counts as measured. A traced run sets up
  // once.
  std::vector<ExecQuery> Suite;
  std::string Err;
  std::vector<double> Setups, RawSetups, CompileFactor;
  double RefBefore = C.Traced ? 0 : referenceCompileS();
  for (unsigned I = 0; I != kSetupReps; ++I) {
    Suite.clear();
    support::WallTimer T;
    {
      Span Sp("bench.data");
      Suite = buildSuite(C.Seed, C.Smoke, Stream, C.Traced);
    }
    double DataS = T.seconds();
    if (!compileSuite(Suite, Err)) {
      Out.SetupError = Err;
      return Out;
    }
    RawSetups.push_back(T.seconds());
    if (C.Traced)
      break;
    double RefAfter = referenceCompileS();
    if (RefBefore < 0 || RefAfter < 0) {
      Out.SetupError = "the reference compile failed (" STENO_HOST_CXX ")";
      return Out;
    }
    CompileFactor.push_back((RefBefore + RefAfter) / 2 / kRefCompileS);
    Setups.push_back(DataS + (RawSetups.back() - DataS) / CompileFactor.back());
    RefBefore = RefAfter;
  }
  double SetupS = median(Setups);
  for (std::size_t I = 0; I != Suite.size(); ++I)
    Suite[I].Expected = std::move(Expected[I]);
  dryad::ThreadPool Pool(kPoolWorkers);

  std::vector<Kind> Kinds;
  enum class Path { Native, Interp, Parallel, Hand };
  struct Step {
    ExecQuery *E;
    Path How;
    std::size_t Kind;
  };
  std::vector<Step> Round;
  auto add = [&](ExecQuery &E, Path How, const char *Name) {
    Round.push_back({&E, How, Kinds.size()});
    Kinds.push_back({E.Name, Name, E.Rows, {}});
  };
  for (ExecQuery &E : Suite) {
    if (E.RunNative)
      add(E, Path::Native, "native");
    if (E.RunInterp)
      add(E, Path::Interp, "interp");
    if (E.RunParallel)
      add(E, Path::Parallel, "parallel");
  }
  // The hand-written loops come last in a round, so each reads its input
  // as cold as the native run did (in exec_stream, from memory).
  for (ExecQuery &E : Suite)
    if (E.RunNative)
      add(E, Path::Hand, "hand");

  // In a traced run, rounds alternate between recording spans and not;
  // the ratio of their median wall times is the tracing overhead.
  Counters Before = Counters::read();
  std::uint64_t Ops = 0, TracedOps = 0;
  unsigned Rounds = 0;
  std::vector<double> RoundS[2]; // [untraced, traced]
  /// Per round: the loops' time per row over the reference host's.
  std::vector<double> HostFactor;
  double RefNsPerRow = Stream ? kRefStreamLoopNsPerRow : kRefLoopNsPerRow;
  support::WallTimer Phase;
  Out.PhaseBeginNs = Tracer::nowNs();
  while (Rounds < (C.Smoke ? 2u : kMinRounds) || Phase.seconds() < C.Seconds) {
    bool TraceRound = C.Traced && Rounds % 2 == 0;
    Tracer::enable(TraceRound);
    support::WallTimer RoundT;
    std::uint64_t RoundOps = 0;
    std::vector<double> LoopNsPerRow;
    for (const Step &St : Round) {
      ExecQuery &E = *St.E;
      QueryResult R;
      std::int64_t T0 = 0, T1 = 0;
      switch (St.How) {
      case Path::Native: {
        Span Sp("jit.run");
        T0 = Tracer::nowNs();
        R = E.Native.run(E.B);
        T1 = Tracer::nowNs();
        break;
      }
      case Path::Interp: {
        Span Sp("interp.run");
        T0 = Tracer::nowNs();
        R = E.Interp.run(E.B);
        T1 = Tracer::nowNs();
        break;
      }
      case Path::Parallel: {
        Span Sp("dryad.run_parallel");
        T0 = Tracer::nowNs();
        R = E.Dist->runParallel(Pool, E.B);
        T1 = Tracer::nowNs();
        break;
      }
      case Path::Hand: {
        Span Sp("bench.hand_loop");
        T0 = Tracer::nowNs();
        double V = E.Hand(E);
        T1 = Tracer::nowNs();
        keep(V);
        break;
      }
      }
      Kinds[St.Kind].Micros.push_back(static_cast<double>(T1 - T0) / 1e3);
      if (St.How == Path::Hand) {
        LoopNsPerRow.push_back(static_cast<double>(T1 - T0) / E.Rows);
        continue;
      }
      ++RoundOps;
      Span Sp("bench.verify");
      if (!resultsMatch(R, E.Expected)) {
        ++Out.Failed;
        if (Out.Failed == 1)
          Out.Notes.push_back(C.Workload + ": " + E.Name + " (" +
                              Kinds[St.Kind].Backend +
                              ") disagrees with the reference");
      }
    }
    RoundS[TraceRound].push_back(RoundT.seconds());
    HostFactor.push_back(geomean(LoopNsPerRow) / RefNsPerRow);
    Ops += RoundOps;
    TracedOps += TraceRound ? RoundOps : 0;
    ++Rounds;
  }
  Tracer::enable(C.Traced);
  Counters After = Counters::read();
  Out.Attempted = Ops;
  Out.PhaseEndNs = Tracer::nowNs();
  Out.TracedOps = TracedOps;

  std::map<std::string, double> &M = Out.Metrics;
  if (!C.Traced) {
    // Untraced, the runs are the native ones and the loops, each
    // calibrated by its round's HostFactor. Latency is the geometric mean
    // over the queries of their native median. Its tail is the 99th
    // percentile of the native runs relative to their query's median,
    // over the same percentile of the loops' runs, times the reference
    // host's loop tail: a host stall delays a loop as often as a native
    // run, so what stays is a tail of the code's own. Throughput is the
    // median over rounds of native runs per second.
    std::vector<double> P50, Raw, RoundUs(Rounds, 0.0);
    std::vector<double> Relative[2]; // [native, loop]
    double PerRound = 0;
    for (const Kind &K : Kinds) {
      bool Native = K.Backend == "native";
      std::vector<double> Cal(Rounds);
      for (unsigned R = 0; R != Rounds; ++R)
        Cal[R] = K.Micros[R] / HostFactor[R];
      double Med = median(Cal);
      for (double Us : Cal)
        Relative[Native ? 0 : 1].push_back(Us / Med);
      if (!Native)
        continue;
      for (unsigned R = 0; R != Rounds; ++R)
        RoundUs[R] += Cal[R];
      P50.push_back(Med);
      Raw.push_back(median(K.Micros));
      ++PerRound;
    }
    for (std::vector<double> &V : Relative)
      std::sort(V.begin(), V.end());
    double Tail = percentileSorted(Relative[0], 0.99);
    double LoopTail = percentileSorted(Relative[1], 0.99);
    std::vector<double> RoundRps;
    for (double Us : RoundUs)
      RoundRps.push_back(PerRound / (Us / 1e6));
    M["setup_s"] = SetupS;
    M["throughput_rps"] = median(RoundRps);
    M["latency_p50_us"] = geomean(P50);
    M["latency_p99_us"] =
        geomean(P50) * Tail / LoopTail * (Stream ? kRefStreamLoopTail : kRefLoopTail);
    M["peak_rss_mb"] = peakRssMb();
    Out.Notes.push_back(
        C.Workload + ": " + std::to_string(Rounds) + " rounds of " +
        std::to_string(Kinds.size() / 2) + " queries in " +
        std::to_string(Phase.seconds()) + " s; " +
        std::to_string(samplesBeyond(Relative[0], 0.99)) +
        " runs beyond p99; uncalibrated latency_p50_us " +
        std::to_string(geomean(Raw)) + ", host factor " +
        std::to_string(median(HostFactor)) + ", tail " +
        std::to_string(Tail) + ", loop tail " + std::to_string(LoopTail) +
        "; uncalibrated setup_s " +
        std::to_string(median(RawSetups)) + ", compile factor " +
        std::to_string(median(CompileFactor)));
    return Out;
  }
  M["trace.overhead_pct"] =
      100.0 * (median(RoundS[1]) / median(RoundS[0]) - 1.0);

  // Per-layer numbers from the traced run.
  std::map<std::string, double> NativeMed, HandMed;
  std::vector<double> NativeNs, InterpNs, ParNs, CompileMs;
  for (const Kind &K : Kinds) {
    double Med = median(K.Micros);
    double NsRow = Med * 1e3 / K.Rows;
    if (K.Backend == "native") {
      M["exec." + K.Query + ".native_ns_per_row"] = NsRow;
      NativeNs.push_back(NsRow);
      NativeMed[K.Query] = Med;
    } else if (K.Backend == "interp") {
      M["exec." + K.Query + ".interp_ns_per_row"] = NsRow;
      InterpNs.push_back(NsRow);
    } else if (K.Backend == "parallel") {
      M["exec." + K.Query + ".parallel_ns_per_row"] = NsRow;
      ParNs.push_back(NsRow);
    } else {
      HandMed[K.Query] = Med;
    }
  }
  for (const auto &[Q, Med] : NativeMed)
    if (HandMed.count(Q) && HandMed[Q] > 0)
      M["exec." + Q + ".loop_ratio"] = Med / HandMed[Q];
  for (const ExecQuery &E : Suite)
    if (E.RunNative)
      CompileMs.push_back(E.CompileMs);
  M["exec.native_ns_per_row"] = geomean(NativeNs);
  M["exec.interp_ns_per_row"] = geomean(InterpNs);
  M["exec.parallel_ns_per_row"] = geomean(ParNs);
  M["exec.compile_ms"] = median(CompileMs);

  double Busy = static_cast<double>(After.Busy - Before.Busy);
  double Idle = static_cast<double>(After.Idle - Before.Idle);
  M["dryad.morsels"] =
      static_cast<double>(After.Dispatched - Before.Dispatched);
  M["dryad.steals"] = static_cast<double>(After.Steals - Before.Steals);
  M["dryad.splits"] = static_cast<double>(After.Splits - Before.Splits);
  M["dryad.idle_share"] = Busy + Idle > 0 ? Idle / (Busy + Idle) : 0;

  M["jit.run_overhead_ns"] = runOverheadNs(Suite[0].Native);
  if (Suite[0].RunInterp)
    M["interp.run_overhead_ns"] = runOverheadNs(Suite[0].Interp);

  ReplayTimes RT;
  double Vectorized = 0;
  unsigned Index = 0;
  for (const ExecQuery &E : Suite)
    if (E.RunNative) {
      replayCompile(E, Index++, RT);
      Vectorized += E.Native.vectorized() ? 1 : 0;
    }
  if (RT.Failed) {
    ++Out.Failed;
    Out.Notes.push_back(C.Workload + ": compile replay failed or disagrees "
                        "with planHash()");
  }
  for (const auto &[Name, Samples] : RT.Phase)
    M[Name] = median(Samples);
  rusage RU{}; // the largest compiler process the JIT has waited for
  ::getrusage(RUSAGE_CHILDREN, &RU);
  M["jit.cc_peak_rss_mb"] = static_cast<double>(RU.ru_maxrss) / 1024.0;
  M["analysis.rewrite_certs"] = RT.RewriteCerts;
  M["exec.vectorized_queries"] = Vectorized;
  return Out;
}
