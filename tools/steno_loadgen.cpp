//===- tools/steno_loadgen.cpp - Closed-loop load generator --------------===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// Drives an in-process serve::QueryService with N closed-loop clients
// (each waits for its response before sending the next request) over a
// mix of paper-shaped queries plus generated fuzz specs, verifying every
// Ok response against the reference interpreter and every response id
// for uniqueness. This is the serving-layer acceptance harness: it
// writes BENCH_serve.json and exits nonzero when anything was lost,
// duplicated, mismatched, or errored.
//
//   steno_loadgen --clients 8 --seconds 30 --seed 1     # CI configuration
//
// With --profile every plan is profiled, so the service's feedback
// re-plans run under load too; the replans / replan_swaps /
// replan_no_change counters in the report show whether any swapped.
//
// With --shards N the harness instead spawns N steno_serve worker
// processes (--serve-bin), fronts them with an in-process
// shard::ShardRouter, and drives the same closed-loop mix through the
// router — the sharded-serving acceptance harness. --chaos-kill-ms
// additionally SIGKILLs a round-robin victim worker mid-stream and
// respawns it after --chaos-down-ms; the audit then also requires zero
// timeouts and bounded retry latency, proving the router's exactly-once
// retry protocol absorbed every death.
//
//   steno_loadgen --clients 4 --seconds 10 --shards 3
//       --serve-bin ./steno_serve --chaos-kill-ms 2000   # chaos soak
//
// Exit status: 0 clean; 1 on lost/duplicate/mismatched/errored
// responses (and, sharded, timeouts or unbounded latency); 2 on usage
// or setup errors.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Diff.h"
#include "fuzz/Gen.h"
#include "serve/Serve.h"
#include "shard/Shard.h"
#include "shard/Spawn.h"
#include "steno/RefExec.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <vector>

using namespace steno;
using Clock = std::chrono::steady_clock;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: steno_loadgen [options]\n"
      "  --clients N        closed-loop client threads (default 8)\n"
      "  --seconds N        run duration (default 10)\n"
      "  --seed N           generated-spec seed (default 1)\n"
      "  --gen N            generated specs added to the mix (default 4)\n"
      "  --deadline-ms N    per-request deadline (default 5000)\n"
      "  --workers N        service execution pool (default 4)\n"
      "  --max-queue N      admission bound (default 64)\n"
      "  --no-recompile     stay on the interpreter backend\n"
      "  --profile          profile every plan, so feedback re-plans run\n"
      "                     (sharded: passed on to the workers)\n"
      "sharded mode (spawns worker processes + an in-process router):\n"
      "  --shards N         drive N steno_serve workers via ShardRouter\n"
      "  --serve-bin PATH   steno_serve binary (required with --shards)\n"
      "  --shard-workers N  execution pool per worker (default 1)\n"
      "  --shard-no-recompile  workers stay on the interpreter\n"
      "  --socket-dir DIR   directory for worker sockets (default /tmp)\n"
      "  --chaos-kill-ms N  SIGKILL a round-robin worker every N ms\n"
      "  --chaos-down-ms N  dead time before the respawn (default 300)\n");
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

/// The paper-shaped core of the query mix (EXPERIMENTS.md benchmarks,
/// restated as fuzz specs): Sum, Scale, filtered Count, Ret-pop's nested
/// flatten, Group, Sort, the forced-sequential non-associative fold, and
/// two skewed filters in pessimal order, the shape a profiled service's
/// feedback re-plan swaps.
std::vector<fuzz::QuerySpec> paperMix() {
  using namespace fuzz;
  std::vector<QuerySpec> Mix;

  { // Sum: xs.Select(x => x*x).Sum()
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 4096, 11});
    OpSpec Sel;
    Sel.K = OpK::Select;
    Sel.T = TransTmpl::Square;
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::Sum;
    S.Ops = {Sel, Agg};
    Mix.push_back(S);
  }
  { // Scale: xs.Select(x => x * k).Sum() with a captured k
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 4096, 12});
    S.HasCaptureD = true;
    S.CaptureD = 2.5;
    OpSpec Sel;
    Sel.K = OpK::Select;
    Sel.T = TransTmpl::CapScale;
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::Sum;
    S.Ops = {Sel, Agg};
    Mix.push_back(S);
  }
  { // Filtered count: xs.Where(x => x > 10).Count()
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Skewed, 4096, 13});
    OpSpec Wh;
    Wh.K = OpK::Where;
    Wh.P = PredTmpl::GtC;
    Wh.DArg = 10.0;
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::Count;
    S.Ops = {Wh, Agg};
    Mix.push_back(S);
  }
  { // Ret-pop shape: xs.SelectMany(ys).Sum() (Figure 11's flatten)
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 256, 14});
    S.Sources.push_back({1, ElemTy::Double, DataClass::Uniform, 16, 15});
    OpSpec SM;
    SM.K = OpK::SelectMany;
    SM.Slot = 1;
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::Sum;
    S.Ops = {SM, Agg};
    Mix.push_back(S);
  }
  { // Group: bucketed GroupByAggregate over a Gaussian-ish skew
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Skewed, 4096, 16});
    OpSpec GA;
    GA.K = OpK::GroupAgg;
    GA.Key = KeyTmpl::Bucket;
    GA.DArg = 25.0;
    GA.G = GroupStep::Sum;
    S.Ops = {GA};
    Mix.push_back(S);
  }
  { // Sort: xs.OrderBy(abs).ToArray()
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 2048, 17});
    OpSpec Ord;
    Ord.K = OpK::OrderBy;
    Ord.Key = KeyTmpl::Abs;
    OpSpec Arr;
    Arr.K = OpK::ToArray;
    S.Ops = {Ord, Arr};
    Mix.push_back(S);
  }
  { // Non-associative fold: certified unsafe, forced sequential
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Int64, DataClass::Uniform, 2048, 18});
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::FoldNonAssoc;
    S.Ops = {Agg};
    Mix.push_back(S);
  }
  { // Skewed filters: xs.Where(x => x > -99).Where(x => x > 95).Sum()
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 4096, 19});
    OpSpec Loose;
    Loose.K = OpK::Where;
    Loose.P = PredTmpl::GtC;
    Loose.DArg = -99.0;
    OpSpec Tight = Loose;
    Tight.DArg = 95.0;
    OpSpec Agg;
    Agg.K = OpK::Agg;
    Agg.A = AggKind::Sum;
    S.Ops = {Loose, Tight, Agg};
    Mix.push_back(S);
  }
  return Mix;
}

/// One query of the mix: its spec text, the handle clients execute, and
/// the reference result every Ok answer must match. Built keeps alive the
/// buffers a locally computed reference may borrow (sharded mode; a
/// prepared handle owns its own).
template <typename Handle> struct MixEntry {
  std::string Text;
  Handle H;
  std::shared_ptr<fuzz::BuiltQuery> Built;
  QueryResult Expected;
};

struct ClientOutcome {
  std::uint64_t Sent = 0;
  std::uint64_t Ok = 0, Shed = 0, Timeouts = 0, Errors = 0;
  std::uint64_t Mismatches = 0;
  std::uint64_t Degraded = 0, Native = 0;
  std::vector<double> LatencyMicros;
  std::vector<std::uint64_t> Ids;
  std::string FirstMismatch;
};

bool resultsMatch(const QueryResult &Got, const QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (!fuzz::fuzzValueNear(Got.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Idx = P * static_cast<double>(Sorted.size() - 1);
  return Sorted[static_cast<std::size_t>(Idx + 0.5)];
}

/// The mix's specs: paperMix() plus up to \p GenCount generated specs
/// that \p Prepares accepts.
std::vector<fuzz::QuerySpec>
mixSpecs(std::uint64_t Seed, unsigned GenCount,
         const std::function<bool(const std::string &)> &Prepares) {
  std::vector<fuzz::QuerySpec> Specs = paperMix();
  support::SplitMix64 Rng(Seed);
  fuzz::GenOptions GOpts;
  unsigned Added = 0, Attempts = 0;
  while (Added < GenCount && Attempts < GenCount * 50 + 50) {
    ++Attempts;
    fuzz::QuerySpec S = fuzz::generateSpec(Rng, GOpts);
    if (Prepares(fuzz::serializeSpec(S))) {
      Specs.push_back(S);
      ++Added;
    }
  }
  return Specs;
}

/// The closed loop: \p Clients threads cycle \p Mix until \p End, each
/// from its own offset, waiting for every answer before the next request
/// and checking Ok answers in place. \p Execute(C, H) sends client C's
/// request for handle H.
template <typename Handle, typename ExecuteFn>
std::vector<ClientOutcome> runClients(unsigned Clients, Clock::time_point End,
                                      const std::vector<MixEntry<Handle>> &Mix,
                                      const ExecuteFn &Execute) {
  std::vector<ClientOutcome> Outcomes(Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      ClientOutcome &Out = Outcomes[C];
      std::size_t Cursor = C; // stagger the mix across clients
      while (Clock::now() < End) {
        const MixEntry<Handle> &E = Mix[Cursor++ % Mix.size()];
        ++Out.Sent;
        Clock::time_point T0 = Clock::now();
        serve::Response R = Execute(C, E.H);
        double Micros = std::chrono::duration<double, std::micro>(
                            Clock::now() - T0)
                            .count();
        Out.LatencyMicros.push_back(Micros);
        Out.Ids.push_back(R.Id);
        switch (R.St) {
        case serve::Status::Ok:
          ++Out.Ok;
          if (R.Degraded)
            ++Out.Degraded;
          if (R.NativePlan)
            ++Out.Native;
          if (!resultsMatch(R.Result, E.Expected)) {
            ++Out.Mismatches;
            if (Out.FirstMismatch.empty())
              Out.FirstMismatch = E.Text;
          }
          break;
        case serve::Status::Shed:
          ++Out.Shed;
          break;
        case serve::Status::Timeout:
          ++Out.Timeouts;
          break;
        case serve::Status::Error:
          ++Out.Errors;
          break;
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  return Outcomes;
}

/// Every client's outcome summed, with the audit's derived figures.
struct Merged {
  ClientOutcome Total;
  std::vector<double> Lat; ///< Every latency, sorted ascending.
  std::uint64_t Lost = 0, DuplicateIds = 0;
};

Merged mergeOutcomes(const std::vector<ClientOutcome> &Outcomes) {
  Merged M;
  ClientOutcome &Total = M.Total;
  std::unordered_set<std::uint64_t> SeenIds;
  std::uint64_t Responses = 0;
  for (const ClientOutcome &O : Outcomes) {
    Total.Sent += O.Sent;
    Total.Ok += O.Ok;
    Total.Shed += O.Shed;
    Total.Timeouts += O.Timeouts;
    Total.Errors += O.Errors;
    Total.Mismatches += O.Mismatches;
    Total.Degraded += O.Degraded;
    Total.Native += O.Native;
    if (Total.FirstMismatch.empty())
      Total.FirstMismatch = O.FirstMismatch;
    M.Lat.insert(M.Lat.end(), O.LatencyMicros.begin(),
                 O.LatencyMicros.end());
    Responses += O.Ids.size();
    for (std::uint64_t Id : O.Ids)
      if (Id != 0 && !SeenIds.insert(Id).second)
        ++M.DuplicateIds;
  }
  M.Lost = Total.Sent - Responses;
  std::sort(M.Lat.begin(), M.Lat.end());
  return M;
}

/// Sharded mode: spawn the worker fleet, front it with an in-process
/// ShardRouter, drive the closed-loop mix through the router, optionally
/// SIGKILL/respawn workers mid-stream, and audit. Returns the process
/// exit status.
int runSharded(unsigned Clients, unsigned Seconds, std::uint64_t Seed,
               unsigned GenCount, std::chrono::milliseconds Deadline,
               unsigned ShardCount, const std::string &ServeBin,
               unsigned ShardWorkers, bool ShardNoRecompile,
               bool ShardProfile, const std::string &SocketDir,
               unsigned ChaosKillMs, unsigned ChaosDownMs) {
  // Writes race against chaos kills; a dead worker's socket must error,
  // not signal.
  std::signal(SIGPIPE, SIG_IGN);

  // Spawn the fleet.
  std::vector<std::string> ExtraArgs = {"--workers",
                                        std::to_string(ShardWorkers)};
  if (ShardNoRecompile)
    ExtraArgs.push_back("--no-recompile");
  if (ShardProfile)
    ExtraArgs.push_back("--profile");
  std::vector<shard::WorkerProcess> Workers;
  for (unsigned I = 0; I != ShardCount; ++I) {
    std::string Sock = SocketDir + "/steno-shard-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(I) + ".sock";
    Workers.emplace_back(ServeBin, Sock, ExtraArgs);
    std::string Err;
    if (!Workers.back().start(&Err)) {
      std::fprintf(stderr, "steno_loadgen: %s\n", Err.c_str());
      for (shard::WorkerProcess &W : Workers)
        W.kill9();
      return 2;
    }
  }

  shard::RouterOptions ROpts;
  for (const shard::WorkerProcess &W : Workers)
    ROpts.ShardSockets.push_back(W.socket());
  ROpts.DefaultDeadline = Deadline;
  // A sub-request must be able to out-wait a chaos kill: dead time plus
  // the respawned worker's startup, with slack.
  ROpts.RetryBudget = std::chrono::milliseconds(
      std::max<std::uint64_t>(Deadline.count(),
                              ChaosDownMs + 5000));
  shard::ShardRouter Router(ROpts);

  // Assemble the mix: the paper queries plus prescreened generated
  // specs, each with a locally computed reference result.
  std::vector<fuzz::QuerySpec> Specs =
      mixSpecs(Seed, GenCount, [&Router](const std::string &Text) {
        std::string Err;
        return Router.prepare(Text, &Err) != nullptr;
      });
  std::vector<MixEntry<shard::RoutedHandle>> Mix;
  for (const fuzz::QuerySpec &S : Specs) {
    MixEntry<shard::RoutedHandle> E;
    E.Text = fuzz::serializeSpec(S);
    std::string Err;
    E.H = Router.prepare(E.Text, &Err);
    if (!E.H) {
      std::fprintf(stderr, "steno_loadgen: router prepare failed: %s\n%s\n",
                   Err.c_str(), E.Text.c_str());
      for (shard::WorkerProcess &W : Workers)
        W.kill9();
      return 2;
    }
    E.Built = std::make_shared<fuzz::BuiltQuery>();
    if (!fuzz::buildSpec(S, *E.Built, &Err)) {
      std::fprintf(stderr, "steno_loadgen: buildSpec failed: %s\n",
                   Err.c_str());
      for (shard::WorkerProcess &W : Workers)
        W.kill9();
      return 2;
    }
    E.Expected = runReference(E.Built->Q, E.Built->B);
    Mix.push_back(std::move(E));
  }
  shard::ShardRouter::Stats PrepStats = Router.stats();
  std::fprintf(stderr,
               "steno_loadgen: %zu specs in the mix across %u shards "
               "(%llu split, %llu fallback)\n",
               Mix.size(), Router.shards(),
               static_cast<unsigned long long>(PrepStats.SplitPrepared),
               static_cast<unsigned long long>(PrepStats.FallbackPrepared));

  // The chaos schedule: SIGKILL a round-robin victim every ChaosKillMs,
  // leave it dead for ChaosDownMs, respawn, repeat until the run ends.
  Clock::time_point End = Clock::now() + std::chrono::seconds(Seconds);
  std::atomic<bool> ChaosFailed{false};
  std::atomic<std::uint64_t> Kills{0};
  std::thread Chaos;
  if (ChaosKillMs > 0) {
    Chaos = std::thread([&] {
      unsigned Victim = 0;
      while (Clock::now() < End && !ChaosFailed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ChaosKillMs));
        if (Clock::now() >= End)
          break;
        unsigned V = Victim++ % Workers.size();
        std::fprintf(stderr, "steno_loadgen: chaos kill shard %u (pid %d)\n",
                     V, static_cast<int>(Workers[V].pid()));
        Workers[V].kill9();
        ++Kills;
        std::this_thread::sleep_for(std::chrono::milliseconds(ChaosDownMs));
        std::string Err;
        if (!Workers[V].start(&Err)) {
          std::fprintf(stderr, "steno_loadgen: chaos respawn failed: %s\n",
                       Err.c_str());
          ChaosFailed.store(true);
        }
      }
    });
  }

  // The closed loop, against the router.
  std::vector<ClientOutcome> Outcomes = runClients(
      Clients, End, Mix, [&](unsigned, const shard::RoutedHandle &H) {
        return Router.execute(H, Deadline);
      });
  if (Chaos.joinable())
    Chaos.join();
  for (shard::WorkerProcess &W : Workers) {
    W.kill9();
    ::unlink(W.socket().c_str());
  }

  // Merge and audit. Sharded mode is stricter than in-process mode:
  // with the retry budget sized to out-wait every chaos kill, timeouts
  // and unbounded latency are protocol failures too.
  Merged M = mergeOutcomes(Outcomes);
  const ClientOutcome &Total = M.Total;
  double P50 = percentile(M.Lat, 0.50), P99 = percentile(M.Lat, 0.99);
  double MaxLat = M.Lat.empty() ? 0 : M.Lat.back();
  double Rps = Seconds > 0 ? static_cast<double>(Total.Sent) / Seconds : 0;
  double LatBoundMicros =
      (static_cast<double>(Deadline.count()) +
       static_cast<double>(ROpts.RetryBudget.count()) + 2000.0) *
      1000.0;
  bool LatUnbounded = MaxLat > LatBoundMicros;

  shard::ShardRouter::Stats RS = Router.stats();
  std::printf("steno_loadgen: sharded %llu requests in %us (%.0f rps), "
              "%llu ok / %llu shed / %llu timeout / %llu error\n",
              static_cast<unsigned long long>(Total.Sent), Seconds, Rps,
              static_cast<unsigned long long>(Total.Ok),
              static_cast<unsigned long long>(Total.Shed),
              static_cast<unsigned long long>(Total.Timeouts),
              static_cast<unsigned long long>(Total.Errors));
  std::printf("  latency p50 %.1fus p99 %.1fus max %.1fus "
              "(bound %.0fus); native %llu\n",
              P50, P99, MaxLat, LatBoundMicros,
              static_cast<unsigned long long>(Total.Native));
  std::printf("  lost %llu, duplicate ids %llu, mismatches %llu; "
              "chaos kills %llu\n",
              static_cast<unsigned long long>(M.Lost),
              static_cast<unsigned long long>(M.DuplicateIds),
              static_cast<unsigned long long>(Total.Mismatches),
              static_cast<unsigned long long>(Kills.load()));
  std::printf("  router: %llu split / %llu fallback execs, %llu retries, "
              "%llu reprepares, %llu conn deaths\n",
              static_cast<unsigned long long>(RS.SplitExecs),
              static_cast<unsigned long long>(RS.FallbackExecs),
              static_cast<unsigned long long>(RS.Retries),
              static_cast<unsigned long long>(RS.Reprepares),
              static_cast<unsigned long long>(RS.Deaths));
  std::printf("  %s\n", Router.statsJson().c_str());
  if (!Total.FirstMismatch.empty())
    std::fprintf(stderr, "steno_loadgen: first mismatching spec:\n%s\n",
                 Total.FirstMismatch.c_str());
  if (LatUnbounded)
    std::fprintf(stderr,
                 "steno_loadgen: retry latency exceeded the bound\n");
  if (ChaosFailed.load())
    std::fprintf(stderr, "steno_loadgen: chaos respawn failed\n");

  bool Bad = M.Lost || M.DuplicateIds || Total.Mismatches || Total.Errors ||
             Total.Timeouts || LatUnbounded || ChaosFailed.load();
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Clients = 8;
  unsigned Seconds = 10;
  std::uint64_t Seed = 1;
  unsigned GenCount = 4;
  std::chrono::milliseconds Deadline{5000};
  serve::ServeOptions Opts;
  unsigned ShardCount = 0;
  std::string ServeBin;
  std::string SocketDir = "/tmp";
  unsigned ShardWorkers = 1;
  bool ShardNoRecompile = false;
  unsigned ChaosKillMs = 0;
  unsigned ChaosDownMs = 300;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "steno_loadgen: %s needs a value\n",
                     Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    unsigned long long N = 0;
    if (Arg == "--clients" && parseUnsigned(next(), N)) {
      Clients = static_cast<unsigned>(N);
    } else if (Arg == "--seconds" && parseUnsigned(next(), N)) {
      Seconds = static_cast<unsigned>(N);
    } else if (Arg == "--seed" && parseUnsigned(next(), N)) {
      Seed = N;
    } else if (Arg == "--gen" && parseUnsigned(next(), N)) {
      GenCount = static_cast<unsigned>(N);
    } else if (Arg == "--deadline-ms" && parseUnsigned(next(), N)) {
      Deadline = std::chrono::milliseconds(N);
    } else if (Arg == "--workers" && parseUnsigned(next(), N)) {
      Opts.Workers = static_cast<unsigned>(N);
    } else if (Arg == "--max-queue" && parseUnsigned(next(), N)) {
      Opts.MaxQueue = static_cast<unsigned>(N);
    } else if (Arg == "--no-recompile") {
      Opts.BackgroundRecompile = false;
    } else if (Arg == "--profile") {
      Opts.Profile = true;
    } else if (Arg == "--shards" && parseUnsigned(next(), N)) {
      ShardCount = static_cast<unsigned>(N);
    } else if (Arg == "--serve-bin") {
      ServeBin = next();
    } else if (Arg == "--socket-dir") {
      SocketDir = next();
    } else if (Arg == "--shard-workers" && parseUnsigned(next(), N)) {
      ShardWorkers = static_cast<unsigned>(N);
    } else if (Arg == "--shard-no-recompile") {
      ShardNoRecompile = true;
    } else if (Arg == "--chaos-kill-ms" && parseUnsigned(next(), N)) {
      ChaosKillMs = static_cast<unsigned>(N);
    } else if (Arg == "--chaos-down-ms" && parseUnsigned(next(), N)) {
      ChaosDownMs = static_cast<unsigned>(N);
    } else {
      usage();
      return 2;
    }
  }
  if (Clients == 0) {
    usage();
    return 2;
  }
  if (ShardCount > 0) {
    if (ServeBin.empty()) {
      std::fprintf(stderr, "steno_loadgen: --shards needs --serve-bin\n");
      return 2;
    }
    return runSharded(Clients, Seconds, Seed, GenCount, Deadline,
                      ShardCount, ServeBin, ShardWorkers, ShardNoRecompile,
                      Opts.Profile, SocketDir, ChaosKillMs, ChaosDownMs);
  }

  serve::QueryService Svc(Opts);
  std::shared_ptr<serve::Session> Setup = Svc.openSession();

  // Assemble the mix: the paper queries plus prescreened generated specs.
  std::vector<fuzz::QuerySpec> Specs =
      mixSpecs(Seed, GenCount, [&Setup](const std::string &Text) {
        std::string Err;
        return Setup->prepare(Text, &Err) != nullptr;
      });

  // Prepare each spec once (handles are shared by every client — exactly
  // the long-lived prepared-statement usage the cache exists for) and
  // compute its expected result with the reference interpreter.
  std::vector<MixEntry<serve::PreparedHandle>> Mix;
  for (const fuzz::QuerySpec &S : Specs) {
    MixEntry<serve::PreparedHandle> E;
    E.Text = fuzz::serializeSpec(S);
    std::string Err;
    E.H = Setup->prepare(E.Text, &Err);
    if (!E.H) {
      std::fprintf(stderr, "steno_loadgen: prepare failed: %s\n%s\n",
                   Err.c_str(), E.Text.c_str());
      return 2;
    }
    E.Expected = runReference(E.H->query(), E.H->bindings());
    Mix.push_back(std::move(E));
  }
  std::fprintf(stderr, "steno_loadgen: %zu specs in the mix\n", Mix.size());

  // The closed loop: each client owns a session, cycles the mix, and
  // verifies in place.
  Clock::time_point End = Clock::now() + std::chrono::seconds(Seconds);
  std::vector<std::shared_ptr<serve::Session>> Sessions;
  Sessions.reserve(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    Sessions.push_back(Svc.openSession());
  std::vector<ClientOutcome> Outcomes = runClients(
      Clients, End, Mix, [&](unsigned C, const serve::PreparedHandle &H) {
        return Sessions[C]->execute(H, Deadline);
      });
  Svc.drainRecompiles();

  // Merge and audit.
  Merged M = mergeOutcomes(Outcomes);
  const ClientOutcome &Total = M.Total;
  double P50 = percentile(M.Lat, 0.50), P90 = percentile(M.Lat, 0.90),
         P99 = percentile(M.Lat, 0.99);
  double Rps = Seconds > 0 ? static_cast<double>(Total.Sent) / Seconds : 0;

  // The amortization headline: a prepared execution vs the one-off
  // native compile the background upgrade paid (§7.1 break-even).
  double ColdCompileMillis = 0;
  unsigned NativeHandles = 0;
  for (const MixEntry<serve::PreparedHandle> &E : Mix)
    if (E.H->nativeReady()) {
      ColdCompileMillis += E.H->nativeCompileMillis();
      ++NativeHandles;
    }
  if (NativeHandles)
    ColdCompileMillis /= NativeHandles;
  double Speedup =
      P50 > 0 && ColdCompileMillis > 0 ? ColdCompileMillis * 1000 / P50 : 0;

  serve::QueryService::Stats S = Svc.stats();
  std::printf("steno_loadgen: %llu requests in %us (%.0f rps), "
              "%llu ok / %llu shed / %llu timeout / %llu error\n",
              static_cast<unsigned long long>(Total.Sent), Seconds, Rps,
              static_cast<unsigned long long>(Total.Ok),
              static_cast<unsigned long long>(Total.Shed),
              static_cast<unsigned long long>(Total.Timeouts),
              static_cast<unsigned long long>(Total.Errors));
  std::printf("  latency p50 %.1fus p90 %.1fus p99 %.1fus; degraded %llu, "
              "native %llu\n",
              P50, P90, P99,
              static_cast<unsigned long long>(Total.Degraded),
              static_cast<unsigned long long>(Total.Native));
  std::printf("  lost %llu, duplicate ids %llu, mismatches %llu\n",
              static_cast<unsigned long long>(M.Lost),
              static_cast<unsigned long long>(M.DuplicateIds),
              static_cast<unsigned long long>(Total.Mismatches));
  std::printf("  replans %llu, replan swaps %llu, replan no change %llu\n",
              static_cast<unsigned long long>(S.Replans),
              static_cast<unsigned long long>(S.ReplanSwaps),
              static_cast<unsigned long long>(S.ReplanNoChange));
  if (ColdCompileMillis > 0)
    std::printf("  cold native compile %.1fms vs prepared p50 %.1fus "
                "(%.0fx amortization)\n",
                ColdCompileMillis, P50, Speedup);
  if (!Total.FirstMismatch.empty())
    std::fprintf(stderr, "steno_loadgen: first mismatching spec:\n%s\n",
                 Total.FirstMismatch.c_str());

  const char *Dir = std::getenv("STENO_BENCH_OUT");
  std::string Path =
      (Dir && *Dir ? std::string(Dir) + "/" : std::string()) +
      "BENCH_serve.json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(
        F,
        "{\n  \"binary\": \"serve\",\n  \"clients\": %u,\n"
        "  \"seconds\": %u,\n  \"specs\": %zu,\n  \"requests\": %llu,\n"
        "  \"throughput_rps\": %.1f,\n  \"ok\": %llu,\n  \"shed\": %llu,\n"
        "  \"timeouts\": %llu,\n  \"errors\": %llu,\n"
        "  \"degraded_runs\": %llu,\n  \"native_runs\": %llu,\n"
        "  \"lost\": %llu,\n  \"duplicate_ids\": %llu,\n"
        "  \"mismatches\": %llu,\n  \"latency_p50_micros\": %.1f,\n"
        "  \"latency_p90_micros\": %.1f,\n  \"latency_p99_micros\": %.1f,\n"
        "  \"prepared_p50_micros\": %.1f,\n"
        "  \"cold_compile_millis\": %.2f,\n"
        "  \"amortization_x\": %.1f,\n"
        "  \"recompiles_done\": %llu,\n  \"recompiles_failed\": %llu,\n"
        "  \"replans\": %llu,\n  \"replan_swaps\": %llu,\n"
        "  \"replan_no_change\": %llu\n}\n",
        Clients, Seconds, Mix.size(),
        static_cast<unsigned long long>(Total.Sent), Rps,
        static_cast<unsigned long long>(Total.Ok),
        static_cast<unsigned long long>(Total.Shed),
        static_cast<unsigned long long>(Total.Timeouts),
        static_cast<unsigned long long>(Total.Errors),
        static_cast<unsigned long long>(Total.Degraded),
        static_cast<unsigned long long>(Total.Native),
        static_cast<unsigned long long>(M.Lost),
        static_cast<unsigned long long>(M.DuplicateIds),
        static_cast<unsigned long long>(Total.Mismatches), P50, P90, P99,
        P50, ColdCompileMillis, Speedup,
        static_cast<unsigned long long>(S.RecompilesDone),
        static_cast<unsigned long long>(S.RecompilesFailed),
        static_cast<unsigned long long>(S.Replans),
        static_cast<unsigned long long>(S.ReplanSwaps),
        static_cast<unsigned long long>(S.ReplanNoChange));
    std::fclose(F);
    std::fprintf(stderr, "steno_loadgen: wrote %s\n", Path.c_str());
  } else {
    std::fprintf(stderr, "steno_loadgen: cannot write %s\n", Path.c_str());
  }

  bool Bad = M.Lost || M.DuplicateIds || Total.Mismatches || Total.Errors;
  return Bad ? 1 : 0;
}
