//===- shard/Shard.cpp - Sharded multi-process serving (§6) ----*- C++ -*-===//

#include "shard/Shard.h"

#include "analysis/Analysis.h"
#include "obs/Metrics.h"
#include "quil/Quil.h"
#include "shard/Spawn.h"
#include "support/StringUtil.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace steno;
using namespace steno::shard;
using serve::Response;
using serve::Status;

namespace {

struct ShardMetrics {
  obs::Counter &PrepareSplit = obs::counter("shard.prepare.split");
  obs::Counter &PrepareFallback = obs::counter("shard.prepare.fallback");
  obs::Counter &ExecSplit = obs::counter("shard.exec.split");
  obs::Counter &ExecFallback = obs::counter("shard.exec.fallback");
  obs::Counter &NonAssoc = obs::counter("shard.fallback.nonassoc");
  obs::Counter &SubSent = obs::counter("shard.subreq.sent");
  obs::Counter &Retries = obs::counter("shard.subreq.retries");
  obs::Counter &Connects = obs::counter("shard.conn.connects");
  obs::Counter &Deaths = obs::counter("shard.conn.deaths");
};

ShardMetrics &metrics() {
  static ShardMetrics M;
  return M;
}

std::uint64_t fnv1a(const std::string &S) {
  std::uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// WireClient::prepare reports both semantic rejections and transport
/// failures through the same Err string; transport failures have a
/// closed set of spellings (ours), everything else is the shard's error
/// message.
bool isWireFailure(const std::string &Err) {
  return Err == "write failed" || Err == "connection closed" ||
         Err.rfind("unexpected frame", 0) == 0 ||
         Err.rfind("malformed prepared frame", 0) == 0;
}

} // namespace

//===--------------------------------------------------------------------===//
// Connection pool
//===--------------------------------------------------------------------===//

struct ShardRouter::Conn {
  int Fd;
  serve::WireClient W;
  /// Spec text -> this connection's handle (handles are connection-local
  /// on the serve side, so every fresh connection re-prepares).
  std::unordered_map<std::string, std::uint64_t> Prepared;

  explicit Conn(int Fd) : Fd(Fd), W(Fd) {}
  ~Conn() { ::close(Fd); }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
};

struct ShardRouter::ShardState {
  std::mutex M;
  std::condition_variable CV;
  std::vector<std::unique_ptr<Conn>> Free;
  unsigned Live = 0; ///< Connections in existence (free + checked out).
};

std::unique_ptr<ShardRouter::Conn>
ShardRouter::acquire(unsigned Shard,
                     std::chrono::steady_clock::time_point GiveUp) {
  ShardState &S = *Shards[Shard];
  std::unique_lock<std::mutex> Lock(S.M);
  for (;;) {
    if (!S.Free.empty()) {
      std::unique_ptr<Conn> C = std::move(S.Free.back());
      S.Free.pop_back();
      return C;
    }
    if (S.Live < Options.ConnsPerShard) {
      ++S.Live;
      Lock.unlock();
      int Fd = Options.Connect(Shard);
      if (Fd < 0) {
        Lock.lock();
        --S.Live;
        S.CV.notify_one();
        return nullptr; // caller backs off and retries
      }
      metrics().Connects.inc();
      NConnects.fetch_add(1, std::memory_order_relaxed);
      return std::make_unique<Conn>(Fd);
    }
    if (std::chrono::steady_clock::now() >= GiveUp)
      return nullptr;
    S.CV.wait_until(Lock, GiveUp);
  }
}

void ShardRouter::release(unsigned Shard, std::unique_ptr<Conn> C) {
  ShardState &S = *Shards[Shard];
  std::lock_guard<std::mutex> Lock(S.M);
  S.Free.push_back(std::move(C));
  S.CV.notify_one();
}

void ShardRouter::discard(unsigned Shard, std::unique_ptr<Conn> C) {
  C.reset(); // close before another waiter reconnects
  metrics().Deaths.inc();
  NDeaths.fetch_add(1, std::memory_order_relaxed);
  ShardState &S = *Shards[Shard];
  std::lock_guard<std::mutex> Lock(S.M);
  --S.Live;
  S.CV.notify_one();
}

//===--------------------------------------------------------------------===//
// Router
//===--------------------------------------------------------------------===//

ShardRouter::ShardRouter(const RouterOptions &O)
    : Options(O),
      NumShards(static_cast<unsigned>(O.ShardSockets.size())),
      CombinePool(O.CombineWorkers ? O.CombineWorkers : 1) {
  assert(NumShards > 0 && "router needs at least one shard");
  if (!Options.Connect) {
    // Default transport: the worker's Unix socket, with a short probe
    // budget (the retry loop above this absorbs longer outages).
    std::vector<std::string> Sockets = Options.ShardSockets;
    Options.Connect = [Sockets](unsigned I) {
      return WorkerProcess::connectTo(Sockets[I],
                                      std::chrono::milliseconds(1000));
    };
  }
  for (unsigned I = 0; I != NumShards; ++I) {
    Shards.push_back(std::make_unique<ShardState>());
    ShardLatency.push_back(&obs::histogram(
        "shard" + std::to_string(I) + ".latency_us",
        {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}));
    for (unsigned V = 0; V != 16; ++V)
      Ring.emplace_back(fnv1a("shard:" + std::to_string(I) + ":" +
                              std::to_string(V)),
                        I);
  }
  std::sort(Ring.begin(), Ring.end());
}

ShardRouter::~ShardRouter() = default;

RoutedHandle ShardRouter::prepare(const std::string &SpecText,
                                  std::string *Err) {
  {
    std::lock_guard<std::mutex> Lock(PrepMutex);
    auto It = Prepared.find(SpecText);
    if (It != Prepared.end())
      return It->second;
  }
  auto fail = [&](const std::string &M) {
    if (Err)
      *Err = M;
    return RoutedHandle();
  };

  auto Q = std::make_shared<RoutedQuery>();
  Q->SpecText = SpecText;
  std::string E;
  if (!fuzz::parseSpec(SpecText, Q->Spec, &E))
    return fail("spec parse error: " + E);
  fuzz::BuiltQuery Built; // for planning only; buffers dropped after
  if (!fuzz::buildSpec(Q->Spec, Built, &E))
    return fail("spec build error: " + E);
  Q->SourceCount =
      Q->Spec.Sources.empty() || Q->Spec.Sources[0].Count < 0
          ? 0
          : static_cast<std::size_t>(Q->Spec.Sources[0].Count);

  quil::Chain Chain = quil::lower(Built.Q);
  if (auto VErr = quil::validate(Chain))
    return fail("invalid query: " + *VErr);
  // The split decision (§6 over processes). With one shard the fan-out
  // buys nothing, so the query routes whole regardless.
  dryad::SplitDecision Split = dryad::decideSplit(
      quil::specializeGroupByAggregate(Chain), Options.StrictFp);
  if (!Split.Analysis.ok())
    return fail("rejected by analysis: " +
                Split.Analysis.Diags.render(analysis::Severity::Error));
  Q->Cert = Split.Analysis.Cert;

  // Home shard for the fallback path: consistent hash of the spec text
  // onto the virtual-point ring.
  std::uint64_t H = fnv1a(SpecText);
  auto It = std::lower_bound(
      Ring.begin(), Ring.end(), std::make_pair(H, 0u),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  Q->HomeShard = (It == Ring.end() ? Ring.front() : *It).second;

  if (Split.Plan && NumShards > 1) {
    Q->Split = true;
    Q->Plan = std::move(*Split.Plan);
    metrics().PrepareSplit.inc();
    NSplitPrepared.fetch_add(1, std::memory_order_relaxed);
  } else {
    Q->WhyNot = Split.Plan ? "single-shard fleet" : Split.WhyNot;
    metrics().PrepareFallback.inc();
    NFallbackPrepared.fetch_add(1, std::memory_order_relaxed);
    if (!Q->Cert.combinersAssociative()) {
      metrics().NonAssoc.inc();
      NNonAssocFallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NPrepares.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> Lock(PrepMutex);
  return Prepared.emplace(SpecText, std::move(Q)).first->second;
}

serve::WireClient::PartialResult
ShardRouter::subRequest(unsigned Shard, const RoutedQuery &Q, bool Partial,
                        std::size_t Begin, std::size_t Len,
                        std::uint64_t Rid,
                        std::chrono::milliseconds Deadline) {
  using PR = serve::WireClient::PartialResult;
  support::WallTimer Timer;
  auto Start = std::chrono::steady_clock::now();
  auto GiveUp = Start + std::min(Deadline, Options.RetryBudget);
  PR Out;
  bool First = true;

  for (;;) {
    if (!First) {
      metrics().Retries.inc();
      NRetries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(Options.RetryBackoff);
    }
    if (std::chrono::steady_clock::now() >= GiveUp) {
      Out = PR();
      Out.St = Status::Timeout;
      break;
    }

    std::unique_ptr<Conn> C = acquire(Shard, GiveUp);
    if (!C) {
      // Shard down (connect failed) or pool starved past the budget.
      First = false;
      continue;
    }

    // Handles are connection-local: a fresh connection (including one
    // replacing a killed shard's) re-prepares the spec first. Workers
    // re-synthesize identical buffers from the spec's seeds, so the
    // re-prepared handle is equivalent.
    auto It = C->Prepared.find(Q.SpecText);
    std::uint64_t Handle;
    if (It != C->Prepared.end()) {
      Handle = It->second;
    } else {
      std::string PrepErr;
      if (!C->W.prepare(Q.SpecText, Handle, PrepErr)) {
        if (isWireFailure(PrepErr)) {
          discard(Shard, std::move(C));
          First = false;
          continue;
        }
        // Semantic rejection: terminal, the connection is still good.
        release(Shard, std::move(C));
        Out = PR();
        Out.St = Status::Error;
        Out.Error = PrepErr;
        break;
      }
      C->Prepared.emplace(Q.SpecText, Handle);
      if (!First) {
        NReprepares.fetch_add(1, std::memory_order_relaxed);
      }
    }

    auto Remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        GiveUp - std::chrono::steady_clock::now());
    long long AttemptMs = std::max<long long>(1, Remaining.count());
    metrics().SubSent.inc();
    NSubSent.fetch_add(1, std::memory_order_relaxed);
    bool WireOk = Partial
                      ? C->W.pexec(Handle, Begin, Len, AttemptMs, Rid, Out)
                      : C->W.xexec(Handle, AttemptMs, Rid, Out);
    if (!WireOk) {
      // Torn frame / dead shard / stale rid: the response for this rid
      // was never observed, so re-issuing it elsewhere cannot duplicate
      // a delivery — exactly-once holds per rid.
      discard(Shard, std::move(C));
      First = false;
      continue;
    }
    if (Out.St == Status::Shed) {
      // Worker overloaded: back off and retry within the budget.
      release(Shard, std::move(C));
      First = false;
      continue;
    }
    release(Shard, std::move(C));
    break; // Ok / Timeout / Error pass through
  }

  ShardLatency[Shard]->observe(Timer.seconds() * 1e6);
  return Out;
}

serve::Response ShardRouter::execute(const RoutedHandle &H) {
  return execute(H, Options.DefaultDeadline);
}

serve::Response ShardRouter::execute(const RoutedHandle &H,
                                     std::chrono::milliseconds Deadline) {
  using PR = serve::WireClient::PartialResult;
  Response Rsp;
  Rsp.Id = NextRid.fetch_add(1, std::memory_order_relaxed);
  if (!H) {
    Rsp.St = Status::Error;
    Rsp.Message = "null routed handle";
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }
  NExecs.fetch_add(1, std::memory_order_relaxed);
  support::WallTimer RunTimer;

  if (!H->Split) {
    metrics().ExecFallback.inc();
    NFallbackExecs.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t Rid = NextRid.fetch_add(1, std::memory_order_relaxed);
    PR R = subRequest(H->HomeShard, *H, /*Partial=*/false, 0, 0, Rid,
                      Deadline);
    Rsp.St = R.St;
    Rsp.Message = R.Error;
    Rsp.Result = std::move(R.Result);
    Rsp.NativePlan = R.Native;
    Rsp.RunMicros = RunTimer.seconds() * 1e6;
    switch (Rsp.St) {
    case Status::Ok:
      NOk.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::Timeout:
      NTimeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      NErrors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    return Rsp;
  }

  metrics().ExecSplit.inc();
  NSplitExecs.fetch_add(1, std::memory_order_relaxed);

  // Range partition (same Base/Extra arithmetic as partitionBindings,
  // so per-shard partials match the in-process decomposition exactly).
  unsigned N = NumShards;
  std::size_t Base = H->SourceCount / N;
  std::size_t Extra = H->SourceCount % N;
  std::vector<std::pair<std::size_t, std::size_t>> Ranges(N);
  std::size_t Pos = 0;
  for (unsigned I = 0; I != N; ++I) {
    std::size_t Len = Base + (I < Extra ? 1 : 0);
    Ranges[I] = {Pos, Len};
    Pos += Len;
  }

  // Fan out: this thread takes shard 0, one short-lived thread per
  // remaining shard. Each sub-request gets its own rid.
  std::uint64_t RidBase = NextRid.fetch_add(N, std::memory_order_relaxed);
  std::vector<PR> Parts(N);
  std::vector<std::thread> Threads;
  Threads.reserve(N - 1);
  for (unsigned I = 1; I != N; ++I)
    Threads.emplace_back([this, &Parts, &Ranges, &H, RidBase, Deadline,
                          I] {
      Parts[I] = subRequest(I, *H, /*Partial=*/true, Ranges[I].first,
                            Ranges[I].second, RidBase + I, Deadline);
    });
  Parts[0] = subRequest(0, *H, /*Partial=*/true, Ranges[0].first,
                        Ranges[0].second, RidBase, Deadline);
  for (std::thread &T : Threads)
    T.join();

  // All partials must arrive; the worst failure wins (Error dominates
  // Timeout so a real fault is never masked as slowness).
  bool AllNative = true;
  for (unsigned I = 0; I != N; ++I) {
    AllNative = AllNative && Parts[I].Native;
    if (Parts[I].St == Status::Ok)
      continue;
    Rsp.St = Parts[I].St;
    Rsp.Message = Parts[I].Error.empty()
                      ? "shard " + std::to_string(I) + " failed"
                      : "shard " + std::to_string(I) + ": " +
                            Parts[I].Error;
    for (unsigned J = 0; J != N; ++J)
      if (Parts[J].St == Status::Error) {
        Rsp.St = Status::Error;
        if (!Parts[J].Error.empty())
          Rsp.Message =
              "shard " + std::to_string(J) + ": " + Parts[J].Error;
        break;
      }
    if (Rsp.St == Status::Timeout)
      NTimeouts.fetch_add(1, std::memory_order_relaxed);
    else
      NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }

  // Agg*: the same combine stage the in-process engine runs, over
  // partials that crossed a process boundary.
  std::vector<QueryResult> Partials;
  Partials.reserve(N);
  for (PR &P : Parts)
    Partials.push_back(std::move(P.Result));
  Rsp.Result = dryad::combineParallelPartials(CombinePool, H->Plan,
                                              H->Cert,
                                              std::move(Partials));
  Rsp.St = Status::Ok;
  Rsp.NativePlan = AllNative;
  Rsp.RunMicros = RunTimer.seconds() * 1e6;
  NOk.fetch_add(1, std::memory_order_relaxed);
  return Rsp;
}

ShardRouter::Stats ShardRouter::stats() const {
  Stats S;
  S.Prepares = NPrepares.load(std::memory_order_relaxed);
  S.SplitPrepared = NSplitPrepared.load(std::memory_order_relaxed);
  S.FallbackPrepared = NFallbackPrepared.load(std::memory_order_relaxed);
  S.NonAssocFallbacks = NNonAssocFallbacks.load(std::memory_order_relaxed);
  S.Execs = NExecs.load(std::memory_order_relaxed);
  S.SplitExecs = NSplitExecs.load(std::memory_order_relaxed);
  S.FallbackExecs = NFallbackExecs.load(std::memory_order_relaxed);
  S.SubSent = NSubSent.load(std::memory_order_relaxed);
  S.Retries = NRetries.load(std::memory_order_relaxed);
  S.Reprepares = NReprepares.load(std::memory_order_relaxed);
  S.Connects = NConnects.load(std::memory_order_relaxed);
  S.Deaths = NDeaths.load(std::memory_order_relaxed);
  S.Ok = NOk.load(std::memory_order_relaxed);
  S.Timeouts = NTimeouts.load(std::memory_order_relaxed);
  S.Errors = NErrors.load(std::memory_order_relaxed);
  return S;
}

std::string ShardRouter::statsJson() const {
  Stats S = stats();
  std::ostringstream Out;
  Out << "{\"shards\":" << NumShards << ",\"prepares\":" << S.Prepares
      << ",\"split_prepared\":" << S.SplitPrepared
      << ",\"fallback_prepared\":" << S.FallbackPrepared
      << ",\"nonassoc_fallbacks\":" << S.NonAssocFallbacks
      << ",\"execs\":" << S.Execs << ",\"split_execs\":" << S.SplitExecs
      << ",\"fallback_execs\":" << S.FallbackExecs
      << ",\"sub_sent\":" << S.SubSent << ",\"retries\":" << S.Retries
      << ",\"reprepares\":" << S.Reprepares
      << ",\"connects\":" << S.Connects << ",\"deaths\":" << S.Deaths
      << ",\"ok\":" << S.Ok << ",\"timeouts\":" << S.Timeouts
      << ",\"errors\":" << S.Errors << ",\"shard_latency_us\":[";
  for (unsigned I = 0; I != NumShards; ++I) {
    if (I)
      Out << ',';
    char Buf[128];
    std::snprintf(Buf, sizeof Buf,
                  "{\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
                  ShardLatency[I]->percentile(0.50),
                  ShardLatency[I]->percentile(0.95),
                  ShardLatency[I]->percentile(0.99));
    Out << Buf;
  }
  Out << "]}";
  return Out.str();
}

//===--------------------------------------------------------------------===//
// Router wire front end
//===--------------------------------------------------------------------===//

void shard::serveRouterConnection(ShardRouter &Router, int Fd) {
  serve::FdStream S(Fd);
  std::vector<RoutedHandle> Handles; // connection-local handle table

  auto errorFrame = [](std::string Msg) {
    for (std::size_t I = 0; (I = Msg.find('\n', I)) != std::string::npos;)
      Msg.replace(I, 1, "; ");
    return "error " + Msg + "\n";
  };

  std::string Line;
  while (S.readLine(Line)) {
    std::istringstream Fields(Line);
    std::string Cmd;
    if (!(Fields >> Cmd))
      continue;

    if (Cmd == "quit") {
      S.writeAll("bye\n");
      return;
    }

    if (Cmd == "prepare") {
      std::string SpecText, SpecLine;
      bool SawEnd = false;
      while (S.readLine(SpecLine)) {
        SpecText += SpecLine;
        SpecText += '\n';
        if (SpecLine == "end") {
          SawEnd = true;
          break;
        }
      }
      if (!SawEnd)
        return;
      std::string Err;
      RoutedHandle H = Router.prepare(SpecText, &Err);
      if (!H) {
        if (!S.writeAll(errorFrame(Err)))
          return;
        continue;
      }
      Handles.push_back(H);
      if (!S.writeAll(support::strFormat("prepared %zu\n",
                                         Handles.size() - 1)))
        return;
      continue;
    }

    if (Cmd == "exec") {
      std::size_t Handle = 0;
      long long DeadlineMs = -1;
      if (!(Fields >> Handle)) {
        if (!S.writeAll(errorFrame("exec needs a handle")))
          return;
        continue;
      }
      Fields >> DeadlineMs;
      if (Handle >= Handles.size()) {
        if (!S.writeAll(errorFrame(support::strFormat(
                "unknown handle %zu", Handle))))
          return;
        continue;
      }
      Response R =
          DeadlineMs >= 0
              ? Router.execute(Handles[Handle],
                               std::chrono::milliseconds(DeadlineMs))
              : Router.execute(Handles[Handle]);
      if (!S.writeAll(serve::renderResponse(R)))
        return;
      continue;
    }

    if (Cmd == "stats") {
      if (!S.writeAll("stats " + Router.statsJson() + "\n"))
        return;
      continue;
    }

    if (Cmd == "metrics") {
      std::string Text = obs::exportPrometheus();
      std::size_t NLines = static_cast<std::size_t>(
          std::count(Text.begin(), Text.end(), '\n'));
      if (!S.writeAll(support::strFormat("metrics %zu\n", NLines) + Text))
        return;
      continue;
    }

    if (!S.writeAll(errorFrame("unknown command '" + Cmd + "'")))
      return;
  }
}
