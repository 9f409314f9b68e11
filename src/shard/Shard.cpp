//===- shard/Shard.cpp - Sharded multi-process serving (§6) ----*- C++ -*-===//

#include "shard/Shard.h"

#include "analysis/Analysis.h"
#include "dryad/Partition.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "quil/Quil.h"
#include "shard/Spawn.h"
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
      NumShards(static_cast<unsigned>(O.ShardSockets.size())) {
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
  Q->SourceCount = Q->Spec.Sources.empty() ? 0 : Q->Spec.Sources[0].Count;

  quil::Chain Chain = quil::lower(Built.Q);
  if (auto VErr = quil::validate(Chain))
    return fail("invalid query: " + *VErr);
  // The split decision (§6 over processes). With one shard the fan-out
  // buys nothing, so the query routes whole regardless.
  dryad::SplitDecision Split =
      dryad::decideSplit(quil::specializeGroupByAggregate(Chain));
  if (!Split.Analysis.ok())
    return fail("rejected by analysis: " +
                Split.Analysis.Diags.render(analysis::Severity::Error));

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
    if (!Split.Analysis.Cert.combinersAssociative()) {
      metrics().NonAssoc.inc();
      NNonAssocFallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NPrepares.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> Lock(PrepMutex);
  return Prepared.emplace(SpecText, std::move(Q)).first->second;
}

Response ShardRouter::subRequest(unsigned Shard, const RoutedQuery &Q,
                                 bool Partial, std::size_t Begin,
                                 std::size_t Len, std::uint64_t RequestId,
                                 std::uint64_t Rid,
                                 std::chrono::milliseconds Deadline) {
  // The worker's serve.exec span records the same rid.
  obs::Span Sp("shard.sub_request");
  Sp.arg("request_id", static_cast<std::int64_t>(RequestId));
  Sp.arg("rid", static_cast<std::int64_t>(Rid));
  Sp.arg("shard", Shard);
  support::WallTimer Timer;
  auto Start = std::chrono::steady_clock::now();
  auto GiveUp = Start + std::min(Deadline, Options.RetryBudget);
  Response Out;
  bool First = true;

  for (;;) {
    if (!First) {
      metrics().Retries.inc();
      NRetries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(Options.RetryBackoff);
    }
    if (std::chrono::steady_clock::now() >= GiveUp) {
      Out = Response();
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
        discard(Shard, std::move(C));
        First = false;
        continue;
      }
      if (!PrepErr.empty()) {
        // Semantic rejection: terminal, the connection is still good.
        release(Shard, std::move(C));
        Out = Response();
        Out.St = Status::Error;
        Out.Message = PrepErr;
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
                      : C->W.exec(Handle, AttemptMs, Rid, Out);
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
  Response Rsp;
  Rsp.Id = NextRid.fetch_add(1, std::memory_order_relaxed);
  obs::Span Sp("shard.request");
  Sp.arg("request_id", static_cast<std::int64_t>(Rsp.Id));
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
    // The worker's answer, flags and timings included, under the
    // router's own id and run time.
    std::uint64_t Rid = NextRid.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t Id = Rsp.Id;
    Rsp = subRequest(H->HomeShard, *H, /*Partial=*/false, 0, 0, Id, Rid,
                     Deadline);
    Rsp.Id = Id;
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

  // Fan out over dryad's static partition of source slot 0, so per-shard
  // partials match the in-process decomposition exactly: this thread
  // takes shard 0, one short-lived thread per remaining shard. Each
  // sub-request gets its own rid.
  unsigned N = NumShards;
  std::uint64_t RidBase = NextRid.fetch_add(N, std::memory_order_relaxed);
  std::vector<Response> Parts(N);
  auto runPart = [this, &Parts, &H, Id = Rsp.Id, RidBase, Deadline,
                  N](unsigned I) {
    dryad::PartRange R = dryad::partitionRange(H->SourceCount, N, I);
    Parts[I] = subRequest(I, *H, /*Partial=*/true, R.Begin, R.Len, Id,
                          RidBase + I, Deadline);
  };
  std::vector<std::thread> Threads;
  Threads.reserve(N - 1);
  for (unsigned I = 1; I != N; ++I)
    Threads.emplace_back(runPart, I);
  runPart(0);
  for (std::thread &T : Threads)
    T.join();

  // All partials must arrive; the worst failure wins (Error dominates
  // Timeout so a real fault is never masked as slowness).
  for (unsigned I = 0; I != N; ++I) {
    if (Parts[I].St == Status::Ok)
      continue;
    Rsp.St = Parts[I].St;
    Rsp.Message = Parts[I].Message.empty()
                      ? "shard " + std::to_string(I) + " failed"
                      : "shard " + std::to_string(I) + ": " +
                            Parts[I].Message;
    for (unsigned J = 0; J != N; ++J)
      if (Parts[J].St == Status::Error) {
        Rsp.St = Status::Error;
        if (!Parts[J].Message.empty())
          Rsp.Message =
              "shard " + std::to_string(J) + ": " + Parts[J].Message;
        break;
      }
    if (Rsp.St == Status::Timeout)
      NTimeouts.fetch_add(1, std::memory_order_relaxed);
    else
      NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }

  // Agg*: the same combine stage the in-process engine runs, over
  // partials that crossed a process boundary. The answer is native only
  // when every part ran natively, and degraded when any part did.
  std::vector<QueryResult> Partials;
  Partials.reserve(N);
  Rsp.NativePlan = true;
  for (Response &P : Parts) {
    Partials.push_back(std::move(P.Result));
    Rsp.NativePlan = Rsp.NativePlan && P.NativePlan;
    Rsp.Degraded = Rsp.Degraded || P.Degraded;
  }
  std::string Mismatch;
  Rsp.Result = dryad::combineParallelPartials(H->Plan, Partials, &Mismatch);
  if (!Mismatch.empty()) {
    Rsp.St = Status::Error;
    Rsp.Message = Mismatch;
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return Rsp;
  }
  Rsp.St = Status::Ok;
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

serve::Frontend ShardRouter::frontend() {
  auto Handles = std::make_shared<std::vector<RoutedHandle>>();
  serve::Frontend F;
  F.Prepare = [this, Handles](const std::string &Spec, std::string &Err) {
    RoutedHandle H = prepare(Spec, &Err);
    if (H)
      Handles->push_back(H);
    return H != nullptr;
  };
  F.Execute = [this, Handles](std::size_t H,
                              std::chrono::milliseconds Deadline) {
    return execute((*Handles)[H], Deadline);
  };
  F.Stats = [this] { return statsJson(); };
  F.DefaultDeadline = Options.DefaultDeadline;
  return F;
}
