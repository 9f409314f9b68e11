//===- serve/Serve.cpp - Concurrent query service --------------*- C++ -*-===//

#include "serve/Serve.h"

#include "adapt/Adapt.h"
#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "quil/Quil.h"
#include "support/Timing.h"

#include <cstdio>
#include <future>

using namespace steno;
using namespace steno::serve;

const char *serve::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::Timeout:
    return "timeout";
  case Status::Shed:
    return "shed";
  case Status::Error:
    return "error";
  }
  return "?";
}

namespace {

/// Backends are compiled with analysis off: prepare() already screened
/// the chain, and strict mode inside compileQuery would abort the
/// process on what should be a per-request error. The baseline (v1) plan
/// is deliberately non-adaptive: it is the stable static anchor the
/// feedback accumulates against. Feedback enters only through the
/// explicit re-plan path, which compiles with \p Adaptive on.
CompileOptions planOptions(Backend B, bool Profile, bool Adaptive = false) {
  CompileOptions CO;
  CO.Exec = B;
  CO.Analyze = analysis::Mode::Off;
  CO.Profile = Profile;
  CO.Adaptive = Adaptive;
  CO.Name = Adaptive ? "serve_adapt" : "serve_query";
  return CO;
}

struct ServeMetrics {
  obs::Counter &Sessions = obs::counter("serve.sessions");
  obs::Counter &Prepares = obs::counter("serve.prepares");
  obs::Counter &Requests = obs::counter("serve.requests");
  obs::Counter &Ok = obs::counter("serve.ok");
  obs::Counter &Shed = obs::counter("serve.admission.shed");
  obs::Counter &Timeouts = obs::counter("serve.timeouts");
  obs::Counter &Errors = obs::counter("serve.errors");
  obs::Counter &Degraded = obs::counter("serve.degraded_runs");
  obs::Counter &NativeRuns = obs::counter("serve.native_runs");
  obs::Counter &PartialRuns = obs::counter("serve.partial_runs");
  obs::Counter &RecompSched = obs::counter("serve.recompile.scheduled");
  obs::Counter &RecompDone = obs::counter("serve.recompile.done");
  obs::Counter &RecompFailed = obs::counter("serve.recompile.failed");
  obs::Counter &RecompSaturated =
      obs::counter("serve.recompile.saturated");
  obs::Counter &Replans = obs::counter("adapt.replans");
  obs::Counter &ReplanSwaps = obs::counter("adapt.swaps");
  obs::Counter &AdaptReverted = obs::counter("adapt.reverted");
  obs::Gauge &QueueDepth = obs::gauge("serve.queue.depth");
  obs::Histogram &RequestMicros = obs::histogram(
      "serve.request.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
  obs::Histogram &QueueMicros = obs::histogram(
      "serve.queue.micros", {10, 100, 1e3, 1e4, 1e5, 1e6, 1e7});
};

ServeMetrics &metrics() {
  static ServeMetrics M;
  return M;
}

/// Ticks a serve.* instrument and its instance-local twin together.
void tick(obs::Counter &C, std::atomic<std::uint64_t> &N) {
  C.inc();
  N.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

//===--------------------------------------------------------------------===//
// PlanSlot
//===--------------------------------------------------------------------===//

CompiledQuery PlanSlot::live(bool *IsAdaptive) const {
  std::lock_guard<std::mutex> Lock(M);
  if (IsAdaptive)
    *IsAdaptive = Adaptive.valid();
  return Adaptive.valid() ? Adaptive : Static;
}

bool PlanSlot::claim(bool UpgradeOnly) {
  std::lock_guard<std::mutex> Lock(M);
  if (Compiling || (UpgradeOnly && Static.backend() == Backend::Native))
    return false;
  Compiling = true;
  return true;
}

void PlanSlot::publishStatic(CompiledQuery Plan) {
  std::lock_guard<std::mutex> Lock(M);
  Static = std::move(Plan);
  Compiling = false;
}

bool PlanSlot::publishAdaptive(CompiledQuery Plan) {
  std::lock_guard<std::mutex> Lock(M);
  Compiling = false;
  if (Pinned)
    return false;
  Adaptive = std::move(Plan);
  return true;
}

bool PlanSlot::revert() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Adaptive.valid())
    return false;
  Adaptive = CompiledQuery();
  return true;
}

bool PlanSlot::pin() {
  std::lock_guard<std::mutex> Lock(M);
  if (Pinned)
    return false;
  Pinned = true;
  Adaptive = CompiledQuery();
  return true;
}

//===--------------------------------------------------------------------===//
// Session
//===--------------------------------------------------------------------===//

PreparedHandle Session::prepare(const std::string &SpecText,
                                std::string *Err) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Prepared.find(SpecText);
    if (It != Prepared.end())
      return It->second;
  }
  PreparedHandle P = Svc.prepare(SpecText, Err);
  if (!P)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mutex);
  // Another thread on this session may have prepared meanwhile; keep the
  // first so the session's handle for one text stays stable.
  return Prepared.emplace(SpecText, P).first->second;
}

Response Session::execute(const PreparedHandle &P,
                          std::chrono::milliseconds Deadline) {
  return Svc.execute(P, Deadline);
}

Response Session::execute(const PreparedHandle &P) {
  return Svc.execute(P, Svc.options().DefaultDeadline);
}

Response Session::executeSpec(const std::string &SpecText,
                              std::chrono::milliseconds Deadline) {
  std::string Err;
  PreparedHandle P = prepare(SpecText, &Err);
  if (!P) {
    Response R;
    R.St = Status::Error;
    R.Message = Err;
    return R;
  }
  return execute(P, Deadline);
}

//===--------------------------------------------------------------------===//
// QueryService
//===--------------------------------------------------------------------===//

struct QueryService::RequestState {
  std::promise<Response> Promise;
  PreparedHandle P;
  std::chrono::steady_clock::time_point Deadline;
  support::WallTimer QueueTimer;
  std::uint64_t Id = 0;
  /// Shard-partial request (executePartial): run the §6 vertex over
  /// [Begin, Begin+Len) of source slot 0 instead of the whole plan.
  bool Partial = false;
  std::size_t Begin = 0, Len = 0;
};

QueryService::QueryService(const ServeOptions &O)
    : Options(O), OwnedCache(O.Cache ? nullptr : new QueryCache()),
      Cache(O.Cache ? O.Cache : OwnedCache.get()),
      CompileQ(O.CompileWorkers, O.MaxCompileQueue),
      Exec(O.Workers ? O.Workers : 1) {}

QueryService::~QueryService() {
  Closed.store(true, std::memory_order_relaxed);
  // Members destroy in reverse declaration order: the execution pool
  // drains its accepted requests first (fulfilling every outstanding
  // promise), then the compile queue finishes its jobs (whose callbacks
  // still see live stats and cache), then the rest of the service.
}

std::shared_ptr<Session> QueryService::openSession() {
  tick(metrics().Sessions, NSessions);
  std::uint64_t Id = NextSessionId.fetch_add(1, std::memory_order_relaxed);
  // make_shared needs a public constructor; Session's is private to us.
  return std::shared_ptr<Session>(new Session(*this, Id));
}

PreparedHandle QueryService::prepare(const std::string &SpecText,
                                     std::string *Err) {
  auto fail = [&](const std::string &M) {
    if (Err)
      *Err = M;
    return PreparedHandle();
  };
  if (Closed.load(std::memory_order_relaxed))
    return fail("service is shutting down");

  obs::Span Span("serve.prepare");
  fuzz::QuerySpec Spec;
  std::string E;
  if (!fuzz::parseSpec(SpecText, Spec, &E))
    return fail("spec parse error: " + E);

  auto P = std::make_shared<PreparedQuery>();
  P->SpecText = SpecText;
  if (!fuzz::buildSpec(Spec, P->Built, &E))
    return fail("spec build error: " + E);

  // Pre-screen through the front end so a bad request is a clean error,
  // never a strict-mode abort inside compileQuery.
  quil::Chain Chain = quil::lower(P->Built.Q);
  if (auto VErr = quil::validate(Chain))
    return fail("invalid query: " + *VErr);
  analysis::AnalysisResult Analyzed = analysis::analyzeChain(Chain);
  if (!Analyzed.ok())
    return fail("rejected by analysis: " +
                Analyzed.Diags.render(analysis::Severity::Error));

  // The interpreter plan is ready in milliseconds; the native plan (if
  // wanted) arrives later via the background swap. QueryCache makes
  // re-preparing a structurally equal query a hit sharing one module.
  P->Slot.publishStatic(Cache->getOrCompile(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile)));

  tick(metrics().Prepares, NPrepares);
  if (Options.BackgroundRecompile)
    scheduleRecompile(P);
  return P;
}

bool QueryService::compileInBackground(
    const PreparedHandle &P, PlanSlot &Slot, const CompiledQuery &From,
    std::function<void(CompiledQuery)> Publish) {
  // The callback holds P, which keeps Slot alive across the compile.
  bool Submitted = CompileQ.trySubmit(
      From.generatedSource(), From.program().Name,
      [this, P, &Slot, From, Publish = std::move(Publish)](
          std::unique_ptr<jit::CompiledModule> Module, std::string Err) {
        if (!Module) {
          // Back to idle: a later request may retry once the toolchain
          // recovers. Requests keep running the slot's current plan.
          Slot.release();
          tick(metrics().RecompFailed, NRecompFailed);
          std::fprintf(stderr, "steno-serve: background recompile of '%s' "
                               "failed: %s\n",
                       From.program().Name.c_str(), Err.c_str());
          return;
        }
        Publish(From.withNativeModule(std::move(Module)));
        tick(metrics().RecompDone, NRecompDone);
      });
  if (!Submitted) {
    // Saturated compile queue: degrade (stay on the current plan) and
    // free the slot so a later request retries.
    Slot.release();
    tick(metrics().RecompSaturated, NRecompSaturated);
    return false;
  }
  tick(metrics().RecompSched, NRecompSched);
  return true;
}

bool QueryService::scheduleRecompile(const PreparedHandle &P) {
  if (!P || !P->Slot.claim(/*UpgradeOnly=*/true))
    return false; // already native, or a compile is in flight
  CompileOptions NativeOptions = planOptions(Backend::Native, Options.Profile);

  // Another handle for the same structure may have finished first; the
  // cache peek turns that into an immediate swap with no compiler run.
  CompiledQuery Cached = Cache->lookup(P->Built.Q, NativeOptions);
  if (Cached.valid()) {
    P->Slot.publishStatic(std::move(Cached));
    tick(metrics().RecompDone, NRecompDone);
    return true;
  }
  // Publish to the cache first (first insert wins, so concurrent
  // recompiles of equal queries converge on one module), then swap.
  return compileInBackground(
      P, P->Slot, P->Slot.staticPlan(),
      [this, P, NativeOptions](CompiledQuery Native) {
        P->Slot.publishStatic(
            Cache->insert(P->Built.Q, NativeOptions, std::move(Native)));
      });
}

void QueryService::drainRecompiles() { CompileQ.drain(); }

//===--------------------------------------------------------------------===//
// Shard-partial execution (steno::shard, DESIGN.md §5k)
//===--------------------------------------------------------------------===//

void QueryService::buildPartial(const PreparedHandle &P) {
  auto PS = std::make_unique<PreparedQuery::PartialState>();
  // Re-derive the specialized chain: prepare() screened the raw lowering,
  // but the §6 split wants the same shape DistributedQuery plans —
  // GroupByAggregate specialized so dense sinks split into partials.
  dryad::SplitDecision Split = dryad::decideSplit(
      quil::specializeGroupByAggregate(quil::lower(P->Built.Q)));
  PS->Cert = Split.Analysis.Cert;
  PS->WhyNot = std::move(Split.WhyNot);
  if (Split.Plan) {
    PS->Splittable = true;
    PS->Plan = std::move(*Split.Plan);
    CompileOptions VO = planOptions(Backend::Interp, Options.Profile);
    VO.SpecializeGroupByAggregate = false; // already applied
    VO.Name = "serve_vertex";
    PS->Vertex.publishStatic(compileChain(PS->Plan.VertexChain, VO));
  }
  P->Partial = std::move(PS);
}

const PreparedQuery::PartialState *
QueryService::preparePartial(const PreparedHandle &P) {
  if (!P)
    return nullptr;
  std::call_once(P->PartialOnce, [&] { buildPartial(P); });
  PreparedQuery::PartialState &PS = *P->Partial;
  // The vertex upgrades to native like the whole-query plan, retried on
  // later pexecs when the compile queue was saturated. Deliberately not
  // through the QueryCache: vertex plans are keyed by the *partial*
  // chain, not the query the cache indexes.
  if (PS.Splittable && Options.BackgroundRecompile &&
      !CompileQ.saturated() && PS.Vertex.claim(/*UpgradeOnly=*/true))
    compileInBackground(P, PS.Vertex, PS.Vertex.staticPlan(),
                        [&PS](CompiledQuery Native) {
                          PS.Vertex.publishStatic(std::move(Native));
                        });
  return &PS;
}

//===--------------------------------------------------------------------===//
// Adaptive re-planning (DESIGN.md §5j)
//===--------------------------------------------------------------------===//

std::uint64_t QueryService::feedbackAnchor(const PreparedQuery &P) const {
  // Feedback is keyed by the pre-rewrite (anchor) hash: the one hash
  // every plan version of this query — static v1, feedback v2, v3 — has
  // provenance edges to, so snapshotResolved() folds them all.
  CompiledQuery V1 = P.Slot.staticPlan();
  std::uint64_t RF = V1.rewrittenFromHash();
  return RF ? RF : V1.planHash();
}

void QueryService::publishAdaptive(const PreparedHandle &P,
                                   CompiledQuery Plan) {
  if (!P->Slot.publishAdaptive(std::move(Plan)))
    return; // pinned while the version compiled
  // Fresh judgement window for the new version.
  P->AdaptRuns.store(0, std::memory_order_relaxed);
  P->AdaptNanos.store(0, std::memory_order_relaxed);
  tick(metrics().ReplanSwaps, NReplanSwaps);
}

bool QueryService::scheduleAdaptiveReplan(const PreparedHandle &P) {
  if (!P || Closed.load(std::memory_order_relaxed) ||
      !Options.AdaptiveReplan || !Options.Profile || P->pinnedStatic())
    return false;
  if (adapt::FeedbackStore::global().ignored(feedbackAnchor(*P))) {
    // Quarantined before this handle existed (or by a sibling handle):
    // pin without attempting a compile.
    if (P->Slot.pin())
      NAdaptPinned.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // With native plans wanted, a feedback version waits for the native
  // v1: swapping a slower interpreted v2 over it would regress the
  // handle for the wrong reason. Retry at the next cadence point.
  if (Options.BackgroundRecompile && !P->nativeReady())
    return false;
  // One compile per handle at a time: a live v2 may be re-planned into a
  // v3, but a compile already in flight is left alone.
  if (!P->Slot.claim())
    return false;
  tick(metrics().Replans, NReplans);

  // Compile the feedback version synchronously on the interpreter
  // backend (milliseconds — same budget as prepare). Deliberately NOT
  // through the QueryCache: feedback evolves between replans, so a v3
  // must not be served a stale cached v2.
  CompiledQuery V2 = compileQuery(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile,
                              /*Adaptive=*/true));
  if (!V2.valid() || V2.planHash() == P->Slot.live().planHash()) {
    // Feedback reproduced the running plan: nothing to swap.
    P->Slot.release();
    NReplanNoChange.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!Options.BackgroundRecompile) {
    publishAdaptive(P, std::move(V2));
    return true;
  }
  // Native mode: the native twin of v2 replaces it through the same
  // background compile as the interp->native upgrade.
  return compileInBackground(P, P->Slot, V2,
                             [this, P](CompiledQuery Native) {
                               publishAdaptive(P, std::move(Native));
                             });
}

void QueryService::judgeAdaptive(const PreparedHandle &P) {
  auto meanMicros = [](const std::atomic<std::uint64_t> &Nanos,
                       const std::atomic<std::uint64_t> &Runs) {
    double N = static_cast<double>(Runs.load(std::memory_order_relaxed));
    double Sum = static_cast<double>(Nanos.load(std::memory_order_relaxed));
    return N > 0 ? Sum / N / 1e3 : 0.0;
  };
  double BaseMean = meanMicros(P->BaseNanos, P->BaseRuns);
  double AdaptMean = meanMicros(P->AdaptNanos, P->AdaptRuns);

  bool Regressed =
      Options.AdaptJudge
          ? Options.AdaptJudge(BaseMean, AdaptMean)
          : (BaseMean > 0.0 &&
             AdaptMean > BaseMean * (1.0 + Options.AdaptSlack));

  std::uint64_t Anchor = feedbackAnchor(*P);
  adapt::FeedbackStore &FS = adapt::FeedbackStore::global();
  if (!Regressed) {
    FS.recordGoodPrediction(Anchor);
    return;
  }

  // Misprediction: revert to the static plan and strike the plan hash.
  if (!P->Slot.revert())
    return; // already reverted
  P->AdaptRuns.store(0, std::memory_order_relaxed);
  P->AdaptNanos.store(0, std::memory_order_relaxed);
  tick(metrics().AdaptReverted, NAdaptReverted);
  if (FS.recordMisprediction(Anchor) && P->Slot.pin())
    NAdaptPinned.fetch_add(1, std::memory_order_relaxed);
}

//===--------------------------------------------------------------------===//
// Admission and execution
//===--------------------------------------------------------------------===//

Response QueryService::execute(const PreparedHandle &P,
                               std::chrono::milliseconds Deadline) {
  return admit(P, Deadline, /*Partial=*/false, 0, 0);
}

Response QueryService::executePartial(const PreparedHandle &P,
                                      std::size_t Begin, std::size_t Len,
                                      std::chrono::milliseconds Deadline) {
  return admit(P, Deadline, /*Partial=*/true, Begin, Len);
}

Response QueryService::admit(const PreparedHandle &P,
                             std::chrono::milliseconds Deadline,
                             bool Partial, std::size_t Begin,
                             std::size_t Len) {
  ServeMetrics &M = metrics();
  Response Rsp;
  Rsp.Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  auto fail = [&](const std::string &Msg) {
    Rsp.St = Status::Error;
    Rsp.Message = Msg;
    tick(M.Errors, NErrors);
    return Rsp;
  };

  if (!P)
    return fail("null prepared handle");
  if (Closed.load(std::memory_order_relaxed))
    return fail("service is shutting down");

  if (Partial) {
    const PreparedQuery::PartialState *PS = preparePartial(P);
    if (!PS->Splittable)
      return fail("query is not splittable: " + PS->WhyNot);
    const auto &Sources = P->bindings().sources();
    std::size_t Count =
        (Sources.empty() || Sources[0].Count < 0)
            ? 0
            : static_cast<std::size_t>(Sources[0].Count);
    if (Begin > Count || Len > Count - Begin)
      return fail("partial range [" + std::to_string(Begin) + ", +" +
                  std::to_string(Len) + ") out of bounds for source of " +
                  std::to_string(Count));
  } else if (Options.BackgroundRecompile && !CompileQ.saturated()) {
    // A handle that degraded because the compile queue was saturated at
    // prepare time retries its upgrade here, once the queue has room.
    scheduleRecompile(P);
  }

  // Admission gate: bound queued + executing requests, whole and partial
  // alike.
  std::int64_t Depth = InFlight.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (Depth > static_cast<std::int64_t>(Options.MaxQueue)) {
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    Rsp.St = Status::Shed;
    tick(M.Shed, NShed);
    return Rsp;
  }
  M.QueueDepth.set(Depth);
  tick(M.Requests, NAccepted);

  auto R = std::make_shared<RequestState>();
  R->P = P;
  R->Deadline = std::chrono::steady_clock::now() + Deadline;
  R->Id = Rsp.Id;
  R->Partial = Partial;
  R->Begin = Begin;
  R->Len = Len;
  std::future<Response> Fut = R->Promise.get_future();

  if (!Exec.submit([this, R] { runRequest(R); })) {
    // Pool shutting down: answer inline (still exactly one response).
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return fail("service is shutting down");
  }
  return Fut.get();
}

void QueryService::runRequest(const std::shared_ptr<RequestState> &R) {
  ServeMetrics &M = metrics();
  // Request-id propagation: every child span of this request's execution
  // (steno.run, jit.*, ...) nests under a span naming the request.
  obs::Span ReqSpan("serve.request");
  ReqSpan.arg("request_id", static_cast<std::int64_t>(R->Id));
  Response Rsp;
  Rsp.Id = R->Id;
  Rsp.QueueMicros = R->QueueTimer.seconds() * 1e6;
  M.QueueMicros.observe(Rsp.QueueMicros);

  if (std::chrono::steady_clock::now() > R->Deadline) {
    Rsp.St = Status::Timeout;
    tick(M.Timeouts, NTimeouts);
    finish(*R, std::move(Rsp));
    return;
  }

  if (Options.ExecHook)
    Options.ExecHook();

  // Copy the plan out of its slot and run the copy: a swap landing
  // mid-run never touches the plan this request holds. A shard partial
  // runs the §6 vertex over the request's source range.
  PreparedQuery &P = *R->P;
  bool Adaptive = false;
  CompiledQuery Plan =
      R->Partial ? P.Partial->Vertex.live() : P.Slot.live(&Adaptive);
  support::WallTimer RunTimer;
  Rsp.Result =
      R->Partial
          ? Plan.run(dryad::bindingRange(P.bindings(), 0, R->Begin, R->Len))
          : Plan.run(P.bindings());
  Rsp.RunMicros = RunTimer.seconds() * 1e6;
  Rsp.St = Status::Ok;
  Rsp.NativePlan = Plan.backend() == Backend::Native;
  Rsp.AdaptivePlan = Adaptive;
  Rsp.Degraded = !Rsp.NativePlan && Options.BackgroundRecompile;
  tick(M.Ok, NOk);
  if (Rsp.NativePlan)
    tick(M.NativeRuns, NNativeRuns);
  if (Rsp.Degraded)
    tick(M.Degraded, NDegraded);
  M.RequestMicros.observe(Rsp.QueueMicros + Rsp.RunMicros);

  if (R->Partial) {
    // No adaptive bookkeeping for partials: the router combines them,
    // and judging them against whole-query latency would be apples to
    // oranges.
    tick(M.PartialRuns, NPartialRuns);
    finish(*R, std::move(Rsp));
    return;
  }

  // Latency accounting for the post-swap judgement, then answer the
  // client before any adaptive bookkeeping compiles anything.
  std::uint64_t Execs = P.Execs.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t RunNanos =
      static_cast<std::uint64_t>(Rsp.RunMicros * 1e3);
  bool Judge = false;
  if (Adaptive) {
    NAdaptiveRuns.fetch_add(1, std::memory_order_relaxed);
    P.AdaptNanos.fetch_add(RunNanos, std::memory_order_relaxed);
    Judge = P.AdaptRuns.fetch_add(1, std::memory_order_relaxed) + 1 ==
            Options.AdaptWindow;
  } else {
    P.BaseNanos.fetch_add(RunNanos, std::memory_order_relaxed);
    P.BaseRuns.fetch_add(1, std::memory_order_relaxed);
  }
  finish(*R, std::move(Rsp));

  if (Judge)
    judgeAdaptive(R->P);
  if (Options.ReplanEvery && Execs % Options.ReplanEvery == 0)
    scheduleAdaptiveReplan(R->P);
}

void QueryService::finish(RequestState &R, Response Rsp) {
  std::int64_t Depth =
      InFlight.fetch_sub(1, std::memory_order_acq_rel) - 1;
  metrics().QueueDepth.set(Depth);
  R.Promise.set_value(std::move(Rsp));
}

QueryService::Stats QueryService::stats() const {
  Stats S;
  S.Sessions = NSessions.load(std::memory_order_relaxed);
  S.Prepares = NPrepares.load(std::memory_order_relaxed);
  S.Accepted = NAccepted.load(std::memory_order_relaxed);
  S.Ok = NOk.load(std::memory_order_relaxed);
  S.Shed = NShed.load(std::memory_order_relaxed);
  S.Timeouts = NTimeouts.load(std::memory_order_relaxed);
  S.Errors = NErrors.load(std::memory_order_relaxed);
  S.DegradedRuns = NDegraded.load(std::memory_order_relaxed);
  S.NativeRuns = NNativeRuns.load(std::memory_order_relaxed);
  S.RecompilesScheduled = NRecompSched.load(std::memory_order_relaxed);
  S.RecompilesDone = NRecompDone.load(std::memory_order_relaxed);
  S.RecompilesFailed = NRecompFailed.load(std::memory_order_relaxed);
  S.RecompilesSaturated = NRecompSaturated.load(std::memory_order_relaxed);
  S.Replans = NReplans.load(std::memory_order_relaxed);
  S.ReplanSwaps = NReplanSwaps.load(std::memory_order_relaxed);
  S.ReplanNoChange = NReplanNoChange.load(std::memory_order_relaxed);
  S.AdaptiveRuns = NAdaptiveRuns.load(std::memory_order_relaxed);
  S.AdaptReverted = NAdaptReverted.load(std::memory_order_relaxed);
  S.AdaptPinned = NAdaptPinned.load(std::memory_order_relaxed);
  S.PartialRuns = NPartialRuns.load(std::memory_order_relaxed);
  S.QueueDepth = InFlight.load(std::memory_order_relaxed);
  return S;
}
