//===- serve/Serve.cpp - Concurrent query service --------------*- C++ -*-===//

#include "serve/Serve.h"

#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "jit/Jit.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "quil/Quil.h"
#include "support/Timing.h"

#include <bit>
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
/// process on what should be a per-request error. prepare()'s (v1) plan
/// is deliberately non-adaptive: it is the stable static plan the
/// observations accumulate against, and the only plan the QueryCache
/// holds.
/// Feedback enters only through the re-plan path, which compiles with
/// \p Adaptive on.
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

bool PlanSlot::claim(bool UpgradeOnly) {
  std::lock_guard<std::mutex> Lock(M);
  if (Compiling || (UpgradeOnly && Plan.backend() == Backend::Native))
    return false;
  Compiling = true;
  return true;
}

void PlanSlot::publish(CompiledQuery Next) {
  std::lock_guard<std::mutex> Lock(M);
  Plan = std::move(Next);
  Compiling = false;
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
      CompilePool(1), Exec(O.Workers) {}

QueryService::~QueryService() {
  Closed.store(true, std::memory_order_relaxed);
  // Members destroy in reverse declaration order: the execution pool
  // drains its accepted requests first (fulfilling every outstanding
  // promise), then the compile pool finishes its compiles (whose publishes
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
  P->Slot.publish(Cache->getOrCompile(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile)));

  tick(metrics().Prepares, NPrepares);
  if (Options.BackgroundRecompile)
    scheduleRecompile(P);
  return P;
}

bool QueryService::compileInBackground(
    const PreparedHandle &P, PlanSlot &Slot, const CompiledQuery &From,
    std::function<void(CompiledQuery)> Publish) {
  // MaxCompileQueue bounds queued plus running compiles: a compile storm
  // leaves handles on their current plan instead of growing a backlog.
  // The task holds P, which keeps Slot alive across the compile.
  bool Submitted =
      Compiles.fetch_add(1, std::memory_order_relaxed) <
          Options.MaxCompileQueue &&
      CompilePool.submit([this, P, &Slot, From,
                          Publish = std::move(Publish)] {
        std::string Err;
        auto Module = jit::CompiledModule::compile(
            From.generatedSource(), From.program().Name, &Err);
        if (Module) {
          Publish(From.withNativeModule(std::move(Module)));
          tick(metrics().RecompDone, NRecompDone);
        } else {
          // Back to idle: a later request may retry once the toolchain
          // recovers. Requests keep running the slot's current plan.
          Slot.release();
          tick(metrics().RecompFailed, NRecompFailed);
          std::fprintf(stderr, "steno-serve: background recompile of '%s' "
                               "failed: %s\n",
                       From.program().Name.c_str(), Err.c_str());
        }
        Compiles.fetch_sub(1, std::memory_order_relaxed);
      });
  if (!Submitted) {
    // Saturated (or shutting-down) pool: degrade (stay on the current
    // plan) and free the slot so a later request retries.
    Compiles.fetch_sub(1, std::memory_order_relaxed);
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
  CompiledQuery From = P->Slot.plan();

  // The QueryCache holds prepare()'s plans and their native twins only.
  // A re-planned plan (a hash the cached interpreter plan does not have)
  // compiles for this handle alone, never under the static key.
  CompiledQuery Static = Cache->lookup(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile));
  if (!Static.valid() || Static.planHash() != From.planHash())
    return compileInBackground(P, P->Slot, From,
                               [P](CompiledQuery Native) {
                                 P->Slot.publish(std::move(Native));
                               });

  // Another handle for the same structure may have finished first; the
  // cache peek turns that into an immediate swap with no compiler run.
  CompileOptions NativeOptions = planOptions(Backend::Native, Options.Profile);
  CompiledQuery Cached = Cache->lookup(P->Built.Q, NativeOptions);
  if (Cached.valid()) {
    P->Slot.publish(std::move(Cached));
    tick(metrics().RecompDone, NRecompDone);
    return true;
  }
  // Publish to the cache first (first insert wins, so concurrent
  // recompiles of equal queries converge on one module), then swap.
  return compileInBackground(
      P, P->Slot, From, [this, P, NativeOptions](CompiledQuery Native) {
        P->Slot.publish(
            Cache->insert(P->Built.Q, NativeOptions, std::move(Native)));
      });
}

void QueryService::drainRecompiles() { CompilePool.wait(); }

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
  PS->WhyNot = std::move(Split.WhyNot);
  if (Split.Plan) {
    PS->Splittable = true;
    PS->Plan = std::move(*Split.Plan);
    CompileOptions VO = planOptions(Backend::Interp, Options.Profile);
    VO.SpecializeGroupByAggregate = false; // already applied
    VO.Name = "serve_vertex";
    PS->Vertex.publish(compileChain(PS->Plan.VertexChain, VO));
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
  // later pexecs when the compile pool was saturated. Deliberately not
  // through the QueryCache: vertex plans are keyed by the *partial*
  // chain, not the query the cache indexes.
  if (PS.Splittable && Options.BackgroundRecompile && !compilePoolFull() &&
      PS.Vertex.claim(/*UpgradeOnly=*/true))
    compileInBackground(P, PS.Vertex, PS.Vertex.plan(),
                        [&PS](CompiledQuery Native) {
                          PS.Vertex.publish(std::move(Native));
                        });
  return &PS;
}

//===--------------------------------------------------------------------===//
// Adaptive re-planning (DESIGN.md §5j)
//===--------------------------------------------------------------------===//

bool QueryService::scheduleAdaptiveReplan(const PreparedHandle &P) {
  if (!P || Closed.load(std::memory_order_relaxed) || !Options.Profile)
    return false;
  // With native plans wanted, a re-plan waits for the native v1:
  // replacing it with a slower interpreted v2 would regress the handle
  // for the wrong reason. Retry at the next cadence point.
  if (Options.BackgroundRecompile && !P->nativeReady())
    return false;
  // One compile per handle at a time: a v2 may be re-planned into a v3,
  // but a compile already in flight is left alone.
  if (!P->Slot.claim())
    return false;
  tick(metrics().Replans, NReplans);

  // Compile the feedback plan synchronously on the interpreter backend
  // (milliseconds — same budget as prepare). Deliberately NOT through
  // the QueryCache: feedback evolves between re-plans, so a v3 must not
  // be served a stale cached v2, and the cache's static key must never
  // name a feedback plan.
  CompiledQuery Next = compileQuery(
      P->Built.Q, planOptions(Backend::Interp, Options.Profile,
                              /*Adaptive=*/true));
  if (!Next.valid() || Next.planHash() == P->Slot.plan().planHash()) {
    // Feedback reproduced the running plan: nothing to swap.
    P->Slot.release();
    NReplanNoChange.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  auto Publish = [this, P](CompiledQuery Plan) {
    P->Slot.publish(std::move(Plan));
    tick(metrics().ReplanSwaps, NReplanSwaps);
  };
  if (!Options.BackgroundRecompile) {
    Publish(std::move(Next));
    return true;
  }
  // Native mode: the new plan's native twin replaces the running plan
  // through the same background compile as the interp->native upgrade.
  return compileInBackground(P, P->Slot, Next, std::move(Publish));
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
  // The deadline runs from the call: a caller descheduled anywhere below
  // must not push it later. One past the clock's range never expires.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Now = Clock::now();
  const Clock::time_point Due =
      Deadline < std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::time_point::max() - Now)
          ? Now + Deadline
          : Clock::time_point::max();
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
  } else if (Options.BackgroundRecompile && !compilePoolFull()) {
    // A handle that degraded because the compile pool was saturated at
    // prepare time retries its upgrade here, once the pool has room.
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
  R->Deadline = Due;
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
  CompiledQuery Plan = R->Partial ? P.Partial->Vertex.plan() : P.Slot.plan();
  support::WallTimer RunTimer;
  Rsp.Result =
      R->Partial
          ? Plan.run(dryad::bindingRange(P.bindings(), 0, R->Begin, R->Len))
          : Plan.run(P.bindings());
  Rsp.RunMicros = RunTimer.seconds() * 1e6;
  Rsp.St = Status::Ok;
  Rsp.NativePlan = Plan.backend() == Backend::Native;
  Rsp.Degraded = !Rsp.NativePlan && Options.BackgroundRecompile;
  tick(M.Ok, NOk);
  if (Rsp.NativePlan)
    tick(M.NativeRuns, NNativeRuns);
  if (Rsp.Degraded)
    tick(M.Degraded, NDegraded);
  M.RequestMicros.observe(Rsp.QueueMicros + Rsp.RunMicros);

  if (R->Partial) {
    // No re-plan cadence for partials: the vertex plan is fixed by the
    // §6 split.
    tick(M.PartialRuns, NPartialRuns);
    finish(*R, std::move(Rsp));
    return;
  }

  // Answer the client before the re-plan cadence compiles anything. The
  // cadence doubles (ReplanEvery x 1, 2, 4, ... executions): a handle's
  // bindings are fixed, so its selectivities settle after the first runs
  // and later re-plans would mostly reproduce the running plan.
  std::uint64_t Execs = P.Execs.fetch_add(1, std::memory_order_relaxed) + 1;
  finish(*R, std::move(Rsp));
  if (Options.ReplanEvery && Execs % Options.ReplanEvery == 0 &&
      std::has_single_bit(Execs / Options.ReplanEvery))
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
  S.PartialRuns = NPartialRuns.load(std::memory_order_relaxed);
  S.QueueDepth = InFlight.load(std::memory_order_relaxed);
  return S;
}
