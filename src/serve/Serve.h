//===- serve/Serve.h - Concurrent query service ----------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer the paper's break-even analysis (§7.1) implies:
/// compiled queries only pay off when one compilation is amortized over
/// many executions, which means a long-lived process fielding a stream of
/// requests. QueryService is that process's core — a multi-client,
/// admission-controlled query service over the whole stack:
///
///   admit -> prepare -> execute -> (degrade | respond)
///
/// * **Wire format.** Queries arrive as textual `steno-fuzz v1` specs
///   (fuzz/Spec.h): self-contained recipes carrying both the pipeline and
///   the input-data description, so a spec alone is a complete request.
///   Specs are pre-screened through lower/validate/analyze; a rejected
///   spec is a clean prepare error, never a process abort.
///
/// * **Prepared handles.** prepare() parses and builds the spec once and
///   returns a PreparedHandle; the compiled plan underneath comes from a
///   QueryCache, so structurally equal queries — across sessions and
///   across handles — share one compiled module.
///
/// * **Admission control.** Accepted requests are bounded by MaxQueue
///   (queued + executing). Beyond that the service load-sheds: the
///   request is rejected immediately with Status::Shed instead of growing
///   an unbounded backlog. Each request carries a deadline; a request
///   whose deadline passes while it waits in the queue is answered with
///   Status::Timeout without executing.
///
/// * **Graceful degradation.** prepare() never blocks on the external
///   compiler: it produces an interpreter-backend plan synchronously
///   (milliseconds) and queues a native compile on a second, one-thread
///   dryad::ThreadPool, the compile pool, in the background. Requests run
///   on whatever plan the handle's PlanSlot holds — interpreter first (a
///   *degraded* run), then the native plan the compile publishes into the
///   slot. When MaxCompileQueue compiles are already queued or running,
///   the handle simply stays on the interpreter and retries the upgrade
///   on a later execute; a short request deadline is likewise never
///   extended by compilation, because no request ever waits for the JIT.
///
/// Execution runs on the existing dryad::ThreadPool (one request = one
/// worker; intra-query morsel parallelism is deliberately not nested
/// inside request workers — see DESIGN.md §5f for the pool-deadlock
/// argument). Metrics: serve.* (inventory in DESIGN.md §5f).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SERVE_SERVE_H
#define STENO_SERVE_SERVE_H

#include "analysis/Analysis.h"
#include "dryad/Plan.h"
#include "dryad/ThreadPool.h"
#include "fuzz/Spec.h"
#include "steno/QueryCache.h"
#include "steno/Result.h"
#include "steno/Steno.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace steno {
namespace serve {

/// Response classes — the service's "HTTP status line".
enum class Status : unsigned {
  Ok = 0,  ///< Executed; Result is valid.
  Timeout, ///< Deadline passed while the request waited in the queue.
  Shed,    ///< Admission queue full; rejected without queuing.
  Error    ///< Malformed spec, unknown handle, or service shutdown.
};

const char *statusName(Status S);

/// Service configuration.
struct ServeOptions {
  unsigned Workers = 4;   ///< Execution pool (dryad::ThreadPool) size.
  unsigned MaxQueue = 64; ///< Admission bound: queued + executing requests.
  unsigned MaxCompileQueue = 8; ///< Queued plus running compiles; 0 = never
                                ///< recompile natively (always "saturated").
  /// Deadline applied when execute() is called without one.
  std::chrono::milliseconds DefaultDeadline{5000};
  /// Upgrade interpreter plans to native in the background. Off = every
  /// run stays on the interpreter (and is not counted as degraded).
  bool BackgroundRecompile = true;
  /// Compile every plan with profiling hooks: per-operator statistics
  /// accumulate in the global obs::ProfileStore (keyed by plan hash, so
  /// the interp plan and its native swap-in merge into one profile) and
  /// are served by the wire `profile <handle>` command.
  bool Profile = false;
  /// Feedback-driven re-planning (DESIGN.md §5j): after ReplanEvery x
  /// 2^k executions of a handle (k = 0, 1, 2, ...), recompile the plan
  /// with the selectivities the obs::ProfileStore observed and — when
  /// they produced a different plan — replace the handle's plan with it,
  /// like the interp->native swap. Requires Profile (no observations
  /// otherwise). 0 = only explicit scheduleAdaptiveReplan calls.
  unsigned ReplanEvery = 64;
  /// Plan cache; defaults to a service-private cache when null. Not
  /// owned.
  QueryCache *Cache = nullptr;
  /// Test instrumentation: invoked on the worker thread immediately
  /// before a request executes (after the deadline check). Lets tests
  /// hold workers at a barrier to fill the admission queue
  /// deterministically. Never set in production.
  std::function<void()> ExecHook;
};

/// One request's answer. Exactly one Response is produced per accepted
/// execute() call (and per shed/timeout), carrying a service-unique Id.
struct Response {
  Status St = Status::Error;
  std::uint64_t Id = 0;   ///< Service-unique request id (0 = never admitted).
  std::string Message;    ///< Error detail (St == Error).
  QueryResult Result;     ///< Valid when St == Ok.
  bool Degraded = false;  ///< Ran interpreted while a native plan was wanted.
  bool NativePlan = false; ///< Executed the JIT-compiled plan.
  double QueueMicros = 0;  ///< Admission-to-execution wait.
  double RunMicros = 0;    ///< Plan execution time.
};

class QueryService;

/// The plan a served query runs (DESIGN.md §5f): interpreted at first,
/// replaced by its native twin once the background compile lands, and by
/// a feedback re-plan when one produces a new plan (DESIGN.md §5j). One
/// mutex guards the plan and the flag of the one background compile that
/// may replace it. Readers copy the plan under the lock and run the copy
/// without it: CompiledQuery is a shared handle, so a swap never frees a
/// plan an in-flight request holds.
class PlanSlot {
public:
  /// The plan a request runs now.
  CompiledQuery plan() const {
    std::lock_guard<std::mutex> Lock(M);
    return Plan;
  }

  /// Claims the slot's one background compile; false while one is in
  /// flight or, with \p UpgradeOnly, once the plan is native.
  bool claim(bool UpgradeOnly = false);
  /// Ends a claimed compile without publishing anything.
  void release() {
    std::lock_guard<std::mutex> Lock(M);
    Compiling = false;
  }
  /// Replaces the plan with \p Next and ends any claimed compile.
  void publish(CompiledQuery Next);

private:
  mutable std::mutex M;
  CompiledQuery Plan;
  bool Compiling = false;
};

/// A prepared query: its built query, input buffers and plan slot.
/// Immutable to callers; thread-safe to execute from any number of
/// threads concurrently, including across a plan swap.
class PreparedQuery {
public:
  /// Shard-serving state (steno::shard, DESIGN.md §5k): the §6
  /// decomposition of this query, prepared lazily on the first partial-
  /// execution request. Splittable means dryad::decideSplit allowed the
  /// homomorphic-prefix + Agg split; the vertex plan then computes this
  /// worker's *partial* over a source range, and the router owns the Agg*
  /// combine. Immutable after the once-flag fires, except that the vertex
  /// upgrades to native through its slot like the whole-query plan.
  struct PartialState {
    bool Splittable = false;
    std::string WhyNot;           ///< Why not, when !Splittable.
    dryad::ParallelPlan Plan;     ///< Valid when Splittable.
    PlanSlot Vertex;              ///< Holds a plan when Splittable.
  };

  const query::Query &query() const { return Built.Q; }
  const Bindings &bindings() const { return Built.B; }

  /// True once a native plan has been swapped in.
  bool nativeReady() const {
    return Slot.plan().backend() == Backend::Native;
  }
  /// One-off native compile cost once nativeReady(), else 0.
  double nativeCompileMillis() const { return Slot.plan().compileMillis(); }
  /// The plan execute() would run right now. Every version — interp v1,
  /// its native twin, a feedback re-plan — is a rewrite relative of one
  /// anchor plan, so a resolved profile snapshot of any of them merges
  /// all their runs.
  CompiledQuery currentPlan() const { return Slot.plan(); }

private:
  friend class QueryService;

  fuzz::BuiltQuery Built;
  PlanSlot Slot;
  std::atomic<std::uint64_t> Execs{0}; ///< Whole-query runs (replan cadence).

  /// §6 decomposition, built lazily by QueryService::preparePartial on
  /// the first pexec for this handle (most handles never shard).
  std::once_flag PartialOnce;
  std::unique_ptr<PartialState> Partial;
};

/// Mutation (the plan swap) is QueryService-private; handle holders only
/// see the accessors above.
using PreparedHandle = std::shared_ptr<PreparedQuery>;

/// A client's view of the service. Sessions are cheap; one per client
/// connection. prepare() memoizes by spec text per session (re-preparing
/// the same text returns the same handle); handles are interchangeable
/// across sessions. execute() is thread-safe; prepare() serializes on a
/// per-session mutex.
class Session {
public:
  std::uint64_t id() const { return Id; }

  /// Parses, screens and builds \p SpecText; returns null and fills
  /// \p Err on a malformed or analysis-rejected spec.
  PreparedHandle prepare(const std::string &SpecText, std::string *Err);

  /// Admits and runs one request against \p P with an explicit deadline
  /// budget. Blocks until the response (closed-loop client model).
  Response execute(const PreparedHandle &P,
                   std::chrono::milliseconds Deadline);
  /// execute() with the service's DefaultDeadline.
  Response execute(const PreparedHandle &P);

private:
  friend class QueryService;
  Session(QueryService &Svc, std::uint64_t Id) : Svc(Svc), Id(Id) {}

  QueryService &Svc;
  std::uint64_t Id;
  std::mutex Mutex; ///< Guards Prepared.
  std::unordered_map<std::string, PreparedHandle> Prepared;
};

/// The service. One instance per process (or per test); owns the
/// execution pool, the background compile pool, and (by default) the
/// plan cache. Destruction drains in-flight work.
class QueryService {
public:
  explicit QueryService(const ServeOptions &Options = ServeOptions());
  ~QueryService();

  QueryService(const QueryService &) = delete;
  QueryService &operator=(const QueryService &) = delete;

  std::shared_ptr<Session> openSession();

  /// Session-independent prepare (sessions delegate here after their
  /// memoization layer).
  PreparedHandle prepare(const std::string &SpecText, std::string *Err);

  /// Session-independent execute (thread-safe).
  Response execute(const PreparedHandle &P,
                   std::chrono::milliseconds Deadline);

  /// The §6 decomposition of \p P, computed once per handle and cached
  /// (thread-safe; concurrent callers block on the once-flag). Always
  /// returns a state — consult Splittable/WhyNot; a handle whose
  /// certificate or planner refused the split has Splittable == false
  /// and the router must route it whole. Never null for a non-null
  /// handle.
  const PreparedQuery::PartialState *
  preparePartial(const PreparedHandle &P);

  /// Runs \p P's per-shard vertex (homomorphic prefix + Agg_i of
  /// Figure 12) over elements [Begin, Begin+Len) of source slot 0,
  /// returning the *partial* result — the router combines partials with
  /// the Agg* stage. Admission-controlled exactly like execute().
  /// Errors when the handle is not splittable or the range is out of
  /// bounds. Empty ranges (Len == 0) are valid and produce the vertex's
  /// identity partial.
  Response executePartial(const PreparedHandle &P, std::size_t Begin,
                          std::size_t Len,
                          std::chrono::milliseconds Deadline);

  /// Queues a native compile of \p P's interpreted plan now (normally
  /// scheduled by prepare). prepare()'s plan goes through the QueryCache;
  /// a re-planned plan's native twin is this handle's alone. Returns
  /// false when the compile pool is saturated, the plan is already
  /// native, or a compile is already in flight. Used by the soak tests to
  /// force the swap mid-stream.
  bool scheduleRecompile(const PreparedHandle &P);

  /// Recompiles \p P's plan with the accumulated feedback and, when the
  /// feedback produced a new plan hash, makes it the handle's plan
  /// (normally triggered at ReplanEvery x 2^k executions; a no-op unless
  /// Profile is on). The interpreter version is compiled synchronously,
  /// outside the QueryCache. With BackgroundRecompile on, the re-plan
  /// waits until the handle runs natively and publishes the new plan's
  /// native twin through the same background compile as the
  /// interp->native swap. Returns true when a swap happened or was
  /// queued. Used by the soak tests to force a v1 -> v2 swap mid-stream.
  bool scheduleAdaptiveReplan(const PreparedHandle &P);

  /// Blocks until every accepted background compile has finished and
  /// published (tests, shutdown).
  void drainRecompiles();

  const ServeOptions &options() const { return Options; }
  QueryCache &cache() { return *Cache; }

  /// Instance-local monotonic statistics (the serve.* obs instruments
  /// aggregate across instances; tests read these).
  struct Stats {
    std::uint64_t Sessions = 0;
    std::uint64_t Prepares = 0;
    std::uint64_t Accepted = 0;
    std::uint64_t Ok = 0;
    std::uint64_t Shed = 0;
    std::uint64_t Timeouts = 0;
    std::uint64_t Errors = 0;
    std::uint64_t DegradedRuns = 0;
    std::uint64_t NativeRuns = 0;
    std::uint64_t RecompilesScheduled = 0;
    std::uint64_t RecompilesDone = 0;
    std::uint64_t RecompilesFailed = 0;
    std::uint64_t RecompilesSaturated = 0;
    std::uint64_t Replans = 0;        ///< Adaptive recompiles attempted.
    std::uint64_t ReplanSwaps = 0;    ///< New plan versions swapped in.
    std::uint64_t ReplanNoChange = 0; ///< Feedback reproduced the plan.
    std::uint64_t PartialRuns = 0;    ///< Per-shard vertex executions.
    std::int64_t QueueDepth = 0;
  };
  Stats stats() const;

private:
  struct RequestState;

  /// The one admission path of execute() and executePartial(): checks
  /// the request, applies the MaxQueue bound, and runs it on the pool.
  Response admit(const PreparedHandle &P, std::chrono::milliseconds Deadline,
                 bool Partial, std::size_t Begin, std::size_t Len);
  void runRequest(const std::shared_ptr<RequestState> &R);
  void finish(RequestState &R, Response Rsp);
  void buildPartial(const PreparedHandle &P);
  /// The one background-compile path: compiles \p From natively on the
  /// compile pool and hands the native twin to \p Publish, which
  /// publishes it into \p Slot (a slot of \p P that the caller claimed).
  /// A saturated pool or a failed compile releases the claim, so a later
  /// request retries. Returns true when the compile was queued.
  bool compileInBackground(const PreparedHandle &P, PlanSlot &Slot,
                           const CompiledQuery &From,
                           std::function<void(CompiledQuery)> Publish);
  /// True when MaxCompileQueue compiles are queued or running.
  bool compilePoolFull() const {
    return Compiles.load(std::memory_order_relaxed) >=
           Options.MaxCompileQueue;
  }

  ServeOptions Options;
  std::unique_ptr<QueryCache> OwnedCache; ///< When Options.Cache == null.
  QueryCache *Cache = nullptr;

  std::atomic<std::uint64_t> NextSessionId{1};
  std::atomic<std::uint64_t> NextRequestId{1};
  std::atomic<std::int64_t> InFlight{0};
  std::atomic<unsigned> Compiles{0}; ///< Queued plus running compiles.
  std::atomic<bool> Closed{false};

  // Instance stats (relaxed atomics; read via stats()).
  std::atomic<std::uint64_t> NSessions{0}, NPrepares{0}, NAccepted{0},
      NOk{0}, NShed{0}, NTimeouts{0}, NErrors{0}, NDegraded{0},
      NNativeRuns{0}, NRecompSched{0}, NRecompDone{0}, NRecompFailed{0},
      NRecompSaturated{0}, NReplans{0}, NReplanSwaps{0},
      NReplanNoChange{0}, NPartialRuns{0};

  // Declared last: destroyed first, so worker threads and compile
  // callbacks never outlive the state above.
  dryad::ThreadPool CompilePool; ///< One thread: compiles run one at a time.
  dryad::ThreadPool Exec;
};

} // namespace serve
} // namespace steno

#endif // STENO_SERVE_SERVE_H
