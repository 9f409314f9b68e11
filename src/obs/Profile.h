//===- obs/Profile.h - Per-operator query profiles -------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-level runtime profiles: the feedback substrate the ROADMAP's
/// adaptive-optimization item needs before any Pred reordering or plan
/// re-specialization can happen. A compiled plan registers a PlanDesc
/// (one ProfOpDesc per instrumented QUIL operator) in the global
/// ProfileStore under its structural plan hash; every profiled run then
/// merges a per-run ProfileSink — plain non-atomic arrays the hot loop
/// bumps — into the plan's QueryProfile exactly once, on completion.
///
/// Collection discipline (DESIGN.md §5g):
///   * The interpreter counts in its statement dispatch (ProfileCount /
///     ProfileTimed nodes), writing into the run's ProfileSink.
///   * The jit backend's generated TU accumulates into stack-local
///     arrays and flushes them through rt::Captures::ProfCounts /
///     ProfNanos once at entry exit — zero atomics, zero sharing.
///   * The morsel runtime attributes merges to workers through a
///     thread-local worker id (ProfileWorkerScope), so per-worker deltas
///     land in the store without any shared counter on the morsel path.
///
/// Exposition: renderExplainAnalyze() (per-operator tree with observed
/// selectivities and time percentages), profileJson() (the `profile`
/// wire command), and profilesPrometheus() / exportPrometheus() (the
/// `metrics` wire command and the STENO_METRICS_OUT atexit dump).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_OBS_PROFILE_H
#define STENO_OBS_PROFILE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace steno {
namespace obs {

/// Static description of one instrumented operator. Depth is the loop
/// nesting depth at instrumentation time (tree indentation); Timed ops
/// additionally accumulate cumulative nanoseconds.
struct ProfOpDesc {
  std::string Label; ///< "Src", "Where", "Trans", "GroupBy", "Ret", ...
  unsigned Depth = 0;
  bool Timed = false;
  /// Stable lambda identity (expr::hashLambda of a Where predicate; 0
  /// otherwise) so consumers can match observed selectivities back to a
  /// specific predicate across plan-rewriter permutations.
  std::uint64_t OpId = 0;
};

/// Static description of one profiled plan (registered at compile time).
struct PlanDesc {
  std::string Name;    ///< Readable query name (CompileOptions.Name).
  std::string Symbols; ///< QUIL symbol string.
  std::vector<ProfOpDesc> Ops;
  /// Provenance: the plan hash this plan was rewritten from (0 = not a
  /// rewrite product). A rewritten chain hashes differently from its
  /// source, which would orphan the source plan's accumulated profile;
  /// this link lets snapshotResolved() merge run counts through the
  /// rewrite so EXPLAIN ANALYZE never shows a spurious "0 runs".
  std::uint64_t RewrittenFrom = 0;
};

/// Per-run accumulation buffer: plain uint64 arrays with two count slots
/// per op (rows in at 2k, rows out at 2k+1) and one nanosecond slot per
/// op. Single-threaded by construction (one per execution), so the hot
/// loop pays no atomics; the run merges it into the store once at the
/// end.
struct ProfileSink {
  std::vector<std::uint64_t> Counts; ///< 2 * NumOps.
  std::vector<std::uint64_t> Nanos;  ///< NumOps.

  explicit ProfileSink(std::size_t NumOps)
      : Counts(2 * NumOps, 0), Nanos(NumOps, 0) {}
};

/// Upper bound on attributable worker ids; higher ids clamp to the last
/// slot (the store is a fixed array so attribution is lock-free).
constexpr unsigned ProfileMaxWorkers = 64;

/// One operator's merged statistics in a snapshot.
struct OpProfile {
  std::string Label;
  unsigned Depth = 0;
  bool Timed = false;
  std::uint64_t OpId = 0; ///< See ProfOpDesc::OpId.
  std::uint64_t RowsIn = 0;
  std::uint64_t RowsOut = 0;
  std::uint64_t Nanos = 0;

  /// Observed selectivity rows-out / rows-in; -1 when rows-in is 0
  /// (sources and never-reached operators have no meaningful ratio).
  double selectivity() const {
    return RowsIn ? static_cast<double>(RowsOut) /
                        static_cast<double>(RowsIn)
                  : -1.0;
  }
};

/// A consistent-enough copy of one plan's profile (individual fields are
/// relaxed loads; totals can be mid-merge torn across ops, never within
/// one counter).
struct ProfileSnapshot {
  std::uint64_t PlanHash = 0;
  std::string Name;
  std::string Symbols;
  std::uint64_t RewrittenFrom = 0; ///< PlanDesc provenance link (0 = none).
  /// snapshotResolved() only: the related plan whose runs were merged in
  /// (an ancestor through RewrittenFrom, or a rewrite descendant), and
  /// how many of Runs came from it. Plain snapshot() leaves both 0.
  std::uint64_t ResolvedFrom = 0;
  std::uint64_t PriorRuns = 0;
  std::uint64_t Runs = 0; ///< Completed merges (morsels count separately).
  std::vector<OpProfile> Ops;
  /// (worker id, merge count) pairs for workers that merged at least one
  /// run — the morsel attribution. Sorted by worker id.
  std::vector<std::pair<unsigned, std::uint64_t>> WorkerMerges;

  std::uint64_t totalNanos() const {
    std::uint64_t T = 0;
    for (const OpProfile &O : Ops)
      T += O.Nanos;
    return T;
  }
};

/// Merged statistics for one plan. merge() is lock-free (relaxed
/// fetch_add per slot): concurrent runs of the same plan — the morsel
/// path runs one vertex per morsel across workers — never contend on a
/// lock and never lose counts.
class QueryProfile {
public:
  explicit QueryProfile(PlanDesc D)
      : Desc(std::move(D)), Counts(2 * Desc.Ops.size()),
        Nanos(Desc.Ops.size()), Workers(ProfileMaxWorkers) {}

  const PlanDesc &desc() const { return Desc; }

  /// Adds one run's sink. \p Worker attributes the merge (clamped to
  /// ProfileMaxWorkers - 1).
  void merge(const ProfileSink &S, unsigned Worker);

  ProfileSnapshot snapshot(std::uint64_t PlanHash) const;

private:
  PlanDesc Desc;
  std::vector<std::atomic<std::uint64_t>> Counts;
  std::vector<std::atomic<std::uint64_t>> Nanos;
  std::vector<std::atomic<std::uint64_t>> Workers;
  std::atomic<std::uint64_t> Runs{0};
};

/// Process-wide profile registry keyed by structural plan hash
/// (quil::hashChain). Registration and snapshot take a mutex; merge is
/// one map lookup under the mutex plus lock-free counter adds (profile
/// entries are never removed except by clear(), so the returned
/// references stay valid).
class ProfileStore {
public:
  /// Registers \p Desc under \p PlanHash (idempotent: a structurally
  /// equal plan compiled twice shares the entry) and returns it.
  QueryProfile &ensure(std::uint64_t PlanHash, const PlanDesc &Desc);

  /// Merges one run's sink into the plan's profile, attributing it to
  /// the calling thread's profileWorker(). No-op for unknown hashes.
  void merge(std::uint64_t PlanHash, const ProfileSink &S);

  std::optional<ProfileSnapshot> snapshot(std::uint64_t PlanHash) const;

  /// snapshot() plus rewrite-provenance resolution: folds the entire
  /// weakly-connected provenance component — RewrittenFrom edges
  /// followed in both directions, transitively — so multi-hop chains
  /// (v1 -> v2 -> v3) and provenance siblings (two rewrite products of
  /// one original) all contribute their run counts to Runs / PriorRuns,
  /// recording the first contributing hash in ResolvedFrom. Per-op
  /// rows/nanos are merged index-wise when the related plan has the
  /// identical operator shape (same labels/ids); otherwise predicates
  /// whose (Label, OpId) pair is unique in both snapshots are matched by
  /// identity, so pred-permuted plan versions still aggregate per-pred
  /// statistics. Falls back to a relative's own snapshot (re-keyed to
  /// \p PlanHash) when \p PlanHash itself was never registered but a
  /// rewrite relative was.
  std::optional<ProfileSnapshot>
  snapshotResolved(std::uint64_t PlanHash) const;

  /// Every registered plan, ordered by plan hash (deterministic).
  std::vector<ProfileSnapshot> snapshotAll() const;

  std::size_t size() const;
  /// Drops every entry (tests only — outstanding QueryProfile references
  /// are invalidated).
  void clear();

  static ProfileStore &global();

private:
  mutable std::mutex Mutex;
  std::map<std::uint64_t, std::unique_ptr<QueryProfile>> Plans;
};

/// STENO_PROFILE (support::parseFlag, default off) — the default for
/// CompileOptions::Profile and ServeOptions::Profile.
bool profilingEnvEnabled();

/// Thread-local worker id used to attribute profile merges (0 when never
/// set — the caller thread). The morsel scheduler scopes each drive()
/// call with the worker's index.
unsigned profileWorker();
void setProfileWorker(unsigned W);

/// RAII worker-id scope (restores the previous id on exit, so pool
/// threads reused across schedulers stay correctly attributed).
class ProfileWorkerScope {
public:
  explicit ProfileWorkerScope(unsigned W) : Prev(profileWorker()) {
    setProfileWorker(W);
  }
  ~ProfileWorkerScope() { setProfileWorker(Prev); }
  ProfileWorkerScope(const ProfileWorkerScope &) = delete;
  ProfileWorkerScope &operator=(const ProfileWorkerScope &) = delete;

private:
  unsigned Prev;
};

/// EXPLAIN ANALYZE-style per-operator tree: rows in/out, observed
/// selectivity, cumulative time and time percentage per operator.
std::string renderExplainAnalyze(const ProfileSnapshot &S);

/// One JSON object for the `profile` wire command:
/// {"plan":"0x..","name":..,"symbols":..,"runs":N,"workers":{..},
///  "ops":[{"op":..,"depth":..,"rows_in":..,"rows_out":..,
///          "selectivity":..,"nanos":..,"time_pct":..},..]}.
std::string profileJson(const ProfileSnapshot &S);

/// Prometheus text-format summaries of every registered profile
/// (steno_profile_runs_total, steno_profile_op_rows_total{dir=..},
/// steno_profile_op_nanos_total).
std::string profilesPrometheus();

/// Whole-registry Prometheus exposition: dumpMetricsPrometheus() (all
/// counters/gauges/histograms) followed by profilesPrometheus().
std::string exportPrometheus();

} // namespace obs
} // namespace steno

#endif // STENO_OBS_PROFILE_H
