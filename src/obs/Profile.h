//===- obs/Profile.h - Per-operator query profiles -------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-level runtime profiles, and the one store of observations
/// the feedback re-rank of adjacent Where predicates reads (DESIGN.md
/// §5j). A compiled plan registers a PlanDesc
/// (one ProfOpDesc per instrumented QUIL operator) in the global
/// ProfileStore under its structural plan hash; every profiled run then
/// merges a per-run ProfileSink — a plain non-atomic array the hot loop
/// bumps — into the plan's QueryProfile exactly once, on completion.
///
/// Collection discipline (DESIGN.md §5g): a profile is row counts only,
/// two per operator (rows in, rows out), and no backend reads a clock
/// for it. A run's wall time is the steno.run span and the
/// steno.run.micros histogram.
///   * The interpreter counts in its statement dispatch (ProfileCount
///     nodes), writing into the run's ProfileSink; the batch executor
///     moves the same counters by lane counts once per batch.
///   * The jit backend's generated TU is the unprofiled loop plus
///     counter bumps into a stack-local array, flushed through
///     rt::Captures::ProfCounts once at entry exit — zero atomics, zero
///     sharing.
///   * The morsel runtime attributes merges to workers through a
///     thread-local worker id (ProfileWorkerScope), so per-worker deltas
///     land in the store without any shared counter on the morsel path.
///
/// Exposition: renderExplainAnalyze() (per-operator tree with observed
/// selectivities), profileJson() (the `profile` wire command), and
/// profilesPrometheus() / exportPrometheus() (the `metrics` wire command
/// and the STENO_METRICS_OUT atexit dump).
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
/// nesting depth at instrumentation time (tree indentation).
struct ProfOpDesc {
  std::string Label; ///< "Src", "Where", "Trans", "GroupBy", "Ret", ...
  unsigned Depth = 0;
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
  /// The query this plan is a version of: the hash of its un-rewritten,
  /// specialized chain (the plan's own hash when nothing was rewritten;
  /// always set, since plans with equal anchors fold). A rewritten chain
  /// hashes differently from its source; every version of one query
  /// shares the anchor, and snapshotResolved() folds the versions of one
  /// anchor, so EXPLAIN ANALYZE never shows a spurious "0 runs" and the
  /// feedback re-rank sees every run.
  std::uint64_t Anchor = 0;
};

/// Per-run accumulation buffer: a plain uint64 array with two count
/// slots per op (rows in at 2k, rows out at 2k+1). Single-threaded by
/// construction (one per execution), so the hot loop pays no atomics;
/// the run merges it into the store once at the end.
struct ProfileSink {
  std::vector<std::uint64_t> Counts; ///< 2 * NumOps.

  explicit ProfileSink(std::size_t NumOps) : Counts(2 * NumOps, 0) {}
};

/// Upper bound on attributable worker ids; higher ids clamp to the last
/// slot (the store is a fixed array so attribution is lock-free).
constexpr unsigned ProfileMaxWorkers = 64;

/// One operator's merged statistics in a snapshot.
struct OpProfile {
  std::string Label;
  unsigned Depth = 0;
  std::uint64_t OpId = 0; ///< See ProfOpDesc::OpId.
  std::uint64_t RowsIn = 0;
  std::uint64_t RowsOut = 0;

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
  std::uint64_t Anchor = 0; ///< See PlanDesc::Anchor.
  /// snapshotResolved() only: the first other version of the anchor
  /// whose runs were merged in, and how many of Runs came from other
  /// versions. Plain snapshot() leaves both 0.
  std::uint64_t ResolvedFrom = 0;
  std::uint64_t PriorRuns = 0;
  std::uint64_t Runs = 0; ///< Completed merges (morsels count separately).
  std::vector<OpProfile> Ops;
  /// (worker id, merge count) pairs for workers that merged at least one
  /// run — the morsel attribution. Sorted by worker id.
  std::vector<std::pair<unsigned, std::uint64_t>> WorkerMerges;
};

/// Merged statistics for one plan. merge() is lock-free (relaxed
/// fetch_add per slot): concurrent runs of the same plan — the morsel
/// path runs one vertex per morsel across workers — never contend on a
/// lock and never lose counts.
class QueryProfile {
public:
  explicit QueryProfile(PlanDesc D)
      : Desc(std::move(D)), Counts(2 * Desc.Ops.size()),
        Workers(ProfileMaxWorkers) {}

  const PlanDesc &desc() const { return Desc; }

  /// Adds one run's sink. \p Worker attributes the merge (clamped to
  /// ProfileMaxWorkers - 1).
  void merge(const ProfileSink &S, unsigned Worker);

  ProfileSnapshot snapshot(std::uint64_t PlanHash) const;

private:
  PlanDesc Desc;
  std::vector<std::atomic<std::uint64_t>> Counts;
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

  /// snapshot() folded over every version of one query: the registered
  /// plans whose anchor is \p PlanHash's (its PlanDesc::Anchor when it
  /// is registered, else \p PlanHash itself, so a caller holding an
  /// anchor that never ran as a plan still finds its versions). The
  /// other versions' runs add to Runs and PriorRuns, and the first of
  /// them is recorded in ResolvedFrom. Per-op rows are merged
  /// index-wise when a version has the identical operator shape (same
  /// labels/ids); otherwise predicates whose (Label, OpId) pair is
  /// unique in both snapshots are matched by identity, so pred-permuted
  /// versions still aggregate per-pred statistics. When \p PlanHash
  /// itself is not registered, the first version's snapshot is re-keyed
  /// to it.
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

/// EXPLAIN ANALYZE-style per-operator tree: rows in/out and observed
/// selectivity per operator.
std::string renderExplainAnalyze(const ProfileSnapshot &S);

/// One JSON object for the `profile` wire command:
/// {"plan":"0x..","name":..,"symbols":..,"runs":N,"workers":{..},
///  "ops":[{"op":..,"depth":..,"rows_in":..,"rows_out":..,
///          "selectivity":..},..]}.
std::string profileJson(const ProfileSnapshot &S);

/// Prometheus text-format summaries of every registered profile
/// (steno_profile_runs_total, steno_profile_op_rows_total{dir=..}).
std::string profilesPrometheus();

/// Whole-registry Prometheus exposition: dumpMetricsPrometheus() (all
/// counters/gauges/histograms) followed by profilesPrometheus().
std::string exportPrometheus();

} // namespace obs
} // namespace steno

#endif // STENO_OBS_PROFILE_H
