//===- adapt/Adapt.h - Feedback-driven adaptive optimization ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// steno::adapt — the feedback loop that turns the obs::ProfileStore from
/// a reporting tool into a planning input (DESIGN.md §5j). Modeled on
/// PostgresPro AQO's learn-cache / auto-tuning / ignorance design:
///
///  * **FeedbackStore** aggregates observed Pred selectivities and
///    per-operator costs per plan hash across runs. Each refresh() folds
///    the *delta* since the last refresh as one observation into
///    exponentially-decayed means (EWMA, factor Alpha), so a query whose
///    data distribution drifts re-learns instead of averaging forever.
///    A minimum-sample threshold (STENO_ADAPT_MIN_SAMPLES, default 3)
///    gates every consumer: one noisy run never reorders a plan.
///
///  * **observedStats()** exports the ripe predicate feedback in the
///    quil::RewriteOptions::Observed form, so the certificate-gated
///    rewriter ranks adjacent Where runs by observed cost×selectivity
///    instead of the static System-R heuristic. The stats travel inside
///    RewriteOptions — not read back from mutable store state — which
///    keeps verifyCertificates()'s replay deterministic.
///
///  * **tunedMorselOptions()** picks morsel sizing per query from the
///    observed per-row cost (sizing a morsel to the scheduler's latency
///    budget) and per-worker skew, and routes provably tiny inputs to the
///    inline single-worker path.
///
///  * **Ignorance list.** A plan hash whose post-swap observed latency
///    regresses strikes once; MispredictLimit (2) *consecutive* strikes
///    quarantine the hash — adaptive planning pins it to the static plan
///    and bumps the `adapt.ignored` counter. A good prediction resets the
///    strike count.
///
/// Gate: STENO_ADAPT (on unless set to "0" or "off") defaults
/// CompileOptions::Adaptive and serve's re-planning.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_ADAPT_ADAPT_H
#define STENO_ADAPT_ADAPT_H

#include "analysis/Rewrite.h"
#include "dryad/Morsel.h"
#include "obs/Profile.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

namespace steno {
namespace adapt {

/// STENO_ADAPT (support::parseFlag, default on) — the default for
/// CompileOptions::Adaptive and ServeOptions::AdaptiveReplan.
bool adaptEnvEnabled();

/// STENO_ADAPT_MIN_SAMPLES (support::parseCount, default 3, minimum 1):
/// observed runs required before feedback is considered ripe.
std::uint64_t adaptMinSamplesEnv();

/// One predicate's decayed observation, keyed by the lambda identity
/// (expr::hashLambda) the profiler records as OpId.
struct PredFeedback {
  double Sel = 0.0;          ///< Decayed mean observed selectivity.
  double NanosPerRow = 0.0;  ///< Decayed mean per-input-row cost (0 when
                             ///< the operator was never timed).
  std::uint64_t Samples = 0; ///< Runs folded in (undecayed count).
};

/// The decayed aggregate for one plan hash.
struct PlanFeedback {
  std::uint64_t Runs = 0;       ///< Total runs folded in.
  double RowsPerRun = 0.0;      ///< Decayed mean source rows per run.
  double NanosPerRow = 0.0;     ///< Decayed mean whole-plan cost per row.
  double WorkerImbalance = 1.0; ///< max/mean merge share across workers.
  unsigned WorkersSeen = 0;     ///< Workers that merged at least one run.
  std::map<std::uint64_t, PredFeedback> Preds; ///< Keyed by OpId.
};

/// Thread-safe feedback aggregation keyed by quil::hashChain plan hash.
/// refresh() pulls the provenance-resolved cumulative profile and folds
/// the delta since the previous refresh; observe() is the deterministic
/// test entry that folds a hand-built snapshot directly.
class FeedbackStore {
public:
  explicit FeedbackStore(double Alpha = 0.3,
                         std::uint64_t MinSamples = adaptMinSamplesEnv(),
                         unsigned MispredictLimit = 2)
      : Alpha(Alpha), MinSamples(MinSamples),
        MispredictLimit(MispredictLimit) {}

  /// Folds the delta between \p Store's resolved snapshot for
  /// \p PlanHash and the last refresh into the decayed aggregates.
  /// Returns the updated aggregate, or nullopt when the store has never
  /// seen the plan.
  std::optional<PlanFeedback> refresh(std::uint64_t PlanHash,
                                      const obs::ProfileStore &Store);

  /// Folds one snapshot (keyed by S.PlanHash) directly. Cumulative
  /// counters smaller than the previous observation reset the baseline
  /// (the profile store was cleared).
  std::optional<PlanFeedback> observe(const obs::ProfileSnapshot &S);

  /// The current aggregate without refreshing.
  std::optional<PlanFeedback> lookup(std::uint64_t PlanHash) const;

  /// Ripe predicate feedback (Samples >= minSamples()) in the form the
  /// rewriter consumes; empty when the plan is unknown, not ripe, or
  /// quarantined.
  std::map<std::uint64_t, quil::ObservedPredStats>
  observedStats(std::uint64_t PlanHash) const;

  //===--- Ignorance list (AQO-style) -----------------------------------===//

  /// True when \p PlanHash is quarantined: feedback-driven planning must
  /// pin the static plan.
  bool ignored(std::uint64_t PlanHash) const;

  /// Records one post-swap latency regression. Returns true when this
  /// strike reached MispredictLimit consecutive mispredictions and
  /// tripped the quarantine (bumping `adapt.ignored`).
  bool recordMisprediction(std::uint64_t PlanHash);

  /// Records a post-swap plan that held its predicted advantage; resets
  /// the consecutive-strike count (no effect once quarantined).
  void recordGoodPrediction(std::uint64_t PlanHash);

  std::uint64_t minSamples() const { return MinSamples; }
  double alpha() const { return Alpha; }
  std::size_t size() const;
  void clear();

  /// Process-wide store (what the compile pipeline and serve consult).
  static FeedbackStore &global();

private:
  struct OpBaseline {
    std::uint64_t In = 0, Out = 0, Nanos = 0;
  };
  struct Entry {
    PlanFeedback FB;
    // Last-seen cumulative counters, so each refresh folds a delta.
    std::uint64_t SeenRuns = 0;
    std::uint64_t SeenRows = 0;
    std::uint64_t SeenNanos = 0;
    std::map<std::uint64_t, OpBaseline> PerOp;
    // Ignorance state.
    unsigned Strikes = 0;
    bool Ignored = false;
  };

  void foldLocked(Entry &E, const obs::ProfileSnapshot &S);
  double ewma(double Old, double New, bool First) const {
    return First ? New : (1.0 - Alpha) * Old + Alpha * New;
  }

  double Alpha;
  std::uint64_t MinSamples;
  unsigned MispredictLimit;
  mutable std::mutex Mutex;
  std::map<std::uint64_t, Entry> Plans;
};

/// Morsel sizing from feedback: when the global FeedbackStore holds ripe
/// feedback for \p PlanHash, returns \p M with InitialMorsel sized to the
/// scheduler's per-morsel latency budget from the observed per-row cost,
/// MaxMorsel clamped under heavy per-worker skew, and InlineBelow raised
/// so observed-tiny inputs run inline on one worker. Returns \p M
/// unchanged otherwise. Bumps `adapt.morsel_tuned` when it changes
/// anything.
dryad::MorselOptions tunedMorselOptions(std::uint64_t PlanHash,
                                        dryad::MorselOptions M);

} // namespace adapt
} // namespace steno

#endif // STENO_ADAPT_ADAPT_H
