//===- adapt/Adapt.cpp - Feedback-driven adaptive optimization -*- C++ -*-===//

#include "adapt/Adapt.h"
#include "obs/Metrics.h"
#include "support/Env.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

using namespace steno;
using namespace steno::adapt;

bool adapt::adaptEnvEnabled() {
  return support::parseFlag(std::getenv("STENO_ADAPT"), true);
}

std::uint64_t adapt::adaptMinSamplesEnv() {
  return static_cast<std::uint64_t>(
      support::parseCount(std::getenv("STENO_ADAPT_MIN_SAMPLES"), 3, 1,
                          std::numeric_limits<std::int64_t>::max()));
}

namespace {

/// Source cardinality of one run set: the widest flow through the first
/// operator (Src ops count emissions as RowsOut; operators fed directly
/// by a source count them as RowsIn).
std::uint64_t sourceRows(const obs::ProfileSnapshot &S) {
  if (S.Ops.empty())
    return 0;
  return std::max(S.Ops.front().RowsIn, S.Ops.front().RowsOut);
}

} // namespace

void FeedbackStore::foldLocked(Entry &E, const obs::ProfileSnapshot &S) {
  // A cumulative counter moving backwards means the profile store was
  // cleared (tests) — restart the baseline rather than folding garbage.
  std::uint64_t Rows = sourceRows(S);
  std::uint64_t Nanos = S.totalNanos();
  if (S.Runs < E.SeenRuns || Rows < E.SeenRows || Nanos < E.SeenNanos)
    E = Entry{};

  std::uint64_t DRuns = S.Runs - E.SeenRuns;
  if (!DRuns)
    return; // nothing new since the last refresh

  bool First = E.FB.Runs == 0;
  std::uint64_t DRows = Rows - E.SeenRows;
  std::uint64_t DNanos = Nanos - E.SeenNanos;
  E.FB.RowsPerRun = ewma(E.FB.RowsPerRun,
                         static_cast<double>(DRows) /
                             static_cast<double>(DRuns),
                         First);
  if (DRows)
    E.FB.NanosPerRow = ewma(E.FB.NanosPerRow,
                            static_cast<double>(DNanos) /
                                static_cast<double>(DRows),
                            First || E.FB.NanosPerRow == 0.0);

  for (const obs::OpProfile &O : S.Ops) {
    if (O.Label != "Where" || !O.OpId)
      continue;
    OpBaseline &B = E.PerOp[O.OpId];
    if (O.RowsIn < B.In || O.RowsOut < B.Out || O.Nanos < B.Nanos)
      B = OpBaseline{}; // shape changed under a store reset
    std::uint64_t DIn = O.RowsIn - B.In;
    std::uint64_t DOut = O.RowsOut - B.Out;
    std::uint64_t DNs = O.Nanos - B.Nanos;
    if (DIn) {
      PredFeedback &P = E.FB.Preds[O.OpId];
      bool PFirst = P.Samples == 0;
      P.Sel = ewma(P.Sel,
                   static_cast<double>(DOut) / static_cast<double>(DIn),
                   PFirst);
      if (O.Timed && DNs)
        P.NanosPerRow = ewma(P.NanosPerRow,
                             static_cast<double>(DNs) /
                                 static_cast<double>(DIn),
                             PFirst || P.NanosPerRow == 0.0);
      P.Samples += DRuns;
    }
    B.In = O.RowsIn;
    B.Out = O.RowsOut;
    B.Nanos = O.Nanos;
  }

  // Skew: the dominant worker's merge share over the mean share. Uses the
  // cumulative distribution (skew is a property of the whole history, and
  // per-refresh deltas would be too sparse to be meaningful).
  if (!S.WorkerMerges.empty()) {
    std::uint64_t Max = 0, Total = 0;
    for (const auto &[W, N] : S.WorkerMerges) {
      (void)W;
      Max = std::max(Max, N);
      Total += N;
    }
    double Mean = static_cast<double>(Total) /
                  static_cast<double>(S.WorkerMerges.size());
    E.FB.WorkerImbalance = Mean > 0 ? static_cast<double>(Max) / Mean : 1.0;
    E.FB.WorkersSeen = static_cast<unsigned>(S.WorkerMerges.size());
  }

  E.FB.Runs += DRuns;
  E.SeenRuns = S.Runs;
  E.SeenRows = Rows;
  E.SeenNanos = Nanos;
}

std::optional<PlanFeedback>
FeedbackStore::refresh(std::uint64_t PlanHash,
                       const obs::ProfileStore &Store) {
  auto Snap = Store.snapshotResolved(PlanHash);
  if (!Snap || !Snap->Runs)
    return lookup(PlanHash);
  return observe(*Snap);
}

std::optional<PlanFeedback>
FeedbackStore::observe(const obs::ProfileSnapshot &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entry &E = Plans[S.PlanHash];
  foldLocked(E, S);
  if (!E.FB.Runs)
    return std::nullopt;
  return E.FB;
}

std::optional<PlanFeedback>
FeedbackStore::lookup(std::uint64_t PlanHash) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Plans.find(PlanHash);
  if (It == Plans.end() || !It->second.FB.Runs)
    return std::nullopt;
  return It->second.FB;
}

std::map<std::uint64_t, quil::ObservedPredStats>
FeedbackStore::observedStats(std::uint64_t PlanHash) const {
  std::map<std::uint64_t, quil::ObservedPredStats> Out;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Plans.find(PlanHash);
  if (It == Plans.end() || It->second.Ignored)
    return Out;
  for (const auto &[OpId, P] : It->second.FB.Preds) {
    if (P.Samples < MinSamples)
      continue;
    quil::ObservedPredStats S;
    S.Sel = P.Sel;
    // Untimed predicates fall back to unit cost: the observed
    // selectivity alone still beats the static estimate.
    S.CostNanos = P.NanosPerRow > 0 ? P.NanosPerRow : 1.0;
    Out[OpId] = S;
  }
  return Out;
}

bool FeedbackStore::ignored(std::uint64_t PlanHash) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Plans.find(PlanHash);
  return It != Plans.end() && It->second.Ignored;
}

bool FeedbackStore::recordMisprediction(std::uint64_t PlanHash) {
  static obs::Counter &Mispredicts = obs::counter("adapt.mispredictions");
  static obs::Counter &Ignored = obs::counter("adapt.ignored");
  Mispredicts.inc();
  std::lock_guard<std::mutex> Lock(Mutex);
  Entry &E = Plans[PlanHash];
  if (E.Ignored)
    return false;
  if (++E.Strikes < MispredictLimit)
    return false;
  E.Ignored = true;
  Ignored.inc();
  return true;
}

void FeedbackStore::recordGoodPrediction(std::uint64_t PlanHash) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Plans.find(PlanHash);
  if (It != Plans.end() && !It->second.Ignored)
    It->second.Strikes = 0;
}

std::size_t FeedbackStore::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Plans.size();
}

void FeedbackStore::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Plans.clear();
}

FeedbackStore &FeedbackStore::global() {
  // Leaked intentionally, like the ProfileStore it feeds from: adaptive
  // compiles may race process teardown.
  static FeedbackStore *Store = new FeedbackStore();
  return *Store;
}

//===--------------------------------------------------------------------===//
// Morsel tuning
//===--------------------------------------------------------------------===//

dryad::MorselOptions adapt::tunedMorselOptions(std::uint64_t PlanHash,
                                               dryad::MorselOptions M) {
  FeedbackStore &FS = FeedbackStore::global();
  auto FB = FS.refresh(PlanHash, obs::ProfileStore::global());
  if (!FB || FB->Runs < FS.minSamples())
    return M;

  dryad::MorselOptions Out = M;
  // Size a morsel to the scheduler's latency budget: budget-nanos over
  // observed per-row cost, clamped to the configured bounds.
  if (FB->NanosPerRow > 0) {
    double Target = M.TargetMorselMicros * 1000.0 / FB->NanosPerRow;
    std::size_t Sized =
        Target < 1.0 ? std::size_t{1}
                     : static_cast<std::size_t>(std::min(
                           Target, static_cast<double>(M.MaxMorsel)));
    Out.InitialMorsel = std::clamp(Sized, M.MinMorsel, M.MaxMorsel);
  }
  // Heavy skew: cap the largest grab so stragglers stay stealable.
  if (FB->WorkerImbalance > 2.0 && FB->WorkersSeen > 1)
    Out.MaxMorsel = std::max(M.MinMorsel, Out.InitialMorsel);
  // Observed-tiny inputs: the fan-out never pays for itself — route the
  // whole input through the inline single-worker path.
  if (FB->RowsPerRun > 0 &&
      FB->RowsPerRun <= static_cast<double>(2 * M.MinMorsel))
    Out.InlineBelow = std::max(
        Out.InlineBelow, static_cast<std::size_t>(FB->RowsPerRun) + 1);

  if (Out.InitialMorsel != M.InitialMorsel || Out.MaxMorsel != M.MaxMorsel ||
      Out.InlineBelow != M.InlineBelow) {
    static obs::Counter &Tuned = obs::counter("adapt.morsel_tuned");
    Tuned.inc();
  }
  return Out;
}
