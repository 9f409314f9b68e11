//===- adapt/Adapt.cpp - Feedback-driven adaptive optimization -*- C++ -*-===//

#include "adapt/Adapt.h"
#include "support/Env.h"

#include <cstdlib>

using namespace steno;
using namespace steno::adapt;

bool adapt::adaptEnvEnabled() {
  return support::parseFlag(std::getenv("STENO_ADAPT"), true);
}

void FeedbackStore::foldLocked(Entry &E, const obs::ProfileSnapshot &S) {
  // A run count moving backwards means the profile store was cleared
  // (tests) — restart the baseline rather than folding garbage.
  if (S.Runs < E.SeenRuns)
    E = Entry{};

  std::uint64_t DRuns = S.Runs - E.SeenRuns;
  if (!DRuns)
    return; // nothing new since the last refresh

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

  E.FB.Runs += DRuns;
  E.SeenRuns = S.Runs;
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
  if (It == Plans.end())
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
