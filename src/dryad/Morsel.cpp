//===- dryad/Morsel.cpp - Morsel-driven parallel dispatch ------*- C++ -*-===//

#include "dryad/Morsel.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <vector>

using namespace steno;
using namespace steno::dryad;

namespace {

/// Upper bound of every worker's first claim; the even share of a
/// smaller input is used instead (see morselFor).
constexpr std::size_t MaxFirstMorsel = 4096;

/// Per-morsel latency budget the adaptive sizing steers toward. 100us
/// keeps dispatch overhead under ~1% for bodies as cheap as a fused sum
/// loop while still rebalancing ~10^4 times per second.
constexpr double TargetMorselMicros = 100.0;

struct Instruments {
  obs::Counter &Dispatched = obs::counter("dryad.morsel.dispatched");
  obs::Counter &InlineRuns = obs::counter("dryad.morsel.inline_runs");
  obs::Counter &BusyMicros = obs::counter("dryad.morsel.busy_micros");
  obs::Counter &IdleMicros = obs::counter("dryad.morsel.idle_micros");
  obs::Histogram &SizeHist = obs::histogram(
      "dryad.morsel.size_elems",
      {256, 1024, 4096, 16384, 65536, 262144, 1048576});
};

Instruments &instruments() {
  static Instruments I;
  return I;
}

/// What one worker reports once its claim fails.
struct WorkerEnd {
  std::uint64_t Morsels = 0;
  double DoneAt = 0; ///< Seconds on the cursor's Clock.
};

/// Shared state of one in-flight morselFor call.
struct Cursor {
  std::size_t Count;
  std::size_t FirstMorsel;
  const MorselOptions &Opts;
  const MorselBody &Body;
  std::vector<WorkerEnd> Ends; ///< One per worker, read after the join.
  support::WallTimer Clock{};
  /// Start of the next unclaimed range; runs past Count at the end.
  std::atomic<std::size_t> Next{0};
};

/// One worker's loop: claim a range, run it, adapt the morsel size toward
/// the latency budget, until a claim starts at or past Count.
void drive(Cursor &C, unsigned W) {
  Instruments &Ins = instruments();
  obs::Span WorkerSpan("dryad.morsel.worker");

  std::size_t MorselSize = C.FirstMorsel;
  std::uint64_t MyMorsels = 0;
  double BusyUs = 0;
  for (;;) {
    // The adds' total order makes the claims disjoint; Pool.wait()
    // publishes the bodies' writes to the caller.
    std::size_t Begin = C.Next.fetch_add(MorselSize);
    if (Begin >= C.Count)
      break;
    std::size_t Take = std::min(MorselSize, C.Count - Begin);
    support::WallTimer T;
    C.Body(Begin, Begin + Take, W);
    double Us = T.seconds() * 1e6;
    BusyUs += Us;
    ++MyMorsels;
    Ins.SizeHist.observe(static_cast<double>(Take));
    // Adapt multiplicatively toward the per-morsel latency budget,
    // damped to [0.5x, 2x] per step so one noisy measurement cannot
    // swing the size by more than one binary order of magnitude.
    if (Us > 1e-3) {
      double Ratio = std::clamp(TargetMorselMicros / Us, 0.5, 2.0);
      MorselSize = std::clamp(
          static_cast<std::size_t>(static_cast<double>(MorselSize) * Ratio),
          C.Opts.MinMorsel, C.Opts.MaxMorsel);
    }
  }
  C.Ends[W] = WorkerEnd{MyMorsels, C.Clock.seconds()};

  Ins.Dispatched.inc(MyMorsels);
  Ins.BusyMicros.inc(static_cast<std::uint64_t>(BusyUs));
  WorkerSpan.arg("worker", W);
  WorkerSpan.arg("morsels", static_cast<std::int64_t>(MyMorsels));
  WorkerSpan.arg("busy_us", static_cast<std::int64_t>(BusyUs));
}

} // namespace

MorselStats dryad::morselFor(ThreadPool &Pool, std::size_t Count,
                             const MorselOptions &Opts,
                             const MorselBody &Body) {
  assert(Opts.MinMorsel > 0 && Opts.MinMorsel <= Opts.MaxMorsel &&
         "bad morsel bounds");
  MorselStats Stats;
  if (Count == 0)
    return Stats; // no elements: no fan-out, no Body calls

  Instruments &Ins = instruments();
  unsigned Workers = Pool.workerCount();

  // Inputs too small to amortize task submission (or a one-worker pool,
  // where there is nobody to balance against) run inline on the caller.
  if (Workers == 1 || Count <= Opts.InlineBelow) {
    Ins.InlineRuns.inc();
    Ins.SizeHist.observe(static_cast<double>(Count));
    Ins.Dispatched.inc();
    support::WallTimer T;
    Body(0, Count, 0);
    Ins.BusyMicros.inc(static_cast<std::uint64_t>(T.seconds() * 1e6));
    Stats.Morsels = 1;
    Stats.RanInline = true;
    return Stats;
  }

  // After the cursor passes Count, each worker makes at most one more
  // claim, so it stops below Count + Workers * MaxMorsel.
  assert(Count <= std::numeric_limits<std::size_t>::max() -
                      std::size_t(Workers) * Opts.MaxMorsel &&
         "claim cursor would wrap");
  obs::Span ForSpan("dryad.morsel.for");
  std::size_t EvenShare = Count / Workers + (Count % Workers != 0);
  Cursor C{Count,
           std::clamp(std::min(MaxFirstMorsel, EvenShare), Opts.MinMorsel,
                      Opts.MaxMorsel),
           Opts, Body, std::vector<WorkerEnd>(Workers)};
  for (unsigned W = 0; W != Workers; ++W) {
    bool Accepted = Pool.submit([&C, W] { drive(C, W); });
    if (!Accepted) {
      // Pool shutting down (callers normally never get here): claim the
      // remaining work on this thread so the contract — every element
      // processed exactly once — still holds.
      drive(C, W);
    }
  }
  Pool.wait();

  // Idle time: each worker's wait from its failed claim to the join.
  double End = C.Clock.seconds();
  double IdleUs = 0;
  for (const WorkerEnd &E : C.Ends) {
    Stats.Morsels += E.Morsels;
    IdleUs += (End - E.DoneAt) * 1e6;
  }
  Ins.IdleMicros.inc(static_cast<std::uint64_t>(IdleUs));

  ForSpan.arg("count", static_cast<std::int64_t>(Count));
  ForSpan.arg("workers", Workers);
  ForSpan.arg("morsels", static_cast<std::int64_t>(Stats.Morsels));
  return Stats;
}
