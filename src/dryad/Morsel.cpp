//===- dryad/Morsel.cpp - Work-stealing morsel scheduler -------*- C++ -*-===//

#include "dryad/Morsel.h"
#include "dryad/Partition.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

using namespace steno;
using namespace steno::dryad;

namespace {

/// Ranges are packed as Begin<<32 | End; one morselFor window therefore
/// covers at most 2^31 elements (larger inputs run as consecutive
/// windows, see morselFor below).
constexpr std::size_t MaxWindow = std::size_t(1) << 31;

/// Per-morsel latency budget the adaptive sizing steers toward. 100us
/// keeps dispatch overhead under ~1% for bodies as cheap as a fused sum
/// loop while still rebalancing ~10^4 times per second.
constexpr double TargetMorselMicros = 100.0;

std::uint64_t pack(std::size_t Begin, std::size_t End) {
  return (static_cast<std::uint64_t>(Begin) << 32) |
         static_cast<std::uint64_t>(End);
}

void unpack(std::uint64_t V, std::size_t &Begin, std::size_t &End) {
  Begin = static_cast<std::size_t>(V >> 32);
  End = static_cast<std::size_t>(V & 0xffffffffu);
}

struct Instruments {
  obs::Counter &Dispatched = obs::counter("dryad.morsel.dispatched");
  obs::Counter &Steals = obs::counter("dryad.morsel.steals");
  obs::Counter &FailedSteals = obs::counter("dryad.morsel.steals_failed");
  obs::Counter &Splits = obs::counter("dryad.morsel.splits");
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

/// Shared state of one in-flight morselFor window.
struct SchedulerState {
  SchedulerState(unsigned Workers, std::size_t Count,
                 const MorselOptions &Opts, const MorselBody &Body)
      : Workers(Workers), Opts(Opts), Body(Body), Remaining(Count) {
    Deques.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Deques.emplace_back();
  }

  unsigned Workers;
  const MorselOptions &Opts;
  const MorselBody &Body;
  std::vector<WorkStealDeque> Deques;
  /// Elements not yet processed; workers exit when this reaches zero.
  std::atomic<std::size_t> Remaining;
  std::atomic<std::uint64_t> Morsels{0};
  std::atomic<std::uint64_t> Steals{0};
  std::atomic<std::uint64_t> FailedSteals{0};
  std::atomic<std::uint64_t> Splits{0};
};

/// One worker's scheduling loop: pop local (LIFO) / steal (FIFO), lazily
/// split popped ranges, process morsel-sized bites, adapt the morsel size
/// toward the latency budget.
void drive(SchedulerState &S, unsigned W) {
  Instruments &Ins = instruments();
  obs::Span WorkerSpan("dryad.morsel.worker");

  std::size_t MorselSize =
      std::clamp(S.Opts.InitialMorsel, S.Opts.MinMorsel, S.Opts.MaxMorsel);
  support::SplitMix64 Rng(0x517cc1b727220a95ULL * (W + 1));
  std::uint64_t MyMorsels = 0, MySteals = 0, MyFailed = 0, MySplits = 0;
  double BusyUs = 0, IdleUs = 0;
  unsigned FailedRounds = 0;

  // Processes one owned range: keep the deque stocked for thieves by
  // pushing far halves while the range is big, then run one morsel and
  // push the remainder back (the LIFO pop returns it, so the owner stays
  // on its contiguous range — static partitioning's locality — while the
  // pushed-back tail is stealable the whole time).
  auto processRange = [&](std::uint64_t Packed) {
    std::size_t Begin, End;
    unpack(Packed, Begin, End);
    while (Begin != End) {
      while (End - Begin > 2 * MorselSize) {
        std::size_t Mid = Begin + (End - Begin) / 2;
        if (!S.Deques[W].push(pack(Mid, End)))
          break; // deque full: keep the whole range local
        ++MySplits;
        End = Mid;
      }
      std::size_t Take = std::min(MorselSize, End - Begin);
      support::WallTimer T;
      S.Body(Begin, Begin + Take, W);
      double Us = T.seconds() * 1e6;
      BusyUs += Us;
      ++MyMorsels;
      Ins.SizeHist.observe(static_cast<double>(Take));
      S.Remaining.fetch_sub(Take, std::memory_order_acq_rel);
      Begin += Take;
      // Adapt multiplicatively toward the per-morsel latency budget,
      // damped to [0.5x, 2x] per step so one noisy measurement cannot
      // swing the size by more than one binary order of magnitude.
      if (Us > 1e-3) {
        double Ratio = std::clamp(TargetMorselMicros / Us, 0.5, 2.0);
        MorselSize = std::clamp(
            static_cast<std::size_t>(static_cast<double>(MorselSize) *
                                     Ratio),
            S.Opts.MinMorsel, S.Opts.MaxMorsel);
      }
      if (Begin != End && S.Deques[W].push(pack(Begin, End)))
        return; // tail is queued (and stealable); pop resumes it
      // Deque full: chew through the remainder inline.
    }
  };

  while (S.Remaining.load(std::memory_order_acquire) != 0) {
    std::uint64_t Packed;
    if (S.Deques[W].pop(Packed)) {
      FailedRounds = 0;
      processRange(Packed);
      continue;
    }
    // Local deque dry: steal from random victims, FIFO end (their
    // biggest, coldest range).
    bool Got = false;
    for (unsigned Tries = 0; !Got && Tries != 2 * S.Workers; ++Tries) {
      unsigned V = static_cast<unsigned>(Rng.nextBelow(S.Workers));
      if (V != W && S.Deques[V].steal(Packed))
        Got = true;
    }
    if (Got) {
      FailedRounds = 0;
      ++MySteals;
      processRange(Packed);
      continue;
    }
    ++MyFailed;
    // Nothing visible to steal but elements remain (another worker holds
    // the tail of an in-flight range — e.g. a long morsel body or a
    // deque-full remainder being chewed inline). Spinning on yield()
    // would burn a full core for the whole window, so back off
    // exponentially: yield for the first few rounds (new work usually
    // appears within microseconds), then sleep with a doubling interval
    // capped at 1ms so wake-up latency stays negligible next to the
    // per-morsel budget.
    support::WallTimer T;
    ++FailedRounds;
    if (FailedRounds <= 4) {
      std::this_thread::yield();
    } else {
      unsigned Shift = std::min(FailedRounds - 5, 5u); // 32us..1ms
      std::this_thread::sleep_for(
          std::chrono::microseconds(32u << Shift));
    }
    IdleUs += T.seconds() * 1e6;
  }

  S.Morsels.fetch_add(MyMorsels, std::memory_order_relaxed);
  S.Steals.fetch_add(MySteals, std::memory_order_relaxed);
  S.FailedSteals.fetch_add(MyFailed, std::memory_order_relaxed);
  S.Splits.fetch_add(MySplits, std::memory_order_relaxed);
  Ins.Dispatched.inc(MyMorsels);
  Ins.Steals.inc(MySteals);
  Ins.FailedSteals.inc(MyFailed);
  Ins.Splits.inc(MySplits);
  Ins.BusyMicros.inc(static_cast<std::uint64_t>(BusyUs));
  Ins.IdleMicros.inc(static_cast<std::uint64_t>(IdleUs));
  WorkerSpan.arg("worker", W);
  WorkerSpan.arg("morsels", static_cast<std::int64_t>(MyMorsels));
  WorkerSpan.arg("steals", static_cast<std::int64_t>(MySteals));
  WorkerSpan.arg("busy_us", static_cast<std::int64_t>(BusyUs));
}

/// One window (Count <= MaxWindow) of the scheduler.
MorselStats morselForWindow(ThreadPool &Pool, std::size_t Count,
                            const MorselOptions &Opts,
                            const MorselBody &Body) {
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

  obs::Span ForSpan("dryad.morsel.for");
  SchedulerState S(Workers, Count, Opts, Body);

  // Seed every deque with one contiguous shard — the uniform case then
  // degenerates to static partitioning (same locality), and stealing
  // only kicks in under skew. Seeding happens before the driver tasks
  // are submitted, so the pool's queue mutex orders these pushes before
  // any pop/steal.
  for (unsigned W = 0; W != Workers; ++W) {
    PartRange R = partitionRange(Count, Workers, W);
    if (R.Len)
      S.Deques[W].push(pack(R.Begin, R.Begin + R.Len));
  }

  for (unsigned W = 0; W != Workers; ++W) {
    bool Accepted = Pool.submit([&S, W] { drive(S, W); });
    if (!Accepted) {
      // Pool shutting down (callers normally never get here): drain the
      // remaining work on this thread so the contract — every element
      // processed exactly once — still holds.
      drive(S, W);
    }
  }
  Pool.wait();

  Stats.Morsels = S.Morsels.load(std::memory_order_relaxed);
  Stats.Steals = S.Steals.load(std::memory_order_relaxed);
  Stats.FailedSteals = S.FailedSteals.load(std::memory_order_relaxed);
  Stats.Splits = S.Splits.load(std::memory_order_relaxed);
  ForSpan.arg("count", static_cast<std::int64_t>(Count));
  ForSpan.arg("workers", Workers);
  ForSpan.arg("morsels", static_cast<std::int64_t>(Stats.Morsels));
  ForSpan.arg("steals", static_cast<std::int64_t>(Stats.Steals));
  return Stats;
}

} // namespace

MorselStats dryad::morselFor(ThreadPool &Pool, std::size_t Count,
                             const MorselOptions &Opts,
                             const MorselBody &Body) {
  assert(Opts.MinMorsel > 0 && Opts.MinMorsel <= Opts.MaxMorsel &&
         "bad morsel bounds");
  if (Count <= MaxWindow)
    return morselForWindow(Pool, Count, Opts, Body);
  // Ranges pack into 32-bit halves; astronomically large inputs run as
  // consecutive windows (each internally stolen-from, windows in order).
  MorselStats Total;
  for (std::size_t WinBase = 0; WinBase < Count; WinBase += MaxWindow) {
    std::size_t Len = std::min(MaxWindow, Count - WinBase);
    MorselStats S = morselForWindow(
        Pool, Len, Opts,
        [&Body, WinBase](std::size_t B, std::size_t E, unsigned W) {
          Body(WinBase + B, WinBase + E, W);
        });
    Total.Morsels += S.Morsels;
    Total.Steals += S.Steals;
    Total.FailedSteals += S.FailedSteals;
    Total.Splits += S.Splits;
    Total.RanInline = Total.RanInline || S.RanInline;
  }
  return Total;
}
