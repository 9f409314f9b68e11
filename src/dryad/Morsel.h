//===- dryad/Morsel.h - Work-stealing morsel scheduler ---------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Morsel-driven parallel execution for the §6 PLINQ/Dryad paths.
///
/// The paper (and our plinq::partitionSpan) hands each worker ONE
/// contiguous partition; a skewed predicate or nested sub-query then makes
/// the whole fan-out wait on the slowest chunk at the join barrier. This
/// scheduler replaces static chunking with dynamic dispatch:
///
///  - the index space [0, Count) is pre-sharded contiguously, one shard
///    per worker, so the common (uniform) case keeps the locality of
///    static partitioning;
///  - each worker owns a Chase–Lev-style deque of index ranges. The owner
///    pushes/pops at the bottom (LIFO, cache-warm end); thieves steal from
///    the top (FIFO, largest/oldest ranges first);
///  - a worker popping a range larger than its current morsel size splits
///    it lazily — the far half goes back on the deque (stealable), the
///    near half is processed in morsel-sized bites;
///  - morsel size adapts per worker toward a fixed per-morsel latency
///    budget (TargetMorselMicros, 100us), so cheap fused loop bodies get
///    big morsels (low dispatch overhead) and expensive per-element work
///    gets small ones (fine-grained balancing);
///  - an idle worker steals from random victims until the global
///    remaining-element count reaches zero, backing off exponentially
///    (yield, then capped sleeps) when repeated steal rounds find
///    nothing, so a long in-flight morsel elsewhere does not leave the
///    rest of the pool spinning at 100%.
///
/// Because every morsel is a contiguous [Begin, End) range, order-
/// sensitive consumers (AsOrdered toVector, Concat/MergeSorted combines)
/// reassemble deterministically by tagging outputs with Begin — results
/// are identical to sequential execution no matter how stealing
/// interleaved.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_MORSEL_H
#define STENO_DRYAD_MORSEL_H

#include "dryad/ThreadPool.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace steno {
namespace dryad {

/// A single-owner, multi-thief deque of uint64 payloads (packed index
/// ranges). Chase–Lev shape: the owner pushes and pops at the bottom
/// (LIFO), thieves CAS the top (FIFO). Fixed capacity; push reports
/// overflow instead of growing so callers can degrade gracefully.
///
/// Implementation note: the buffer cells are themselves atomics and the
/// bottom/top indices use seq_cst on the racy owner-pop vs. steal edge
/// (instead of the classic standalone fences), which keeps the algorithm
/// correct under the C++ memory model *and* exactly analyzable by
/// ThreadSanitizer — the scheduler stress test runs TSan-clean in CI.
class WorkStealDeque {
public:
  /// \p Capacity must be a power of two (Mask = Capacity - 1 relies on
  /// it; anything else silently corrupts cell indexing).
  explicit WorkStealDeque(std::size_t Capacity = 256)
      : Mask(Capacity - 1), Cells(Capacity) {
    assert(Capacity != 0 && (Capacity & (Capacity - 1)) == 0 &&
           "deque capacity must be a power of two");
  }

  WorkStealDeque(WorkStealDeque &&Other) noexcept
      : Mask(Other.Mask), Cells(Other.Cells.size()),
        Top(Other.Top.load(std::memory_order_relaxed)),
        Bottom(Other.Bottom.load(std::memory_order_relaxed)) {
    for (std::size_t I = 0; I != Cells.size(); ++I)
      Cells[I].store(Other.Cells[I].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  WorkStealDeque(const WorkStealDeque &) = delete;
  WorkStealDeque &operator=(const WorkStealDeque &) = delete;

  /// Owner only. False when full (caller processes the range inline).
  bool push(std::uint64_t V) {
    std::int64_t B = Bottom.load(std::memory_order_relaxed);
    std::int64_t T = Top.load(std::memory_order_acquire);
    if (B - T >= static_cast<std::int64_t>(Cells.size()))
      return false;
    Cells[static_cast<std::size_t>(B) & Mask].store(
        V, std::memory_order_relaxed);
    // Release: a thief that acquires this Bottom sees the cell write.
    Bottom.store(B + 1, std::memory_order_release);
    return true;
  }

  /// Owner only; LIFO. False when empty (or lost the last element to a
  /// concurrent thief).
  bool pop(std::uint64_t &V) {
    std::int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    // seq_cst store/load pair: the Bottom decrement must be globally
    // ordered against the thief's Top bump (the classic fence, folded
    // into the accesses).
    Bottom.store(B, std::memory_order_seq_cst);
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    if (T > B) { // empty
      Bottom.store(B + 1, std::memory_order_relaxed);
      return false;
    }
    V = Cells[static_cast<std::size_t>(B) & Mask].load(
        std::memory_order_relaxed);
    if (T == B) {
      // Last element: race the thieves for it via Top.
      if (!Top.compare_exchange_strong(T, T + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        Bottom.store(B + 1, std::memory_order_relaxed);
        return false; // a thief got it
      }
      Bottom.store(B + 1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Any thread; FIFO. False when empty or when the CAS lost a race
  /// (caller should try another victim).
  bool steal(std::uint64_t &V) {
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    std::int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (T >= B)
      return false;
    V = Cells[static_cast<std::size_t>(T) & Mask].load(
        std::memory_order_relaxed);
    return Top.compare_exchange_strong(T, T + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed);
  }

private:
  std::size_t Mask;
  std::vector<std::atomic<std::uint64_t>> Cells;
  alignas(64) std::atomic<std::int64_t> Top{0};
  alignas(64) std::atomic<std::int64_t> Bottom{0};
};

/// Tuning knobs for one morselFor invocation.
struct MorselOptions {
  /// Morsel size bounds, in elements.
  std::size_t MinMorsel = 256;
  std::size_t MaxMorsel = std::size_t(1) << 17; // 128k elements
  /// First morsel of every worker (then adaptive).
  std::size_t InitialMorsel = 4096;
  /// Inputs at most this size run inline on the calling thread: a
  /// fan-out that cannot possibly amortize its submission cost is not
  /// performed at all (see plinq.partitionSpan's old empty-partition
  /// overhead).
  std::size_t InlineBelow = 2048;
};

/// What one morselFor invocation did (also mirrored into obs metrics).
struct MorselStats {
  std::uint64_t Morsels = 0;      ///< Body invocations.
  std::uint64_t Steals = 0;       ///< Ranges taken from another worker.
  std::uint64_t FailedSteals = 0; ///< Empty/contended steal attempts.
  std::uint64_t Splits = 0;       ///< Lazy range splits pushed back.
  bool RanInline = false;         ///< Took the small-input inline path.
};

/// The morsel body: process elements [Begin, End). \p Worker identifies
/// the executing worker (dense in [0, workerCount)), for per-worker
/// accumulators. Bodies must not throw and must tolerate running
/// concurrently with other ranges.
using MorselBody =
    std::function<void(std::size_t Begin, std::size_t End, unsigned Worker)>;

/// Runs \p Body over every element of [0, Count) exactly once, dynamically
/// load-balanced across \p Pool's workers with work stealing. Blocks until
/// all elements are processed. Ranges handed to \p Body are contiguous and
/// disjoint; their union is [0, Count).
MorselStats morselFor(ThreadPool &Pool, std::size_t Count,
                      const MorselOptions &Opts, const MorselBody &Body);

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_MORSEL_H
