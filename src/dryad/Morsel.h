//===- dryad/Morsel.h - Morsel-driven parallel dispatch --------*- C++ -*-===//
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
/// scheduler replaces static chunking with dynamic dispatch from one
/// shared cursor, as in HyPer (Leis et al., SIGMOD 2014):
///
///  - every worker claims the next contiguous range [Begin, End) of
///    [0, Count) with one atomic add on a shared cursor, runs it, and
///    claims again until a claim starts at or past Count. A worker that
///    finishes early simply claims more, so a heavy region is shared by
///    whoever is free;
///  - the first claim of every worker is at most an even share of the
///    input (min(4096, ceil(Count / workers))), so a small but costly
///    input still reaches every worker;
///  - morsel size then adapts per worker toward a fixed per-morsel
///    latency budget (TargetMorselMicros, 100us), so cheap fused loop
///    bodies get big morsels (low dispatch overhead) and expensive
///    per-element work gets small ones (fine-grained balancing).
///
/// Because every morsel is a contiguous [Begin, End) range, order-
/// sensitive consumers (AsOrdered toVector, Concat/MergeSorted combines)
/// reassemble deterministically by tagging outputs with Begin — results
/// are identical to sequential execution however the claims interleaved.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_MORSEL_H
#define STENO_DRYAD_MORSEL_H

#include "dryad/ThreadPool.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace steno {
namespace dryad {

/// Tuning knobs for one morselFor invocation.
struct MorselOptions {
  /// Morsel size bounds, in elements.
  std::size_t MinMorsel = 256;
  std::size_t MaxMorsel = std::size_t(1) << 17; // 128k elements
  /// Inputs at most this size run inline on the calling thread: a
  /// fan-out that cannot amortize its submission cost is not performed.
  std::size_t InlineBelow = 2048;
};

/// What one morselFor invocation did (also mirrored into obs metrics).
struct MorselStats {
  std::uint64_t Morsels = 0; ///< Body invocations.
  bool RanInline = false;    ///< Took the small-input inline path.
};

/// The morsel body: process elements [Begin, End). \p Worker identifies
/// the executing worker (dense in [0, workerCount)), for per-worker
/// accumulators. Bodies must not throw and must tolerate running
/// concurrently with other ranges.
using MorselBody =
    std::function<void(std::size_t Begin, std::size_t End, unsigned Worker)>;

/// Runs \p Body over every element of [0, Count) exactly once, dynamically
/// load-balanced across \p Pool's workers by a shared claim cursor. Blocks
/// until all elements are processed. Ranges handed to \p Body are
/// contiguous and disjoint; their union is [0, Count). \p Count must leave
/// room for the cursor's overshoot: Count + workers * MaxMorsel must fit in
/// a size_t.
MorselStats morselFor(ThreadPool &Pool, std::size_t Count,
                      const MorselOptions &Opts, const MorselBody &Body);

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_MORSEL_H
