//===- plinq/Plinq.h - Parallel LINQ over iterator chains ------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PLINQ analogue of paper §6: "PLINQ provides the same operators as
/// LINQ, but operates on a ParallelEnumerable collection, which uses a
/// Partitioner object to assign elements to each thread. PLINQ uses
/// iterators to compose query operators, and therefore suffers from
/// similar virtual call overheads to sequential LINQ."
///
/// ParSeq<T> keeps PLINQ's per-element cost model — each worker evaluates
/// a *lazy iterator chain* (the linq baseline) — but its Partitioner is no
/// longer static: work is dispatched as dynamically sized contiguous
/// morsels through dryad::morselFor, so a skewed predicate or nested
/// sub-query rebalances via work stealing instead of making the whole
/// fan-out wait on the slowest static chunk. Aggregates fold per-worker
/// partials (combined once at the join); toVector reassembles chunks by
/// source offset, preserving AsOrdered semantics no matter how stealing
/// interleaved.
///
/// Combiners are trusted associative and commutative, matching .NET
/// PLINQ's Aggregate contract (a stolen morsel folds into the thief's
/// accumulator, so worker partials cover non-adjacent ranges). The
/// certificate-checked path — where the analyzer proves this instead of
/// trusting it — is dryad::DistributedQuery::runParallel (dryad/Dist.h).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_PLINQ_PLINQ_H
#define STENO_PLINQ_PLINQ_H

#include "dryad/Morsel.h"
#include "dryad/ThreadPool.h"
#include "linq/Seq.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace steno {
namespace plinq {

/// The static Partitioner of paper §6: chunks [Data, Data+Count) into
/// near-equal contiguous ranges. Kept as the baseline the morsel
/// scheduler is benchmarked against (bench/par_skew) and for callers
/// that need explicit partitions. \p Parts is clamped to [1, max(1,
/// Count)]: an empty or tiny input no longer produces degenerate empty
/// partitions that pay fan-out overhead for no work.
template <typename T>
std::vector<linq::Seq<T>> partitionSpan(const T *Data, std::size_t Count,
                                        unsigned Parts) {
  if (Parts < 1)
    Parts = 1;
  if (Count != 0 && static_cast<std::size_t>(Parts) > Count)
    Parts = static_cast<unsigned>(Count);
  if (Count == 0)
    Parts = 1; // one empty partition, so aggregates still have a seed
  static obs::Counter &Partitions =
      obs::counter("plinq.partitions.created");
  Partitions.inc(Parts);
  std::vector<linq::Seq<T>> Out;
  Out.reserve(Parts);
  std::size_t Base = Count / Parts;
  std::size_t Extra = Count % Parts;
  std::size_t Pos = 0;
  for (unsigned P = 0; P != Parts; ++P) {
    std::size_t Len = Base + (P < Extra ? 1 : 0);
    Out.push_back(linq::fromSpan(Data + Pos, Len));
    Pos += Len;
  }
  return Out;
}

/// ParallelEnumerable<T>: a source span plus the composed operator chain,
/// evaluated lazily per morsel. Composable operators extend the chain;
/// aggregates dispatch morsels onto the pool and merge per-worker
/// partials.
template <typename T> class ParSeq {
public:
  /// Builds the composed iterator chain over source elements
  /// [Begin, End). Must be safe to call concurrently (the linq chain
  /// factories are: they only wrap immutable shared state).
  using ChainBuilder =
      std::function<linq::Seq<T>(std::size_t Begin, std::size_t End)>;

  ParSeq(dryad::ThreadPool &Pool, std::size_t Count, ChainBuilder Chain,
         dryad::MorselOptions Opts = dryad::MorselOptions())
      : Pool(&Pool), Count(Count), Chain(std::move(Chain)), Opts(Opts) {}

  /// AsParallel() over a borrowed buffer.
  static ParSeq fromSpan(dryad::ThreadPool &Pool, const T *Data,
                         std::size_t Count) {
    return ParSeq(Pool, Count, [Data](std::size_t B, std::size_t E) {
      return linq::fromSpan(Data + B, E - B);
    });
  }

  /// Source element count (elements entering the chain, not leaving it).
  std::size_t sourceCount() const { return Count; }

  /// A copy with different scheduler tuning (tests force tiny morsels to
  /// provoke stealing; benches widen the budget).
  ParSeq withMorselOptions(dryad::MorselOptions NewOpts) const {
    return ParSeq(*Pool, Count, Chain, NewOpts);
  }

  //===--------------------------------------------------------------===//
  // Composable operators (homomorphic, so they lift morsel-wise)
  //===--------------------------------------------------------------===//

  template <typename F> auto select(F Fn) const {
    using U = std::invoke_result_t<F, T>;
    return ParSeq<U>(
        *Pool, Count,
        [C = Chain, Fn](std::size_t B, std::size_t E) {
          return C(B, E).select(Fn);
        },
        Opts);
  }

  template <typename F> ParSeq<T> where(F Pred) const {
    return ParSeq<T>(
        *Pool, Count,
        [C = Chain, Pred](std::size_t B, std::size_t E) {
          return C(B, E).where(Pred);
        },
        Opts);
  }

  template <typename F> auto selectMany(F Fn) const {
    using U = typename std::invoke_result_t<F, T>::value_type;
    return ParSeq<U>(
        *Pool, Count,
        [C = Chain, Fn](std::size_t B, std::size_t E) {
          return C(B, E).selectMany(Fn);
        },
        Opts);
  }

  //===--------------------------------------------------------------===//
  // Aggregates (morsel partials + one combine at the join, Figure 12)
  //===--------------------------------------------------------------===//

  T sum() const {
    FanoutObs Obs("plinq.sum", *Pool);
    std::vector<T> Partials(Pool->workerCount(), T{});
    dryad::morselFor(*Pool, Count, Opts,
                     [this, &Partials](std::size_t B, std::size_t E,
                                       unsigned W) {
                       Partials[W] = Partials[W] + Chain(B, E).sum();
                     });
    T Total{};
    for (T &V : Partials)
      Total = Total + V;
    return Total;
  }

  std::int64_t count() const {
    FanoutObs Obs("plinq.count", *Pool);
    std::vector<std::int64_t> Partials(Pool->workerCount(), 0);
    dryad::morselFor(*Pool, Count, Opts,
                     [this, &Partials](std::size_t B, std::size_t E,
                                       unsigned W) {
                       Partials[W] += Chain(B, E).count();
                     });
    std::int64_t Total = 0;
    for (std::int64_t V : Partials)
      Total += V;
    return Total;
  }

  /// Aggregate with an explicit combiner (the distributed-aggregation
  /// interface of the paper's [33]). \p Combine must be associative and
  /// commutative, and \p Seed its identity — .NET PLINQ's contract —
  /// because stealing folds non-adjacent morsels into one worker
  /// accumulator.
  template <typename U, typename FStep, typename FCombine>
  U aggregate(U Seed, FStep Step, FCombine Combine) const {
    FanoutObs Obs("plinq.aggregate", *Pool);
    std::vector<U> Partials(Pool->workerCount(), Seed);
    dryad::morselFor(*Pool, Count, Opts,
                     [this, &Partials, &Step](std::size_t B, std::size_t E,
                                              unsigned W) {
                       Partials[W] =
                           Chain(B, E).aggregate(std::move(Partials[W]),
                                                 Step);
                     });
    U Total = std::move(Seed);
    for (U &V : Partials)
      Total = Combine(std::move(Total), std::move(V));
    return Total;
  }

  /// Materializes in source order (PLINQ's AsOrdered semantics): every
  /// morsel's output chunk is tagged with its source offset and the
  /// chunks are reassembled ascending, so the result is identical to the
  /// sequential chain regardless of stealing.
  std::vector<T> toVector() const {
    FanoutObs Obs("plinq.toVector", *Pool);
    using Tagged = std::pair<std::size_t, std::vector<T>>;
    std::vector<std::vector<Tagged>> PerWorker(Pool->workerCount());
    dryad::morselFor(*Pool, Count, Opts,
                     [this, &PerWorker](std::size_t B, std::size_t E,
                                        unsigned W) {
                       PerWorker[W].emplace_back(B,
                                                 Chain(B, E).toVector());
                     });
    std::vector<Tagged> All;
    for (std::vector<Tagged> &Chunks : PerWorker)
      for (Tagged &C : Chunks)
        All.push_back(std::move(C));
    std::sort(All.begin(), All.end(),
              [](const Tagged &A, const Tagged &B) {
                return A.first < B.first;
              });
    std::vector<T> Out;
    for (Tagged &C : All)
      for (T &V : C.second)
        Out.push_back(std::move(V));
    return Out;
  }

private:
  /// One span + fan-out counter per parallel aggregate evaluation.
  struct FanoutObs {
    obs::Span Span;
    FanoutObs(const char *Name, const dryad::ThreadPool &Pool)
        : Span(Name) {
      static obs::Counter &Fanouts = obs::counter("plinq.fanout.count");
      Fanouts.inc();
      Span.arg("workers", Pool.workerCount());
    }
  };

  dryad::ThreadPool *Pool;
  std::size_t Count;
  ChainBuilder Chain;
  dryad::MorselOptions Opts;
};

/// Convenience: xs.AsParallel() over a vector.
template <typename T>
ParSeq<T> asParallel(dryad::ThreadPool &Pool, const std::vector<T> &Data) {
  return ParSeq<T>::fromSpan(Pool, Data.data(), Data.size());
}

} // namespace plinq
} // namespace steno

#endif // STENO_PLINQ_PLINQ_H
