//===- shard/Shard.h - Sharded multi-process serving (§6) ------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard router (DESIGN.md §5k): scales steno::serve past one process
/// by fanning prepared queries out across N steno_serve workers over Unix
/// sockets, using the paper's §6 decomposition *between processes* —
/// each shard runs the homomorphic prefix + Agg_i vertex over its range
/// of the (deterministically re-synthesized) source, and the router runs
/// the combining Agg* stage over the wire-returned partials.
///
/// Routing policy, decided once per spec at prepare():
///
///  * **Split** — dryad::decideSplit allows it (the SafetyCertificate
///    gates, then the §6 planner finds the Agg_i + Agg* decomposition,
///    exactly as for a serve worker's vertex): every execute range-
///    partitions source slot 0 across all shards (dryad::partitionRange,
///    the split dryad::partitionBindings makes in process), issues one
///    `pexec` per shard, and combines with dryad::combineParallelPartials
///    on the thread that runs execute().
///  * **Fallback** — uncertified or structurally unsplittable plans route
///    whole (`exec`) to one *home* shard chosen by consistent-hashing the
///    spec text onto a ring of virtual shard points (so re-preparing a
///    spec lands on the same shard, and adding a shard only remaps ~1/N
///    of specs). Non-associative combiners are counted separately
///    (shard.fallback.nonassoc).
///
/// **Exactly-once retry.** Every sub-request carries a router-unique
/// request id, echoed by the worker in its answer frame. Wire failures
/// (dead shard, torn frame, rid mismatch) discard the connection and
/// retry the sub-request — on a fresh connection, re-preparing the spec
/// first (handles are connection-local) — within a per-request retry
/// budget. Retries are safe because queries are pure and every worker
/// re-synthesizes identical source buffers from the spec's seeds; the
/// router returns exactly one Response per execute() regardless of how
/// many attempts ran beneath it. A worker that *sheds* backs the
/// sub-request off and retries the same way; budget exhaustion answers
/// Timeout.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_SHARD_SHARD_H
#define STENO_SHARD_SHARD_H

#include "dryad/Dist.h"
#include "serve/Wire.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace steno {
namespace obs {
class Histogram;
} // namespace obs

namespace shard {

/// Router configuration.
struct RouterOptions {
  /// Unix-socket paths of the steno_serve workers, one per shard.
  std::vector<std::string> ShardSockets;
  /// Test seam: returns a connected fd to shard \p I (or -1). Defaults
  /// to connecting ShardSockets[I] with a short probe budget. In-process
  /// tests substitute a socketpair factory and never touch the
  /// filesystem.
  std::function<int(unsigned)> Connect;
  /// Connection-pool bound per shard (connections are created on demand
  /// up to this; further sub-requests wait for a free one).
  unsigned ConnsPerShard = 4;
  /// Deadline for execute() calls made without one.
  std::chrono::milliseconds DefaultDeadline{30000};
  /// Total time a sub-request may spend retrying across shard deaths
  /// before the router answers Timeout.
  std::chrono::milliseconds RetryBudget{15000};
  /// Pause before reconnecting after a wire failure or shed.
  std::chrono::milliseconds RetryBackoff{50};
};

/// One prepared spec's routing decision, immutable after prepare().
struct RoutedQuery {
  std::string SpecText;
  fuzz::QuerySpec Spec;
  /// Elements in source slot 0 (the partitioned source).
  std::size_t SourceCount = 0;
  /// True: fan out per-shard partials + Agg*. False: whole-query on
  /// HomeShard.
  bool Split = false;
  unsigned HomeShard = 0;
  std::string WhyNot; ///< Why the split was refused (when !Split).
  dryad::ParallelPlan Plan;           ///< Valid when Split.
};

using RoutedHandle = std::shared_ptr<const RoutedQuery>;

/// The router. One instance fronts a fixed shard fleet; thread-safe for
/// concurrent prepare/execute from any number of client threads.
class ShardRouter {
public:
  explicit ShardRouter(const RouterOptions &Options);
  ~ShardRouter();

  ShardRouter(const ShardRouter &) = delete;
  ShardRouter &operator=(const ShardRouter &) = delete;

  unsigned shards() const { return NumShards; }
  const RouterOptions &options() const { return Options; }

  /// Parses and routes \p SpecText (memoized by text: re-preparing
  /// returns the same handle). Null with \p Err set on a malformed or
  /// analysis-rejected spec.
  RoutedHandle prepare(const std::string &SpecText, std::string *Err);

  /// Runs one request: split fan-out + Agg* combine, or whole-query on
  /// the home shard. Blocks until the merged response. Exactly one
  /// Response per call (ids are router-local).
  serve::Response execute(const RoutedHandle &H,
                          std::chrono::milliseconds Deadline);
  serve::Response execute(const RoutedHandle &H);

  /// Router-local monotonic statistics.
  struct Stats {
    std::uint64_t Prepares = 0;
    std::uint64_t SplitPrepared = 0;
    std::uint64_t FallbackPrepared = 0;
    std::uint64_t NonAssocFallbacks = 0; ///< Fallbacks due to combiners.
    std::uint64_t Execs = 0;
    std::uint64_t SplitExecs = 0;
    std::uint64_t FallbackExecs = 0;
    std::uint64_t SubSent = 0;  ///< Sub-requests issued (incl. retries).
    std::uint64_t Retries = 0;  ///< Sub-request retry attempts.
    std::uint64_t Reprepares = 0; ///< Spec re-prepared on a fresh conn.
    std::uint64_t Connects = 0; ///< Shard connections established.
    std::uint64_t Deaths = 0;   ///< Connections discarded on failure.
    std::uint64_t Ok = 0;
    std::uint64_t Timeouts = 0;
    std::uint64_t Errors = 0;
  };
  Stats stats() const;

  /// One JSON object: the counters above plus per-shard latency
  /// percentiles (shard<i>.latency_us histograms).
  std::string statsJson() const;

  /// The verbs one router client connection runs (prepare, exec and
  /// stats) over its own handle table, for serve::serveConnection and
  /// serve::listenAndServe.
  serve::Frontend frontend();

private:
  struct Conn;
  struct ShardState;

  /// Issues one sub-request of router request \p RequestId (pexec when
  /// \p Partial, else exec) to \p Shard with exactly-once retry inside
  /// RetryBudget. Its shard.sub_request span records both ids.
  serve::Response subRequest(unsigned Shard, const RoutedQuery &Q,
                             bool Partial, std::size_t Begin,
                             std::size_t Len, std::uint64_t RequestId,
                             std::uint64_t Rid,
                             std::chrono::milliseconds Deadline);

  std::unique_ptr<Conn> acquire(unsigned Shard,
                                std::chrono::steady_clock::time_point
                                    GiveUp);
  void release(unsigned Shard, std::unique_ptr<Conn> C);
  void discard(unsigned Shard, std::unique_ptr<Conn> C);

  RouterOptions Options;
  unsigned NumShards;
  /// Consistent-hash ring: 16 virtual points per shard, sorted by hash.
  std::vector<std::pair<std::uint64_t, unsigned>> Ring;
  std::vector<std::unique_ptr<ShardState>> Shards;
  std::vector<obs::Histogram *> ShardLatency; ///< shard<i>.latency_us.

  std::mutex PrepMutex; ///< Guards Prepared.
  std::unordered_map<std::string, RoutedHandle> Prepared;

  std::atomic<std::uint64_t> NextRid{1};
  std::atomic<std::uint64_t> NPrepares{0}, NSplitPrepared{0},
      NFallbackPrepared{0}, NNonAssocFallbacks{0}, NExecs{0},
      NSplitExecs{0}, NFallbackExecs{0}, NSubSent{0}, NRetries{0},
      NReprepares{0}, NConnects{0}, NDeaths{0}, NOk{0}, NTimeouts{0},
      NErrors{0};
};

} // namespace shard
} // namespace steno

#endif // STENO_SHARD_SHARD_H
