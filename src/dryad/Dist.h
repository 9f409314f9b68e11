//===- dryad/Dist.h - Distributed query execution (§6) ---------*- C++ -*-===//
///
/// \file
/// The DryadLINQ-analogue engine: takes a declarative query and a set of
/// per-partition bindings, plans the homomorphic split (Plan.h), compiles
/// ONE Steno-optimized vertex program shared by all partitions, maps it
/// across the partitions on a thread pool (HomomorphicApply), and merges
/// partials in the Agg* stage. The engine measures phase timings so the
/// Figure 14 benchmark can report per-iteration costs.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_DIST_H
#define STENO_DRYAD_DIST_H

#include "dryad/Morsel.h"
#include "dryad/Plan.h"
#include "dryad/ThreadPool.h"
#include "query/Query.h"
#include "steno/Bindings.h"
#include "steno/Result.h"
#include "steno/Steno.h"

#include <string>
#include <vector>

namespace steno {
namespace dryad {

/// Options for distributed execution: the compile options of the vertex
/// program plus the scheduler's. SpecializeGroupByAggregate applies the
/// §4.3 pass to the whole query before planning, and the vertex compile
/// gets every other field as given. Analyze controls only diagnostics
/// reporting and rejection; the parallel-safety certificate that gates
/// fan-out is always computed. With Profile on, every vertex run merges
/// per-operator statistics into the ProfileStore under vertexPlanHash(),
/// once per worker under runParallel; with Adaptive on as well,
/// runParallel sizes morsels from the observed per-row cost and
/// per-worker skew (adapt::tunedMorselOptions, DESIGN.md §5j) instead of
/// the static Morsels. With Vectorize on and a vectorized vertex,
/// runParallel aligns morsel boundaries to whole batches.
struct DistOptions : CompileOptions {
  /// Tuning for the morsel scheduler runParallel dispatches through.
  MorselOptions Morsels;
  /// Print the one-shot stderr warning when a query compiles into the
  /// sequential fallback. The differential fuzzer compiles thousands of
  /// deliberately-uncertifiable queries and turns this off; everything
  /// else should leave it on (the fallback is a surprise worth a line).
  bool WarnSequentialFallback = true;
};

/// PLINQ-style partitioner (paper §6): splits one set of bindings into
/// \p Parts per-partition bindings by VIEW-partitioning the source buffer
/// at \p PartitionSlot — no data is copied; each partition's binding
/// points into a contiguous range of the original buffer (whole points
/// for strided sources). Every other slot is shared as-is.
std::vector<Bindings> partitionBindings(const Bindings &B, unsigned Parts,
                                        unsigned PartitionSlot = 0);

/// One view-partition: a copy of \p B whose source slot \p Slot points at
/// elements [Begin, Begin+Len) of the original buffer (whole points for
/// strided sources; no data copied). The unit the morsel scheduler hands
/// a vertex program.
Bindings bindingRange(const Bindings &B, unsigned Slot, std::size_t Begin,
                      std::size_t Len);

/// The Agg* stage (Figure 12) as a standalone: merges in-source-order
/// per-partition partials according to \p Plan — concatenation, a
/// pairwise Fold combine tree (gated on \p Cert's associativity
/// classification, with a serial left fold as the defensive fallback),
/// a per-key merge for GroupByAggregate, or a stable k-way merge of
/// sorted runs — and applies the final result selector. Shared by
/// DistributedQuery (whose partials come from in-process vertices) and
/// the shard router (steno::shard, whose partials arrive over the
/// serve wire protocol from other processes).
QueryResult combineParallelPartials(ThreadPool &Pool,
                                    const ParallelPlan &Plan,
                                    const analysis::SafetyCertificate &Cert,
                                    std::vector<QueryResult> Partials);

/// A query compiled for partition-parallel execution. Reusable across
/// invocations with different partition bindings (so the one-off JIT cost
/// amortizes across iterations, as in the paper's k-means job).
///
/// Fan-out is gated twice: structurally by the §6 planner (the chain must
/// split into Agg_i + Agg*), and semantically by the analyzer's
/// parallel-safety certificate (the split must preserve sequential
/// meaning — no possible traps, no order-sensitive operators, no provably
/// non-associative combiner). A query failing either gate is NOT
/// rejected: it compiles into a sequential fallback — one whole-query
/// vertex — and a documented warning is printed once at compile time.
class DistributedQuery {
public:
  /// Plans and compiles \p Q. Never aborts for unparallelizable queries;
  /// they compile into the sequential fallback (see parallel()).
  static DistributedQuery compile(const query::Query &Q,
                                  const DistOptions &Options = DistOptions());

  /// Executes one vertex per element of \p PartitionBindings on \p Pool,
  /// then runs the combining stage. A sequential-fallback query accepts
  /// exactly one partition (callers that partitioned by hand must consult
  /// parallel() first) and aborts otherwise.
  QueryResult run(ThreadPool &Pool,
                  const std::vector<Bindings> &PartitionBindings) const;

  /// The multi-core PLINQ path of §6, morsel-driven: dispatches \p B's
  /// source slot \p PartitionSlot through the work-stealing scheduler
  /// (dryad/Morsel.h) as dynamically sized contiguous view-partitions —
  /// one indirect call per *morsel*, like the HomomorphicApply operator,
  /// instead of PLINQ's per-element iterator composition, but load-
  /// balanced under skew instead of barriering on the slowest static
  /// chunk. Per-morsel partials are reassembled in source order before
  /// the combine stage, so results match run() over static partitions
  /// and the sequential reference. For a sequential-fallback query this
  /// runs the whole query unpartitioned on the calling thread (same
  /// results, no fan-out). Must be called from outside \p Pool's workers.
  QueryResult runParallel(ThreadPool &Pool, const Bindings &B,
                          unsigned PartitionSlot = 0) const;

  /// One-off compile cost of the vertex program (ms).
  double compileMillis() const { return Vertex.compileMillis(); }
  /// ProfileStore key of the vertex program. The planner rewrites the
  /// chain into a per-partition vertex, so this differs from the hash of
  /// the whole-query plan compiled standalone.
  std::uint64_t vertexPlanHash() const { return Vertex.planHash(); }
  /// The generated vertex source.
  const std::string &vertexSource() const {
    return Vertex.generatedSource();
  }
  const ParallelPlan &plan() const { return Plan; }

  /// False when the query compiled into the sequential fallback.
  bool parallel() const { return !Sequential; }
  /// Why fan-out was refused (empty when parallel() is true).
  const std::string &whyNotParallel() const { return WhyNot; }
  /// The analyzer's parallel-safety certificate for the (specialized)
  /// chain.
  const analysis::SafetyCertificate &certificate() const { return Cert; }

private:
  DistributedQuery() = default;

  /// The Agg* stage over in-order partials (shared by run() and
  /// runParallel()). Fold-kind plans combine pairwise as a tree — keyed
  /// off the analyzer's associativity certificate — instead of
  /// serializing every partial through a single left fold at the join.
  QueryResult combinePartials(ThreadPool &Pool,
                              std::vector<QueryResult> Partials) const;

  ParallelPlan Plan;
  CompiledQuery Vertex;
  analysis::SafetyCertificate Cert;
  MorselOptions Morsels;
  /// Consult the FeedbackStore for morsel sizing on each runParallel
  /// (set at compile from Adaptive && Profile, so unprofiled queries
  /// never pay the lookup).
  bool Adaptive = false;
  bool Sequential = false;
  std::string WhyNot;
};

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_DIST_H
