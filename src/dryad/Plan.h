//===- dryad/Plan.h - Homomorphic-subquery planning (§6) -------*- C++ -*-===//
///
/// \file
/// The parallel optimizer of paper §6: traverses the QUIL representation,
/// identifies the maximal prefix of homomorphic (element-independent)
/// operators, and — when the query ends in an associative Agg or
/// GroupByAggregate — splits it into a per-partition vertex chain with a
/// partial Agg_i, plus a combining Agg* stage executed after all
/// partitions (Figure 12).
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_PLAN_H
#define STENO_DRYAD_PLAN_H

#include "analysis/Analysis.h"
#include "quil/Quil.h"

#include <optional>
#include <string>

namespace steno {
namespace dryad {

/// How partition outputs are merged by the Agg* stage.
enum class CombineKind {
  Concat,     ///< Pure homomorphic query: concatenate partition outputs.
  Fold,       ///< Scalar aggregate: fold partials with the combiner.
  MergeByKey, ///< GroupByAggregate: merge per-key partials with the
              ///< combiner.
  MergeSorted ///< OrderBy: each partition sorts locally; the combine
              ///< stage k-way-merges the sorted runs (the parallel-sort
              ///< transformation §6 attributes to DryadLINQ, with a merge
              ///< in place of its range-partitioning).
};

/// A parallel execution plan for one query.
struct ParallelPlan {
  /// The per-partition subquery (Src_i ... Agg_i Ret of Figure 12).
  quil::Chain VertexChain;
  CombineKind Kind = CombineKind::Concat;
  /// Associative (acc, acc) -> acc merger for Fold/MergeByKey.
  expr::Lambda Combiner;
  /// Result selector applied after combining: (acc) -> R for Fold,
  /// (key, acc) -> R for MergeByKey. Invalid when the identity.
  expr::Lambda FinalResult;
  /// MergeSorted: the OrderBy key selector (elem) -> numeric.
  expr::Lambda SortKey;
  /// Result type of the whole (combined) query.
  expr::TypeRef ResultType;
  bool ScalarResult = false;
};

/// Builds a plan for \p Chain, or returns std::nullopt with \p WhyNot set
/// when the chain contains a non-homomorphic operator this planner cannot
/// split (stateful predicates, ordering sinks, aggregates without a
/// combiner). Such queries still run sequentially.
std::optional<ParallelPlan> planParallel(const quil::Chain &Chain,
                                         std::string *WhyNot = nullptr);

/// The §6 split decision for one query: whether its chain fans out, and
/// how. Analysis carries the analyzer's diagnostics and parallel-safety
/// certificate; Plan is set when the split is allowed, WhyNot says why
/// when it is not.
struct SplitDecision {
  analysis::AnalysisResult Analysis;
  std::optional<ParallelPlan> Plan;
  std::string WhyNot;
};

/// Decides the split of \p Specialized, a validated chain with the §4.3
/// GroupByAggregate pass already applied. The certificate gates first:
/// the split must preserve sequential meaning (SafetyCertificate::
/// shardSafe, which with \p StrictFp also refuses to reassociate
/// floating-point accumulation). planParallel then gates on shape. The
/// in-process engine (DistributedQuery), the serve worker's shard vertex
/// and the shard router all decide through this one function.
SplitDecision decideSplit(const quil::Chain &Specialized,
                          bool StrictFp = false);

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_PLAN_H
