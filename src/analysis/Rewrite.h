//===- analysis/Rewrite.h - Certificate-gated plan rewriter ----*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// quil::Rewrite — the fact-driven, semantics-preserving plan rewriter
/// that sits between analyze and specialize in the compile pipeline
/// (lower -> validate -> analyze -> rewrite -> specialize -> codegen),
/// gated by CompileOptions::Rewrite (default on).
///
/// Every rule consumes facts from analysis::absint (interval, predicate
/// tri-value, cardinality, trap-freedom) and each application emits a
/// machine-checkable RewriteCertificate recording the rule, the operator
/// location, and the fact that justified it. verifyCertificates() replays
/// the rewrite deterministically and re-validates the output chain, so
/// certificate checking is mechanical rather than by review.
///
/// Rules (see DESIGN.md §5h for the full table):
///   DropTruePred      — Where(true) / no-op TakeWhile / no-op SkipWhile
///                       removed (predicate body must be trap-free).
///   CollapseFalsePred — Where(false) / TakeWhile(false) /
///                       SkipWhile(true) replaced by Take 0 (the
///                       canonical empty marker; body must be trap-free).
///   RemoveDeadOp      — operator whose incoming cardinality is exactly
///                       [0, 0] and whose removal preserves element type.
///   FoldConstCount    — Take/Skip count expression folded to a literal.
///   MergeTakeTake / MergeSkipSkip — adjacent constant counts combined.
///   DropSkipZero / DropRedundantTake — provable no-ops removed.
///   ReorderPreds      — maximal runs of adjacent trap-free Where ops
///                       stably sorted by (selectivity - 1) / cost, cost
///                       always from the static model. The only observed
///                       input is RewriteOptions::Observed (selectivities
///                       the ProfileStore recorded for the plan's
///                       anchor): a run takes observed selectivities when
///                       every Where in it has an entry, else static ones.
///   ElideDivTrap      — int64 Div/Mod whose divisor interval excludes 0
///                       (and cannot hit INT64_MIN / -1) marked divSafe()
///                       so codegen emits plain `/` `%` instead of
///                       rt::ckdiv / rt::ckmod.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_ANALYSIS_REWRITE_H
#define STENO_ANALYSIS_REWRITE_H

#include "analysis/Diagnostics.h"
#include "quil/Quil.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace steno {
namespace quil {

/// Which rewrite rule produced a certificate.
enum class RewriteRule {
  DropTruePred,
  CollapseFalsePred,
  RemoveDeadOp,
  FoldConstCount,
  MergeTakeTake,
  MergeSkipSkip,
  DropSkipZero,
  DropRedundantTake,
  ReorderPreds,
  ElideDivTrap
};

const char *rewriteRuleName(RewriteRule Rule);

/// One applied rewrite, machine-checkable: the rule, where it fired, and
/// the analysis fact that justified it.
struct RewriteCertificate {
  RewriteRule Rule = RewriteRule::DropTruePred;
  analysis::DiagLoc Loc; ///< Operator location in the ORIGINAL chain's
                         ///< coordinates at the time the rule fired.
  std::string Fact;      ///< The justifying fact, e.g. "pred = true for
                         ///< every reachable element".
  std::string Detail;    ///< Human-readable description of the change.

  std::string str() const;
};

/// One predicate's observed selectivity, keyed by expr::hashLambda (the
/// OpId the profiler records): rows out / rows in over every profiled
/// run of the plan's anchor. When every Where in an adjacent run has an
/// entry, ReorderPreds ranks the run with these selectivities and the
/// static cost; otherwise the whole run ranks statically.
struct ObservedPredStats {
  double Sel = 0.5;
};

/// Profiled runs an anchor needs before its selectivities reach a plan:
/// one noisy run never reorders one.
constexpr std::uint64_t MinObservedRuns = 3;

struct RewriteOptions {
  /// Observed predicate selectivities. Carried inside the options —
  /// rather than read back from the mutable ProfileStore — so
  /// verifyCertificates()'s replay of a feedback-driven reorder is
  /// deterministic.
  std::map<std::uint64_t, ObservedPredStats> Observed;
};

struct RewriteResult {
  Chain Rewritten;
  std::vector<RewriteCertificate> Certs;
  std::uint64_t OriginalHash = 0;
  std::uint64_t RewrittenHash = 0;
  bool Changed = false;
};

/// Rewrites \p C under \p Options. Deterministic for a fixed chain and
/// options. The input chain must be valid (validate(C) == nullopt); the
/// output chain is valid too.
RewriteResult rewriteChain(const Chain &C,
                           const RewriteOptions &Options = RewriteOptions());

/// Mechanically checks \p R against \p Original: replays the rewrite
/// under \p Options and requires an identical certificate list and
/// rewritten-chain hash, and re-validates the rewritten chain. Returns
/// false and fills \p Err on any mismatch.
bool verifyCertificates(const Chain &Original, const RewriteResult &R,
                        const RewriteOptions &Options = RewriteOptions(),
                        std::string *Err = nullptr);

/// Cheap syntactic pre-scan: true when \p C contains anything a rewrite
/// rule could fire on (a Pred operator, an int64 Div/Mod, or a source
/// with a constant non-positive count). The compile pipeline skips the
/// rewrite phase — including the chain copy and re-hash — when this is
/// false, keeping the phase near-free for plain select/aggregate plans.
bool chainHasRewriteTargets(const Chain &C);

} // namespace quil
} // namespace steno

#endif // STENO_ANALYSIS_REWRITE_H
