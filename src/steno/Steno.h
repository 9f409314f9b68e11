//===- steno/Steno.h - Public optimizer facade -----------------*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door: compile a declarative Query into an executable
/// CompiledQuery, choosing a backend.
///
/// \code
///   using namespace steno;
///   using namespace steno::expr::dsl;
///   auto X = param("x", expr::Type::doubleTy());
///   query::Query Q = query::Query::doubleArray(0)
///                        .select(lambda({X}, X * X))
///                        .sum();
///   CompiledQuery CQ = compileQuery(Q, {});
///   Bindings B;
///   B.bindDoubleArray(0, Data.data(), Data.size());
///   double SumSq = CQ.run(B).scalarValue().asDouble();
/// \endcode
///
/// The pipeline mirrors the paper: lower to QUIL (§4.1), validate the
/// grammar (Figure 4), specialize GroupBy-Aggregate (§4.3), generate loop
/// code with the pushdown automaton (§4.2, §5), then either compile and
/// dynamically load it (Native backend, §3.3) or execute the generated
/// AST directly (Interp backend). Compiled queries are cacheable objects,
/// as §7.1 prescribes for amortizing the one-off compilation cost.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_STENO_H
#define STENO_STENO_STENO_H

#include "analysis/Analysis.h"
#include "analysis/Rewrite.h"
#include "cpptree/Printer.h"
#include "cpptree/Tree.h"
#include "jit/Jit.h"
#include "obs/Profile.h"
#include "query/Query.h"
#include "quil/Quil.h"
#include "steno/Bindings.h"
#include "steno/Result.h"

#include <memory>
#include <string>

namespace steno {

/// Execution strategy for a compiled query.
enum class Backend {
  Interp, ///< Walk the generated loop AST (portable; no compiler needed).
  Native  ///< Compile to a shared object and dlopen it (paper §3.3).
};

/// Knobs for compileQuery. Every field's default is a literal: no
/// environment variable sets a compile option.
struct CompileOptions {
  Backend Exec = Backend::Native;
  /// Apply the §4.3 GroupBy-Aggregate specialization pass.
  bool SpecializeGroupByAggregate = true;
  /// Hoist repeated pure subexpressions into locals (§9 CSE).
  bool EnableCse = true;
  /// Static-analysis enforcement (lower -> validate -> analyze ->
  /// specialize -> cse -> codegen). Strict rejects a query with an
  /// error-severity finding: it would fail later inside the JIT'd C++
  /// anyway, with a worse message and after paying compiler latency.
  analysis::Mode Analyze = analysis::Mode::Strict;
  /// Fact-driven plan rewriting (lower -> validate -> analyze ->
  /// REWRITE -> specialize -> codegen): dead-operator elimination,
  /// constant-predicate dropping, Take/Skip folding, cost×selectivity
  /// predicate reordering and division-trap elision, each justified by a
  /// machine-checkable RewriteCertificate (see analysis/Rewrite.h).
  bool Rewrite = true;
  /// Collect per-operator row counts (rows in/out, hence selectivity)
  /// into the global obs::ProfileStore on every run().
  bool Profile = false;
  /// Vectorized batch execution for the Interp backend (DESIGN.md §5i):
  /// vectorizable chains run batch-at-a-time over contiguous columns with
  /// selection vectors through the steno::vec batch kernels. Chains whose
  /// shape does not fit the columnar model (nested queries, sinks,
  /// early-exit aggregates, vec-typed elements) keep the scalar
  /// interpreter. The Native backend always runs the automaton's fused
  /// loop and ignores it.
  bool Vectorize = true;
  /// Feedback-driven adaptive optimization (DESIGN.md §5j), the one
  /// switch for whether observed statistics shape a plan: once the
  /// global obs::ProfileStore holds at least quil::MinObservedRuns
  /// profiled runs of this query's anchor, the rewrite phase ranks a run
  /// of adjacent Wheres with their observed selectivities (rows out /
  /// rows in) when every Where in the run saw rows, and with static
  /// estimates otherwise; cost is always the static model's. Profile
  /// alone never changes a plan. Every feedback-driven reorder still
  /// emits a RewriteCertificate and is replay-verified before the chain
  /// is adopted; verification failure falls back to the static plan.
  /// Only meaningful with Rewrite on.
  bool Adaptive = true;
  /// Entry symbol / readable query name.
  std::string Name = "steno_query";

  /// Field-wise equality. The QueryCache key is every field except Name:
  /// it compares options with Name cleared, so a field added here is
  /// keyed without touching the cache.
  bool operator==(const CompileOptions &) const = default;
};

/// An optimized, executable query. Cheap to copy (shared state); reusable
/// across any number of run() calls with different bindings.
class CompiledQuery {
public:
  CompiledQuery() = default;

  /// False for default-constructed handles.
  bool valid() const { return I != nullptr; }

  /// Executes against \p B. Aborts with a diagnostic if a slot the query
  /// uses is unbound or has the wrong buffer kind.
  QueryResult run(const Bindings &B) const;

  /// Which engine run() dispatches to.
  Backend backend() const;

  /// The background-recompile hook (steno::serve): wraps \p Module — which
  /// must have been compiled from generatedSource() resolving
  /// program().Name, e.g. by jit::CompiledModule::compile on serve's
  /// background compile pool — as the Native-backend
  /// twin of this query. Chain, program, slot usage and analysis state are
  /// shared; only the execution engine changes. Aborts on an invalid
  /// handle or a null module.
  CompiledQuery
  withNativeModule(std::unique_ptr<jit::CompiledModule> Module) const;

  /// The generated C++ source (available for both backends).
  const std::string &generatedSource() const;
  /// One-off compile+load cost in ms (0 for the Interp backend).
  double compileMillis() const;
  /// The generated loop program.
  const cpptree::Program &program() const;
  /// The QUIL chain after optimization passes.
  const quil::Chain &chain() const;
  /// Whether the §4.3 specialization fired.
  bool groupBySpecialized() const;
  /// The analyze phase's findings and parallel-safety certificate
  /// (empty/default when the phase ran in Off mode).
  const analysis::AnalysisResult &analysisResult() const;
  /// The rewriter's outcome: certificates and before/after hashes. Null
  /// when rewriting was disabled or left the chain untouched.
  const quil::RewriteResult *rewriteResult() const;
  /// The query this plan is a version of: what planHash() would be with
  /// rewriting off (equal to planHash() when the rewriter did not change
  /// the chain). Every version of one query registers under the same
  /// anchor in the ProfileStore, which folds their profiles.
  std::uint64_t anchorHash() const;
  /// Structural hash of the optimized QUIL chain (quil::hashChain) — the
  /// ProfileStore key. The interp and native plans of one query share a
  /// hash, so serve's backend swap keeps one merged profile.
  std::uint64_t planHash() const;
  /// Whether this query was compiled with profiling hooks.
  bool profiled() const;
  /// Whether the batch executor runs this query: an Interp query compiled
  /// with Vectorize on whose chain fits the columnar model. False for
  /// every Native query, withNativeModule twins included.
  bool vectorized() const;
  /// EXPLAIN ANALYZE-style report of the accumulated profile for this
  /// plan (obs::renderExplainAnalyze over the store snapshot); a
  /// diagnostic line when the plan is unprofiled or never ran.
  std::string explainAnalyze() const;

  /// Opaque shared state (defined in Steno.cpp).
  struct Impl;

private:
  friend CompiledQuery compileQuery(const query::Query &,
                                    const CompileOptions &);
  friend CompiledQuery compileChain(const quil::Chain &,
                                    const CompileOptions &);
  friend class QueryRunner;
  std::shared_ptr<const Impl> I;
};

/// Amortized repeat-execution handle for one CompiledQuery — the inner
/// loop of the morsel runtime. CompiledQuery::run() pays per-call costs
/// that are invisible at query granularity but dominate at morsel
/// granularity: binding re-validation, a tracing span, global metric
/// updates and a heap-allocated profile sink per call. A QueryRunner
/// validates bindings on the first call only, accumulates profile deltas
/// into one reused sink, and merges them into the ProfileStore exactly
/// once (flush() or destruction). Not thread-safe: create one per worker.
class QueryRunner {
public:
  QueryRunner() = default;
  explicit QueryRunner(const CompiledQuery &CQ);
  QueryRunner(QueryRunner &&) = default;
  QueryRunner &operator=(QueryRunner &&) = default;
  ~QueryRunner();

  bool valid() const { return I != nullptr; }

  /// Executes against \p B. Slot usage is validated on the first call
  /// only — callers re-binding buffers between calls must keep the same
  /// slots bound (the morsel runtime rebinds windows of one source).
  QueryResult run(const Bindings &B);

  /// Merges the accumulated profile into the ProfileStore, attributed to
  /// \p Worker, and resets the accumulator. No-op when the query is
  /// unprofiled or nothing ran since the last flush.
  void flush(unsigned Worker = 0);

private:
  std::shared_ptr<const CompiledQuery::Impl> I;
  std::unique_ptr<obs::ProfileSink> Sink;
  bool Checked = false;
  bool Dirty = false;
};

/// Lowers, validates, optimizes and code-generates \p Q. Aborts with a
/// diagnostic on grammar violations; returns a runnable query otherwise.
CompiledQuery compileQuery(const query::Query &Q,
                           const CompileOptions &Options = CompileOptions());

/// Compiles an already-lowered QUIL chain (used by the distributed planner,
/// which rewrites chains into per-partition vertex programs before code
/// generation). Validates the chain; optimization passes are the caller's
/// responsibility.
CompiledQuery compileChain(const quil::Chain &Chain,
                           const CompileOptions &Options = CompileOptions());

} // namespace steno

#endif // STENO_STENO_STENO_H
