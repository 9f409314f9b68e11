//===- fuzz/Diff.h - Differential executor over all backends ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzz spec through every execution path the repo has and
/// compares against the reference interpreter (steno/RefExec.h), the
/// oracle for the paper's §4-§5 semantic-identity claim:
///
///   Interp       compileQuery, Backend::Interp (generated loop AST)
///   Jit          compileQuery, Backend::Native (g++ + dlopen)
///   Plinq1/2/8   dryad::DistributedQuery::runParallel (work stealing)
///                over 1-, 2- and 8-worker pools
///   DryadStatic  dryad::DistributedQuery::run over static partitions
///
/// Oracle rules: results must match the reference row-for-row under
/// valueNear-style comparison (1e-9 relative tolerance for doubles; NaN
/// compares equal to NaN — a uniform NaN, e.g. Average of an empty
/// source, is agreement, not a mismatch). The certificate is respected,
/// not re-litigated: a query the analyzer refuses to certify must take
/// the sequential-fallback path (parallel() false) and STILL match the
/// reference; a certified query must match even though it fanned out.
/// The invariant "parallel implies certified" is checked as its own
/// failure kind (CertViolation).
///
/// Parallel backends 2/8 run with tiny morsel bounds (min 1, max 8,
/// inline-below 0) so the small fuzz inputs really split, steal and
/// reassemble instead of taking the InlineBelow shortcut.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_FUZZ_DIFF_H
#define STENO_FUZZ_DIFF_H

#include "dryad/ThreadPool.h"
#include "fuzz/Spec.h"
#include "steno/Result.h"

#include <functional>
#include <string>
#include <vector>

namespace steno {
namespace fuzz {

enum class BackendId {
  Interp,
  InterpNoRewrite, ///< Interp with the plan rewriter forced OFF — the
                   ///< rewrite-on/off oracle pair: Interp (rewrite on)
                   ///< and this backend must both match the reference,
                   ///< so any semantics-changing rewrite shows up as a
                   ///< differential mismatch.
  InterpVectorized, ///< Interp with batch execution forced ON (Interp
                    ///< pins it off) — the vectorize-on/off oracle pair:
                    ///< every spec whose chain fits the columnar model
                    ///< runs both element-at-a-time and batch-at-a-time,
                    ///< so a divergent batch kernel shows up as a
                    ///< differential mismatch. Chains the vec planner
                    ///< rejects silently take the scalar path (still a
                    ///< valid comparison).
  InterpAdaptive, ///< Interp compiled twice with profiling + adaptive
                  ///< feedback: a cold compile runs past the
                  ///< min-sample threshold to seed the FeedbackStore,
                  ///< then a warm recompile — which may reorder
                  ///< predicates on the observed statistics — produces
                  ///< the result that is differenced. The
                  ///< adaptivity-never-changes-results oracle: any
                  ///< feedback-driven reorder that alters semantics
                  ///< shows up as a mismatch against the reference.
  Jit,
  Plinq1,
  Plinq2,
  Plinq8,
  DryadStatic
};

const char *backendName(BackendId Id);
/// Parses a --backend flag value ("interp", "interp-norewrite",
/// "interp-vec", "interp-adapt", "jit", "plinq1", "plinq2", "plinq8",
/// "dryad-static").
bool parseBackendName(const std::string &S, BackendId &Out);

/// All backends, in fixed order; \p WithJit excludes the Native backend
/// when false (a JIT run costs an external compiler invocation, so the
/// fuzz loop samples it instead of paying it on every query).
std::vector<BackendId> allBackends(bool WithJit);

struct DiffOptions {
  /// Which backends to run this query through.
  std::vector<BackendId> Backends = allBackends(false);
  /// Test hook: backends for which this returns true get their result
  /// deliberately perturbed after execution, so the mismatch -> shrink ->
  /// corpus pipeline can be exercised without a real miscompile.
  std::function<bool(BackendId)> Inject;
};

/// One backend's verdict for one query.
struct BackendOutcome {
  BackendId Id = BackendId::Interp;
  bool Match = true;
  bool CertViolation = false; ///< fanned out without a certificate
  std::string Detail;         ///< first differing row, rendered
};

/// The differential verdict for one spec.
struct DiffResult {
  bool BuildError = false; ///< spec did not build; Report has the error
  bool Mismatch = false;   ///< some backend disagreed with the reference
  bool Certified = false;  ///< the dryad/plinq paths fanned out
  std::vector<BackendOutcome> Outcomes;
  std::string Report;

  /// Backends that disagreed (empty when Mismatch is false).
  std::vector<BackendId> failing() const {
    std::vector<BackendId> Out;
    for (const BackendOutcome &O : Outcomes)
      if (!O.Match || O.CertViolation)
        Out.push_back(O.Id);
    return Out;
  }
};

/// Owns the thread pools and runs spec-vs-reference comparisons. One
/// instance per fuzz process (pools are reused across queries).
class DiffHarness {
public:
  DiffHarness();

  /// Builds \p Spec, runs the reference oracle and every requested
  /// backend, and compares. Never aborts on a well-formed spec.
  DiffResult check(const QuerySpec &Spec, const DiffOptions &Opts);

private:
  dryad::ThreadPool Pool1;
  dryad::ThreadPool Pool2;
  dryad::ThreadPool Pool8;
};

/// valueNear with NaN==NaN, the fuzz comparison rule.
bool fuzzValueNear(const expr::Value &A, const expr::Value &B,
                   double Rel = 1e-9);

/// Renders a Value for mismatch reports.
std::string fuzzValueStr(const expr::Value &V);

} // namespace fuzz
} // namespace steno

#endif // STENO_FUZZ_DIFF_H
