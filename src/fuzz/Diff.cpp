//===- fuzz/Diff.cpp - Differential executor over all backends -*- C++ -*-===//

#include "fuzz/Diff.h"

#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "obs/Profile.h"
#include "quil/Quil.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>

using namespace steno;
using namespace steno::fuzz;

const char *fuzz::backendName(BackendId Id) {
  switch (Id) {
  case BackendId::Interp:
    return "interp";
  case BackendId::InterpNoRewrite:
    return "interp-norewrite";
  case BackendId::InterpVectorized:
    return "interp-vec";
  case BackendId::InterpAdaptive:
    return "interp-adapt";
  case BackendId::Jit:
    return "jit";
  case BackendId::Plinq1:
    return "plinq1";
  case BackendId::Plinq2:
    return "plinq2";
  case BackendId::Plinq8:
    return "plinq8";
  case BackendId::DryadStatic:
    return "dryad-static";
  }
  return "?";
}

bool fuzz::parseBackendName(const std::string &S, BackendId &Out) {
  for (BackendId Id : allBackends(true))
    if (S == backendName(Id)) {
      Out = Id;
      return true;
    }
  return false;
}

std::vector<BackendId> fuzz::allBackends(bool WithJit) {
  std::vector<BackendId> Out = {BackendId::Interp,
                                BackendId::InterpNoRewrite,
                                BackendId::InterpVectorized,
                                BackendId::InterpAdaptive};
  if (WithJit)
    Out.push_back(BackendId::Jit);
  Out.push_back(BackendId::Plinq1);
  Out.push_back(BackendId::Plinq2);
  Out.push_back(BackendId::Plinq8);
  Out.push_back(BackendId::DryadStatic);
  return Out;
}

bool fuzz::fuzzValueNear(const expr::Value &A, const expr::Value &B,
                         double Rel) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case expr::TypeKind::Bool:
    return A.asBool() == B.asBool();
  case expr::TypeKind::Int64:
    return A.asInt64() == B.asInt64();
  case expr::TypeKind::Double: {
    double X = A.asDouble();
    double Y = B.asDouble();
    // A uniform NaN (Average of empty, 0/0 chains) is agreement: every
    // backend computed the same nothing.
    if (std::isnan(X) && std::isnan(Y))
      return true;
    if (X == Y)
      return true;
    double Scale = std::max(std::abs(X), std::abs(Y));
    return std::abs(X - Y) <= Rel * std::max(Scale, 1.0);
  }
  case expr::TypeKind::Vec: {
    expr::VecView VA = A.asVec();
    expr::VecView VB = B.asVec();
    if (VA.Len != VB.Len)
      return false;
    for (std::int64_t I = 0; I != VA.Len; ++I)
      if (!fuzzValueNear(expr::Value(VA.Data[I]), expr::Value(VB.Data[I]),
                         Rel))
        return false;
    return true;
  }
  case expr::TypeKind::Pair:
    return fuzzValueNear(A.first(), B.first(), Rel) &&
           fuzzValueNear(A.second(), B.second(), Rel);
  }
  return false;
}

std::string fuzz::fuzzValueStr(const expr::Value &V) {
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    return V.asBool() ? "true" : "false";
  case expr::TypeKind::Int64:
    return std::to_string(V.asInt64());
  case expr::TypeKind::Double:
    return support::strFormat("%.17g", V.asDouble());
  case expr::TypeKind::Vec: {
    std::string Out = "[";
    expr::VecView View = V.asVec();
    for (std::int64_t I = 0; I != View.Len; ++I) {
      if (I)
        Out += ", ";
      Out += support::strFormat("%.17g", View.Data[I]);
    }
    return Out + "]";
  }
  case expr::TypeKind::Pair:
    return "(" + fuzzValueStr(V.first()) + ", " + fuzzValueStr(V.second()) +
           ")";
  }
  return "?";
}

namespace {

/// Morsel bounds under which even an 8-element input splits into
/// several claims and reassembles — the default InlineBelow would route
/// every fuzz-sized input through the sequential inline shortcut and
/// test nothing.
dryad::MorselOptions tinyMorsels() {
  dryad::MorselOptions M;
  M.MinMorsel = 1;
  M.MaxMorsel = 8;
  M.InlineBelow = 0;
  return M;
}

/// The dryad backends' options. Each pins Vectorize by its identity, so
/// every run covers both interpreter tiers under fan-out: Plinq1 and
/// Plinq8 run batched vertices, Plinq2 and DryadStatic scalar ones.
dryad::DistOptions quietDistOptions(BackendId Id) {
  dryad::DistOptions DO;
  DO.Exec = Backend::Interp; // Native is sampled via BackendId::Jit only
  DO.Analyze = analysis::Mode::Off; // screened once in check()
  DO.Rewrite = true; // pinned: rewrite-off is covered by InterpNoRewrite
  DO.Vectorize = Id == BackendId::Plinq1 || Id == BackendId::Plinq8;
  DO.WarnSequentialFallback = false;
  DO.Name = Id == BackendId::DryadStatic ? "dryad_static" : backendName(Id);
  if (Id == BackendId::Plinq2 || Id == BackendId::Plinq8)
    DO.Morsels = tinyMorsels();
  return DO;
}

/// The compile options of the compileQuery backends (Interp,
/// InterpNoRewrite, InterpVectorized, Jit).
CompileOptions compileOptions(BackendId Id) {
  CompileOptions CO;
  CO.Exec = Id == BackendId::Jit ? Backend::Native : Backend::Interp;
  CO.Analyze = analysis::Mode::Off; // screened in check(); stay quiet
  // The rewrite-on/off oracle pair.
  CO.Rewrite = Id != BackendId::InterpNoRewrite;
  // The vectorize-on/off pair: the scalar interp backends never take the
  // batch path, InterpVectorized always requests it. Jit ignores it.
  CO.Vectorize = Id == BackendId::InterpVectorized;
  // Pinned off so these backends stay deterministic even after
  // InterpAdaptive seeded feedback for this very spec; adaptivity is
  // exercised only through its dedicated backend.
  CO.Adaptive = false;
  CO.Name = Id == BackendId::Jit               ? "fuzz_jit"
            : Id == BackendId::InterpNoRewrite ? "fuzz_interp_norw"
            : Id == BackendId::InterpVectorized ? "fuzz_interp_vec"
                                                : "fuzz_interp";
  return CO;
}

/// One run of a profiled plan: its result and each op's rows in and out.
struct ProfiledRun {
  QueryResult Result;
  std::vector<obs::OpProfile> Ops;
};

/// The spec compiled once more with profiling on for backend \p Id.
CompiledQuery compileProfiled(const BuiltQuery &Built, BackendId Id) {
  CompileOptions CO = compileOptions(Id);
  CO.Profile = true;
  return compileQuery(Built.Q, CO);
}

/// Runs the profiled plan \p CQ once. The counts are the ProfileStore
/// snapshot delta around the run: the plan's entry also holds every
/// earlier run of the same plan hash (other backends, InterpAdaptive's
/// warm-up, a repeated spec).
ProfiledRun runProfiled(const CompiledQuery &CQ, const Bindings &B) {
  const obs::ProfileStore &Store = obs::ProfileStore::global();
  std::optional<obs::ProfileSnapshot> Before = Store.snapshot(CQ.planHash());
  ProfiledRun Out;
  Out.Result = CQ.run(B);
  if (std::optional<obs::ProfileSnapshot> After =
          Store.snapshot(CQ.planHash()))
    Out.Ops = std::move(After->Ops);
  if (Before && Before->Ops.size() == Out.Ops.size())
    for (std::size_t K = 0; K != Out.Ops.size(); ++K) {
      Out.Ops[K].RowsIn -= Before->Ops[K].RowsIn;
      Out.Ops[K].RowsOut -= Before->Ops[K].RowsOut;
    }
  return Out;
}

/// Op-by-op comparison of rows in and out with the scalar interpreter's
/// \p Want; fills \p Detail with the first divergence.
bool countsMatch(const std::vector<obs::OpProfile> &Want,
                 const std::vector<obs::OpProfile> &Got,
                 std::string &Detail) {
  if (Want.size() != Got.size()) {
    Detail = support::strFormat("profile: %zu ops vs %zu", Want.size(),
                                Got.size());
    return false;
  }
  for (std::size_t K = 0; K != Want.size(); ++K)
    if (Want[K].RowsIn != Got[K].RowsIn ||
        Want[K].RowsOut != Got[K].RowsOut) {
      Detail = support::strFormat(
          "profile: op %zu %s rows in/out interp=%llu/%llu got=%llu/%llu",
          K, Want[K].Label.c_str(),
          static_cast<unsigned long long>(Want[K].RowsIn),
          static_cast<unsigned long long>(Want[K].RowsOut),
          static_cast<unsigned long long>(Got[K].RowsIn),
          static_cast<unsigned long long>(Got[K].RowsOut));
      return false;
    }
  return true;
}

/// Structurally rebuilds \p V with a +1 / flipped perturbation at the
/// first leaf (fault injection for the mismatch-pipeline test). A
/// perturbed vec's elements live in \p Scratch until the row is added.
expr::Value perturbValue(const expr::Value &V, std::vector<double> &Scratch) {
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    return expr::Value(!V.asBool());
  case expr::TypeKind::Int64:
    return expr::Value(V.asInt64() + 1);
  case expr::TypeKind::Double:
    return expr::Value(V.asDouble() + 1.0);
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    Scratch.assign(View.Data, View.Data + View.Len);
    if (!Scratch.empty())
      Scratch[0] += 1.0;
    else
      Scratch.push_back(1.0); // perturb an empty vec by growing it
    return expr::Value(expr::VecView{
        Scratch.data(), static_cast<std::int64_t>(Scratch.size())});
  }
  case expr::TypeKind::Pair:
    return expr::Value::makePair(perturbValue(V.first(), Scratch),
                                 V.second());
  }
  return V;
}

QueryResult perturbResult(const QueryResult &R) {
  if (R.numRows() == 0 && !R.isScalar()) {
    // Perturb an empty collection result by inventing a row.
    ResultBuilder Out(false);
    Out.add(expr::Value(1.0));
    return Out.finish();
  }
  ResultBuilder Out(R.isScalar(), R.rowType());
  std::vector<double> Scratch;
  for (const expr::Value &V : R.rows())
    Out.add(perturbValue(V, Scratch));
  return Out.finish();
}

/// Row-by-row comparison; fills \p Detail with the first divergence.
bool resultsMatch(const QueryResult &Ref, const QueryResult &Got,
                  std::string &Detail) {
  if (Ref.isScalar() != Got.isScalar()) {
    Detail = "scalar/collection shape disagreement";
    return false;
  }
  if (Ref.rows().size() != Got.rows().size()) {
    Detail = support::strFormat("row count %zu vs %zu", Ref.rows().size(),
                                Got.rows().size());
    return false;
  }
  for (std::size_t I = 0; I != Ref.rows().size(); ++I)
    if (!fuzzValueNear(Ref.rows()[I], Got.rows()[I])) {
      Detail = support::strFormat("row %zu: ref=", I) +
               fuzzValueStr(Ref.rows()[I]) +
               " got=" + fuzzValueStr(Got.rows()[I]);
      return false;
    }
  return true;
}

} // namespace

DiffHarness::DiffHarness() : Pool1(1), Pool2(2), Pool8(8) {}

DiffResult DiffHarness::check(const QuerySpec &Spec,
                              const DiffOptions &Opts) {
  DiffResult R;

  BuiltQuery Built;
  std::string Err;
  if (!buildSpec(Spec, Built, &Err)) {
    R.BuildError = true;
    R.Report = "spec build error: " + Err;
    return R;
  }

  // Pre-screen through the frontend so no backend compile can abort: a
  // spec the grammar or type checker rejects is a generator/shrinker bug
  // reported as BuildError, not a differential finding.
  quil::Chain Chain = quil::lower(Built.Q);
  if (auto VErr = quil::validate(Chain)) {
    R.BuildError = true;
    R.Report = "quil validation error: " + *VErr;
    return R;
  }
  analysis::AnalysisResult Analyzed = analysis::analyzeChain(Chain);
  if (!Analyzed.ok()) {
    // Negative Take/Skip counts are an intentional fuzz shape: the
    // runtime defines them (Take -> empty, Skip -> no-op) and the
    // reference oracle agrees, even though strict user compiles reject
    // them. Any other error-severity finding is a generator bug.
    bool OnlyNegativeCount = true;
    for (const analysis::Diagnostic &D : Analyzed.Diags.all())
      if (D.Sev == analysis::Severity::Error &&
          D.Code != analysis::DiagCode::NegativeCount)
        OnlyNegativeCount = false;
    if (!OnlyNegativeCount) {
      R.BuildError = true;
      R.Report = "analysis error: " +
                 Analyzed.Diags.render(analysis::Severity::Error);
      return R;
    }
  }

  QueryResult Ref = runReference(Built.Q, Built.B);

  // The profiled native plan compiles while the other backends run: one
  // JIT compile costs more than all of them together.
  std::future<CompiledQuery> ProfiledJit;
  if (std::find(Opts.Backends.begin(), Opts.Backends.end(),
                BackendId::Jit) != Opts.Backends.end())
    ProfiledJit = std::async(std::launch::async, [&Built] {
      return compileProfiled(Built, BackendId::Jit);
    });

  for (BackendId Id : Opts.Backends) {
    BackendOutcome O;
    O.Id = Id;
    QueryResult Got;
    bool Certified = false;

    switch (Id) {
    case BackendId::Interp:
    case BackendId::InterpNoRewrite:
    case BackendId::InterpVectorized:
    case BackendId::Jit:
      Got = compileQuery(Built.Q, compileOptions(Id)).run(Built.B);
      break;
    case BackendId::InterpAdaptive: {
      // Cold: profiled adaptive compile with no profile yet for this
      // query — the static order. Running it past quil::MinObservedRuns
      // records selectivities under the query's anchor in the
      // ProfileStore; the warm recompile may then reorder predicates on
      // them. The warm result is differenced: adaptivity must never
      // change results.
      CompileOptions CO;
      CO.Exec = Backend::Interp;
      CO.Analyze = analysis::Mode::Off;
      CO.Rewrite = true;
      CO.Vectorize = false;
      CO.Profile = true;
      CO.Adaptive = true;
      CO.Name = "fuzz_interp_adapt";
      CompiledQuery Cold = compileQuery(Built.Q, CO);
      for (std::uint64_t Warmup = 0; Warmup <= quil::MinObservedRuns;
           ++Warmup)
        Cold.run(Built.B);
      Got = compileQuery(Built.Q, CO).run(Built.B);
      break;
    }
    case BackendId::Plinq1:
    case BackendId::Plinq2:
    case BackendId::Plinq8: {
      dryad::DistributedQuery DQ =
          dryad::DistributedQuery::compile(Built.Q, quietDistOptions(Id));
      Certified = DQ.parallel();
      if (Certified && !DQ.certificate().parallelSafe())
        O.CertViolation = true;
      dryad::ThreadPool &Pool = Id == BackendId::Plinq1   ? Pool1
                                : Id == BackendId::Plinq2 ? Pool2
                                                          : Pool8;
      Got = DQ.runParallel(Pool, Built.B);
      break;
    }
    case BackendId::DryadStatic: {
      dryad::DistributedQuery DQ =
          dryad::DistributedQuery::compile(Built.Q, quietDistOptions(Id));
      Certified = DQ.parallel();
      if (Certified && !DQ.certificate().parallelSafe())
        O.CertViolation = true;
      std::vector<Bindings> Parts =
          Certified ? dryad::partitionBindings(Built.B, 3)
                    : std::vector<Bindings>{Built.B};
      Got = DQ.run(Pool2, Parts);
      break;
    }
    }

    if (Opts.Inject && Opts.Inject(Id))
      Got = perturbResult(Got);

    R.Certified = R.Certified || Certified;
    O.Match = resultsMatch(Ref, Got, O.Detail);
    if (!O.Match || O.CertViolation) {
      R.Mismatch = true;
      if (!R.Report.empty())
        R.Report += "\n";
      R.Report += std::string(backendName(Id)) + ": " +
                  (O.CertViolation ? "fanned out without certificate; "
                                   : "") +
                  O.Detail;
    }
    R.Outcomes.push_back(std::move(O));
  }

  // The profile-count oracle: the profiled plans of the scalar
  // interpreter, the batch executor and native count the same rows in
  // and out per op, the scalar interpreter's being the reference, and
  // still compute the reference's result.
  std::optional<ProfiledRun> Scalar;
  for (BackendOutcome &O : R.Outcomes) {
    if (O.Id != BackendId::Interp && O.Id != BackendId::InterpVectorized &&
        O.Id != BackendId::Jit)
      continue;
    if (!Scalar)
      Scalar = runProfiled(compileProfiled(Built, BackendId::Interp),
                           Built.B);
    ProfiledRun Run =
        O.Id == BackendId::Interp ? *Scalar
        : O.Id == BackendId::Jit
            ? runProfiled(ProfiledJit.get(), Built.B)
            : runProfiled(compileProfiled(Built, O.Id), Built.B);
    std::string Detail;
    if (!resultsMatch(Ref, Run.Result, Detail)) {
      O.Match = false;
      Detail.insert(0, "profiled plan: ");
    } else if (!countsMatch(Scalar->Ops, Run.Ops, Detail)) {
      O.CountMismatch = true;
      R.CountMismatch = true;
    } else {
      continue;
    }
    if (O.Detail.empty())
      O.Detail = Detail;
    R.Mismatch = true;
    if (!R.Report.empty())
      R.Report += "\n";
    R.Report += std::string(backendName(O.Id)) + ": " + Detail;
  }
  return R;
}
