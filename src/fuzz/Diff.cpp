//===- fuzz/Diff.cpp - Differential executor over all backends -*- C++ -*-===//

#include "fuzz/Diff.h"

#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "quil/Quil.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"
#include "support/StringUtil.h"

#include <cmath>

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

/// Morsel bounds under which even an 8-element input splits, steals and
/// reassembles — the default InlineBelow would route every fuzz-sized
/// input through the sequential inline shortcut and test nothing.
dryad::MorselOptions tinyMorsels() {
  dryad::MorselOptions M;
  M.MinMorsel = 1;
  M.MaxMorsel = 8;
  M.InitialMorsel = 2;
  M.InlineBelow = 0;
  return M;
}

dryad::DistOptions quietDistOptions(const char *Name, bool TinyMorsels) {
  dryad::DistOptions DO;
  DO.Exec = Backend::Interp; // Native is sampled via BackendId::Jit only
  DO.Analyze = analysis::Mode::Off; // screened once in check()
  DO.Rewrite = true; // pinned: rewrite-off is covered by InterpNoRewrite
  DO.WarnSequentialFallback = false;
  DO.Name = Name;
  if (TinyMorsels)
    DO.Morsels = tinyMorsels();
  return DO;
}

/// Structurally rebuilds \p V with a +1 / flipped perturbation at the
/// first leaf (fault injection for the mismatch-pipeline test).
expr::Value perturbValue(const expr::Value &V,
                         std::deque<std::vector<double>> &Arena) {
  switch (V.kind()) {
  case expr::TypeKind::Bool:
    return expr::Value(!V.asBool());
  case expr::TypeKind::Int64:
    return expr::Value(V.asInt64() + 1);
  case expr::TypeKind::Double:
    return expr::Value(V.asDouble() + 1.0);
  case expr::TypeKind::Vec: {
    expr::VecView View = V.asVec();
    Arena.emplace_back(View.Data, View.Data + View.Len);
    if (!Arena.back().empty())
      Arena.back()[0] += 1.0;
    else
      Arena.back().push_back(1.0); // perturb an empty vec by growing it
    return expr::Value(
        expr::VecView{Arena.back().data(),
                      static_cast<std::int64_t>(Arena.back().size())});
  }
  case expr::TypeKind::Pair:
    return expr::Value::makePair(perturbValue(V.first(), Arena),
                                 V.second());
  }
  return V;
}

QueryResult perturbResult(const QueryResult &R) {
  auto Arena = std::make_shared<std::deque<std::vector<double>>>();
  std::vector<expr::Value> Rows;
  Rows.reserve(R.rows().size());
  for (const expr::Value &V : R.rows())
    Rows.push_back(perturbValue(V, *Arena));
  if (Rows.empty() && !R.isScalar()) {
    // Perturb an empty collection result by inventing a row.
    Rows.push_back(expr::Value(1.0));
  }
  return QueryResult(R.isScalar(), std::move(Rows), std::move(Arena));
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

  for (BackendId Id : Opts.Backends) {
    BackendOutcome O;
    O.Id = Id;
    QueryResult Got;
    bool Certified = false;

    switch (Id) {
    case BackendId::Interp:
    case BackendId::InterpNoRewrite:
    case BackendId::InterpVectorized:
    case BackendId::Jit: {
      CompileOptions CO;
      CO.Exec = Id == BackendId::Jit ? Backend::Native : Backend::Interp;
      CO.Analyze = analysis::Mode::Off; // screened above; stay quiet
      // Pinned (not env-derived) so the harness always runs the
      // rewrite-on/off oracle pair regardless of STENO_REWRITE.
      CO.Rewrite = Id != BackendId::InterpNoRewrite;
      // Pinned likewise for the vectorize-on/off pair: the scalar interp
      // backends never take the batch path regardless of STENO_VECTORIZE,
      // InterpVectorized always requests it. Jit keeps the env default
      // (sampling whichever native TU the environment selects).
      if (Id != BackendId::Jit)
        CO.Vectorize = Id == BackendId::InterpVectorized;
      // Pinned off so these backends stay deterministic even after
      // InterpAdaptive seeded feedback for this very spec; adaptivity
      // is exercised only through its dedicated backend below.
      CO.Adaptive = false;
      CO.Name = Id == BackendId::Jit               ? "fuzz_jit"
                : Id == BackendId::InterpNoRewrite ? "fuzz_interp_norw"
                : Id == BackendId::InterpVectorized ? "fuzz_interp_vec"
                                                    : "fuzz_interp";
      Got = compileQuery(Built.Q, CO).run(Built.B);
      break;
    }
    case BackendId::InterpAdaptive: {
      // Cold: profiled adaptive compile with an empty feedback store for
      // this plan — the static order. Running it past the min-sample
      // threshold seeds the FeedbackStore through the profile
      // provenance; the warm recompile may then reorder predicates on
      // the observed cost×selectivity. The warm result is differenced:
      // adaptivity must never change results.
      CompileOptions CO;
      CO.Exec = Backend::Interp;
      CO.Analyze = analysis::Mode::Off;
      CO.Rewrite = true;
      CO.Vectorize = false;
      CO.Profile = true;
      CO.Adaptive = true; // pinned: the oracle runs despite STENO_ADAPT
      CO.Name = "fuzz_interp_adapt";
      CompiledQuery Cold = compileQuery(Built.Q, CO);
      for (int Warmup = 0; Warmup != 4; ++Warmup)
        Cold.run(Built.B);
      Got = compileQuery(Built.Q, CO).run(Built.B);
      break;
    }
    case BackendId::Plinq1:
    case BackendId::Plinq2:
    case BackendId::Plinq8: {
      bool Tiny = Id != BackendId::Plinq1;
      dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(
          Built.Q, quietDistOptions(backendName(Id), Tiny));
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
      dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(
          Built.Q, quietDistOptions("dryad_static", false));
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
  return R;
}
