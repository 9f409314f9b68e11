//===- tests/analysis_test.cpp - Static-analysis pipeline ------*- C++ -*-===//
///
/// \file
/// Exercises the steno::analysis passes end to end: exact diagnostic codes
/// and locations for malformed/unsafe queries, the parallel-safety
/// certificate, STENO_ANALYZE enforcement modes, the uniform ST2001
/// runtime trap on both backends, and the differential property that an
/// analyzer-certified query computes identical results through the
/// reference executor, the compiled pipeline, and the multi-core parallel
/// path (DistributedQuery::runParallel).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "dryad/Dist.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"

#include "QueryTestUtil.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <vector>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using analysis::AggClass;
using analysis::AnalysisResult;
using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::ExprRole;
using analysis::Severity;
using namespace steno::testutil;
using query::Query;
using quil::Chain;

namespace {

E x() { return param("x", Type::doubleTy()); }
E xi() { return param("xi", Type::int64Ty()); }
E acc() { return param("a", Type::doubleTy()); }
E accB() { return param("b", Type::doubleTy()); }

AnalysisResult analyzed(const Query &Q) {
  return analysis::analyzeChain(quil::lower(Q));
}

/// EXPECTs exactly one diagnostic with \p Code and checks its location.
const Diagnostic *expectDiagAt(const AnalysisResult &R, DiagCode Code,
                               Severity Sev, std::vector<unsigned> OpPath,
                               ExprRole Role = ExprRole::None) {
  const Diagnostic *D = R.Diags.find(Code);
  EXPECT_NE(D, nullptr) << "missing " << analysis::diagCodeName(Code)
                        << "; got:\n"
                        << R.Diags.render(Severity::Note);
  if (!D)
    return nullptr;
  EXPECT_EQ(D->Sev, Sev) << D->render();
  EXPECT_EQ(D->Loc.OpPath, OpPath) << D->render();
  EXPECT_EQ(D->Loc.Role, Role) << D->render();
  return D;
}

/// EXPECTs \p A and \p B hold the same rows (within FP tolerance).
void expectSameResults(const QueryResult &A, const QueryResult &B,
                       const std::string &Name) {
  ASSERT_EQ(A.isScalar(), B.isScalar()) << Name;
  ASSERT_EQ(A.rows().size(), B.rows().size()) << Name;
  for (size_t I = 0; I != A.rows().size(); ++I)
    EXPECT_TRUE(valueNear(A.rows()[I], B.rows()[I]))
        << Name << " row " << I << ": a=" << valueStr(A.rows()[I])
        << " b=" << valueStr(B.rows()[I]);
}

dryad::DistOptions interpDist(const char *Name) {
  dryad::DistOptions O;
  O.Exec = Backend::Interp;
  O.Name = Name;
  return O;
}

} // namespace

//===--------------------------------------------------------------------===//
// ST1xxx: type/arity checker on deliberately broken chains
//===--------------------------------------------------------------------===//

namespace {

/// The sumsq chain (Src Trans Agg Ret) with a mutation hook on op #1.
Chain sumsqChain() {
  return quil::lower(
      Query::doubleArray(0).select(lambda({x()}, x() * x())).sum());
}

} // namespace

TEST(AnalysisTypeCheck, BadArityIsST1001) {
  Chain C = sumsqChain();
  E Y = param("y", Type::doubleTy());
  C.Ops[1].Fn = lambda({x(), Y}, x() + Y);
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::BadArity, Severity::Error, {1}, ExprRole::Fn);
  EXPECT_FALSE(R.ok());
}

TEST(AnalysisTypeCheck, ParamTypeMismatchIsST1002) {
  Chain C = sumsqChain();
  C.Ops[1].Fn = lambda({xi()}, toDouble(xi()));
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::ParamTypeMismatch, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, ResultTypeMismatchIsST1003) {
  Chain C = sumsqChain();
  C.Ops[1].Fn = lambda({x()}, toInt64(x()));
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::ResultTypeMismatch, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, PredicateNotBoolIsST1004) {
  Chain C = quil::lower(
      Query::doubleArray(0).where(lambda({x()}, x() > 0.0)).sum());
  C.Ops[1].Fn = lambda({x()}, x());
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::PredicateNotBool, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, CountNotInt64IsST1005) {
  Chain C = quil::lower(Query::doubleArray(0).take(E(3)).sum());
  C.Ops[1].Seed = E(1.5).node();
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::CountNotInt64, Severity::Error, {1},
               ExprRole::Seed);
}

TEST(AnalysisTypeCheck, SeedTypeMismatchIsST1006) {
  Chain C = quil::lower(Query::doubleArray(0).sum());
  C.Ops[1].Seed = E(std::int64_t{0}).node();
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::SeedTypeMismatch, Severity::Error, {1},
               ExprRole::Seed);
}

TEST(AnalysisTypeCheck, CaptureSlotOutOfBoundsIsST1007) {
  AnalysisResult R = analyzed(
      Query::doubleArray(0)
          .select(lambda({x()}, x() * capture(999, Type::doubleTy())))
          .sum());
  expectDiagAt(R, DiagCode::CaptureSlotOutOfBounds, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, SourceSlotOutOfBoundsIsST1008) {
  AnalysisResult R = analyzed(
      Query::doubleArray(0)
          .select(lambda({x()}, x() + toDouble(sourceLen(77))))
          .sum());
  expectDiagAt(R, DiagCode::SourceSlotOutOfBounds, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, UnboundParamIsST1009) {
  Chain C = sumsqChain();
  C.Ops[1].Fn = lambda({x()}, param("ghost", Type::doubleTy()));
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::UnboundParam, Severity::Error, {1},
               ExprRole::Fn);
}

TEST(AnalysisTypeCheck, BadCombinerIsST1010) {
  Chain C = quil::lower(Query::doubleArray(0).sum());
  C.Ops[1].Combine = lambda({acc()}, acc());
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::BadCombiner, Severity::Error, {1},
               ExprRole::Combine);
}

TEST(AnalysisTypeCheck, ElemTypeMismatchIsST1011) {
  Chain C = sumsqChain();
  C.Ops[1].InElem = Type::int64Ty();
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::ElemTypeMismatch, Severity::Error, {1});
}

TEST(AnalysisTypeCheck, KeyNotInt64IsST1012) {
  Chain C = quil::lower(
      Query::doubleArray(0).groupBy(lambda({x()}, toInt64(x()))));
  C.Ops[1].Fn = lambda({x()}, x());
  AnalysisResult R = analysis::analyzeChain(C);
  expectDiagAt(R, DiagCode::KeyNotInt64, Severity::Error, {1},
               ExprRole::Fn);
}

//===--------------------------------------------------------------------===//
// ST2xxx: effect/purity analysis and the certificate
//===--------------------------------------------------------------------===//

TEST(AnalysisEffects, ConstZeroDivisorIsST2001Error) {
  AnalysisResult R = analyzed(
      Query::int64Array(2).select(lambda({xi()}, xi() % E(0))).sum());
  expectDiagAt(R, DiagCode::DivByZero, Severity::Error, {1}, ExprRole::Fn);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Cert.Pure);
  EXPECT_FALSE(R.Cert.parallelSafe());
}

TEST(AnalysisEffects, UnprovenDivisorIsST2001Warning) {
  AnalysisResult R = analyzed(
      Query::int64Array(2)
          .select(lambda({xi()}, xi() / capture(1, Type::int64Ty())))
          .sum());
  expectDiagAt(R, DiagCode::DivByZero, Severity::Warning, {1},
               ExprRole::Fn);
  EXPECT_TRUE(R.ok()) << "a possible trap is a warning, not a rejection";
  EXPECT_FALSE(R.Cert.Pure);
  EXPECT_FALSE(R.Cert.parallelSafe());
}

TEST(AnalysisEffects, ConstNonzeroDivisorIsSafe) {
  AnalysisResult R = analyzed(
      Query::int64Array(2).select(lambda({xi()}, xi() % E(7))).sum());
  EXPECT_FALSE(R.Diags.has(DiagCode::DivByZero));
  EXPECT_TRUE(R.Cert.Pure);
}

TEST(AnalysisEffects, NestedDivByZeroLocatesInnerOp) {
  E Y = param("y", Type::int64Ty());
  Query Inner = Query::range(E(0), E(3)).select(lambda({Y}, Y % E(0)));
  AnalysisResult R =
      analyzed(Query::int64Array(2).selectMany(xi(), Inner).sum());
  // Nested op #1, inner Trans op #1 -> "op #1.1".
  const Diagnostic *D = expectDiagAt(R, DiagCode::DivByZero,
                                     Severity::Error, {1, 1}, ExprRole::Fn);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.str(), "op #1.1 Fn");
  EXPECT_FALSE(R.Cert.Pure) << "purity must propagate out of nests";
}

TEST(AnalysisEffects, TakeIsOrderSensitiveST2002) {
  AnalysisResult R = analyzed(Query::doubleArray(0).take(E(3)).sum());
  expectDiagAt(R, DiagCode::OrderSensitive, Severity::Note, {1});
  EXPECT_TRUE(R.Cert.OrderSensitive);
  EXPECT_FALSE(R.Cert.parallelSafe());
  EXPECT_TRUE(R.ok()) << "order sensitivity is informational";
}

TEST(AnalysisEffects, NestedTakeIsNotOrderSensitive) {
  // A Take inside a nested query runs wholly within one outer element;
  // partitioning the outer source cannot reorder it.
  E Y = param("y", Type::int64Ty());
  Query Inner = Query::range(E(0), E(10)).take(E(3)).select(lambda({Y}, Y));
  AnalysisResult R =
      analyzed(Query::int64Array(2).selectMany(xi(), Inner).sum());
  EXPECT_FALSE(R.Cert.OrderSensitive);
  EXPECT_TRUE(R.Cert.parallelSafe());
}

TEST(AnalysisEffects, AggWithoutCombinerIsST2003) {
  AnalysisResult R = analyzed(Query::doubleArray(0).aggregate(
      E(0.0), lambda({acc(), x()}, acc() + x())));
  expectDiagAt(R, DiagCode::NoCombiner, Severity::Note, {1});
  ASSERT_EQ(R.Cert.AggClasses.size(), 1u);
  EXPECT_EQ(R.Cert.AggClasses[0], AggClass::NoCombiner);
  // NoCombiner does not revoke the certificate: the structural planner
  // already refuses to split such an aggregation.
  EXPECT_TRUE(R.Cert.parallelSafe());
}

TEST(AnalysisEffects, FpReassociationIsST2004) {
  AnalysisResult R = analyzed(Query::doubleArray(0).average());
  EXPECT_TRUE(R.Diags.has(DiagCode::FpFoldReassociation));
  EXPECT_TRUE(R.Cert.FpReassociation);
  // Informational: FP rounding drift does not revoke the certificate.
  EXPECT_TRUE(R.Cert.parallelSafe());
}

TEST(AnalysisEffects, Int64SumHasNoFpReassociation) {
  AnalysisResult R = analyzed(Query::int64Array(2).sum());
  EXPECT_FALSE(R.Cert.FpReassociation);
  ASSERT_EQ(R.Cert.AggClasses.size(), 1u);
  EXPECT_EQ(R.Cert.AggClasses[0], AggClass::AssociativeCommutative);
}

TEST(AnalysisEffects, NonAssociativeCombinerIsST2005) {
  AnalysisResult R = analyzed(Query::doubleArray(0).aggregate(
      E(0.0), lambda({acc(), x()}, acc() + x()), Lambda(),
      lambda({acc(), accB()}, acc() - accB())));
  expectDiagAt(R, DiagCode::NonAssociativeCombiner, Severity::Warning, {1},
               ExprRole::Combine);
  ASSERT_EQ(R.Cert.AggClasses.size(), 1u);
  EXPECT_EQ(R.Cert.AggClasses[0], AggClass::NonAssociative);
  EXPECT_FALSE(R.Cert.parallelSafe())
      << "a provably non-associative combiner must revoke fan-out";
  EXPECT_TRUE(R.ok()) << "still compilable sequentially";
}

TEST(AnalysisEffects, UnrecognizedCombinerIsTrustedST2006) {
  AnalysisResult R = analyzed(Query::doubleArray(0).aggregate(
      E(0.0), lambda({acc(), x()}, acc() + x()), Lambda(),
      lambda({acc(), accB()}, (acc() + accB()) + E(0.0))));
  expectDiagAt(R, DiagCode::UnverifiedCombiner, Severity::Note, {1},
               ExprRole::Combine);
  ASSERT_EQ(R.Cert.AggClasses.size(), 1u);
  EXPECT_EQ(R.Cert.AggClasses[0], AggClass::Trusted);
  EXPECT_TRUE(R.Cert.parallelSafe()) << "trusted combiners keep the cert";
}

TEST(AnalysisEffects, SynthesizedCombinersAreRecognized) {
  // Lower.cpp synthesizes a + b for Sum/Count, the cond-select for
  // Min/Max, and a componentwise pair-add for Average; all must classify
  // as associative-commutative.
  for (const char *Name : {"sum", "min", "max", "average", "count"}) {
    Query Q = std::string(Name) == "sum"     ? Query::doubleArray(0).sum()
              : std::string(Name) == "min"   ? Query::doubleArray(0).min()
              : std::string(Name) == "max"   ? Query::doubleArray(0).max()
              : std::string(Name) == "average"
                  ? Query::doubleArray(0).average()
                  : Query::doubleArray(0).count();
    AnalysisResult R = analyzed(Q);
    ASSERT_EQ(R.Cert.AggClasses.size(), 1u) << Name;
    EXPECT_EQ(R.Cert.AggClasses[0], AggClass::AssociativeCommutative)
        << Name << ": " << analysis::aggClassName(R.Cert.AggClasses[0]);
    EXPECT_TRUE(R.Cert.parallelSafe()) << Name;
  }
}

//===--------------------------------------------------------------------===//
// ST3xxx: constant/range analysis
//===--------------------------------------------------------------------===//

TEST(AnalysisConstRange, NegativeTakeIsST3001Error) {
  AnalysisResult R = analyzed(Query::doubleArray(0).take(E(-1)).count());
  const Diagnostic *D = expectDiagAt(R, DiagCode::NegativeCount,
                                     Severity::Error, {1}, ExprRole::Seed);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Loc.str(), "op #1 Seed");
  EXPECT_FALSE(R.ok());
}

TEST(AnalysisConstRange, NegativeRangeCountIsST3001Warning) {
  // Unlike Take(-1), a negative Range count is DEFINED as an empty
  // source, so it lints instead of rejecting.
  AnalysisResult R = analyzed(Query::range(E(0), E(-5)).sum());
  expectDiagAt(R, DiagCode::NegativeCount, Severity::Warning, {0},
               ExprRole::SrcCount);
  EXPECT_TRUE(R.ok());
}

TEST(AnalysisConstRange, ConstFalseWhereIsST3002AndKillsDownstream) {
  AnalysisResult R = analyzed(Query::doubleArray(0)
                                  .where(lambda({x()}, E(0.0) > E(1.0)))
                                  .select(lambda({x()}, x() * x()))
                                  .sum());
  expectDiagAt(R, DiagCode::AlwaysFalsePred, Severity::Warning, {1},
               ExprRole::Fn);
  // The Trans at op #2 can never see an element.
  expectDiagAt(R, DiagCode::DeadOperator, Severity::Note, {2});
  EXPECT_TRUE(R.ok());
}

TEST(AnalysisConstRange, ConstTrueWhereIsST3003) {
  AnalysisResult R = analyzed(
      Query::doubleArray(0).where(lambda({x()}, E(1.0) > E(0.0))).sum());
  expectDiagAt(R, DiagCode::AlwaysTruePred, Severity::Warning, {1},
               ExprRole::Fn);
  EXPECT_FALSE(R.Diags.has(DiagCode::DeadOperator));
}

TEST(AnalysisConstRange, TakeZeroIsST3004) {
  AnalysisResult R = analyzed(Query::doubleArray(0).take(E(0)).toArray());
  expectDiagAt(R, DiagCode::TakeZero, Severity::Warning, {1},
               ExprRole::Seed);
  expectDiagAt(R, DiagCode::DeadOperator, Severity::Note, {2});
}

//===--------------------------------------------------------------------===//
// Enforcement modes (STENO_ANALYZE) in compileQuery
//===--------------------------------------------------------------------===//

TEST(AnalysisMode, StrictRejectsErrorFindings) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Query Q = Query::int64Array(2).select(lambda({xi()}, xi() % E(0))).sum();
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Analyze = analysis::Mode::Strict;
  O.Name = "strict_divzero";
  EXPECT_DEATH(compileQuery(Q, O), "rejected by static analysis.*ST2001");
}

TEST(AnalysisMode, StrictRejectsNegativeTake) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Query Q = Query::doubleArray(0).take(E(-1)).count();
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Analyze = analysis::Mode::Strict;
  O.Name = "strict_negtake";
  EXPECT_DEATH(compileQuery(Q, O), "rejected by static analysis.*ST3001");
}

TEST(AnalysisMode, WarnModeCompilesDespiteErrors) {
  Query Q = Query::doubleArray(0).take(E(-1)).count();
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Analyze = analysis::Mode::Warn;
  O.Name = "warn_negtake";
  CompiledQuery CQ = compileQuery(Q, O);
  EXPECT_TRUE(CQ.analysisResult().Diags.hasErrors());
  EXPECT_TRUE(CQ.analysisResult().Diags.has(DiagCode::NegativeCount));
}

TEST(AnalysisMode, OffModeSkipsAnalysis) {
  Query Q = Query::doubleArray(0).take(E(-1)).count();
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Analyze = analysis::Mode::Off;
  O.Name = "off_negtake";
  CompiledQuery CQ = compileQuery(Q, O);
  EXPECT_TRUE(CQ.analysisResult().Diags.empty());
}

TEST(AnalysisMode, EnvParsing) {
  EXPECT_EQ(analysis::modeName(analysis::Mode::Off), std::string("off"));
  EXPECT_EQ(analysis::modeName(analysis::Mode::Warn), std::string("warn"));
  EXPECT_EQ(analysis::modeName(analysis::Mode::Strict),
            std::string("strict"));
}

//===--------------------------------------------------------------------===//
// Runtime trap: the ST2001 contract holds on both backends
//===--------------------------------------------------------------------===//

namespace {

/// A query dividing by a capture the analyzer cannot prove nonzero,
/// bound to zero: compiles with a warning, must trap uniformly at run
/// time.
struct TrapFixture {
  std::vector<std::int64_t> Data{8, 9, 10};
  Bindings B;
  Query Q = Query::int64Array(0)
                .select(lambda({param("v", Type::int64Ty())},
                               param("v", Type::int64Ty()) /
                                   capture(0, Type::int64Ty())))
                .sum();
  TrapFixture() {
    B.bindInt64Array(0, Data.data(),
                     static_cast<std::int64_t>(Data.size()));
    B.setValue(0, Value(std::int64_t{0}));
  }
};

} // namespace

TEST(AnalysisRuntimeTrap, InterpDivByZeroTrapsWithST2001) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TrapFixture F;
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Name = "interp_trap";
  CompiledQuery CQ = compileQuery(F.Q, O);
  EXPECT_FALSE(CQ.analysisResult().Cert.Pure);
  EXPECT_DEATH(CQ.run(F.B), "ST2001.*integer division by zero");
}

TEST(AnalysisRuntimeTrap, Int64MinOverMinusOneCompilesOverEmptyInput) {
  // The constant INT64_MIN / -1 traps (ST2001) when it runs, so it must
  // reach the run time unfolded: folding it used to abort the compile.
  // Over an empty input it never runs, and the sum is 0.
  Bindings Empty;
  Empty.bindInt64Array(0, nullptr, 0);
  Query Q = Query::int64Array(0)
                .select(lambda({xi()}, xi() + E(INT64_MIN) / E(-1)))
                .sum();
  for (analysis::Mode M : {analysis::Mode::Warn, analysis::Mode::Off})
    for (Backend Exec : {Backend::Interp, Backend::Native}) {
      CompileOptions O;
      O.Exec = Exec;
      O.Analyze = M;
      O.Name = "int64min_div_neg1";
      EXPECT_EQ(compileQuery(Q, O).run(Empty).scalarValue().asInt64(), 0)
          << analysis::modeName(M)
          << (Exec == Backend::Native ? " native" : " interp");
    }
}

TEST(AnalysisRuntimeTrap, NativeDivByZeroTrapsWithST2001) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TrapFixture F;
  CompileOptions O;
  O.Exec = Backend::Native;
  O.Name = "native_trap";
  CompiledQuery CQ = compileQuery(F.Q, O);
  EXPECT_DEATH(CQ.run(F.B), "ST2001.*integer division by zero");
}

//===--------------------------------------------------------------------===//
// Certificate gating in dryad::
//===--------------------------------------------------------------------===//

TEST(AnalysisGate, CertifiedQueryStaysParallel) {
  Catalog Cat;
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
  dryad::DistributedQuery DQ =
      dryad::DistributedQuery::compile(Q, interpDist("gate_sumsq"));
  EXPECT_TRUE(DQ.parallel());
  EXPECT_TRUE(DQ.whyNotParallel().empty());
  EXPECT_TRUE(DQ.certificate().parallelSafe());
  dryad::ThreadPool Pool(4);
  expectSameResults(runReference(Q, Cat.B), DQ.runParallel(Pool, Cat.B),
                    "gate_sumsq");
}

TEST(AnalysisGate, OrderSensitiveQueryFallsBackSequential) {
  Catalog Cat;
  Query Q = Query::doubleArray(0).take(E(7)).sum();
  dryad::DistributedQuery DQ =
      dryad::DistributedQuery::compile(Q, interpDist("gate_take"));
  EXPECT_FALSE(DQ.parallel());
  EXPECT_NE(DQ.whyNotParallel().find("analyzer refused certification"),
            std::string::npos)
      << DQ.whyNotParallel();
  dryad::ThreadPool Pool(4);
  expectSameResults(runReference(Q, Cat.B), DQ.runParallel(Pool, Cat.B),
                    "gate_take");
}

TEST(AnalysisGate, NonAssociativeCombinerFallsBackDespiteStructure) {
  // Structurally this aggregation HAS a combiner, so the §6 planner
  // would happily split it; only the semantic gate knows a - b changes
  // meaning under partial aggregation. The fallback must produce the
  // sequential answer.
  Catalog Cat;
  Query Q = Query::doubleArray(0).aggregate(
      E(0.0), lambda({acc(), x()}, acc() + x()), Lambda(),
      lambda({acc(), accB()}, acc() - accB()));
  dryad::DistributedQuery DQ =
      dryad::DistributedQuery::compile(Q, interpDist("gate_nonassoc"));
  EXPECT_FALSE(DQ.parallel());
  EXPECT_FALSE(DQ.certificate().combinersAssociative());
  dryad::ThreadPool Pool(4);
  expectSameResults(runReference(Q, Cat.B), DQ.runParallel(Pool, Cat.B),
                    "gate_nonassoc");
}

TEST(AnalysisGate, SequentialQueryRejectsHandPartitioning) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Catalog Cat;
  Query Q = Query::doubleArray(0).take(E(7)).sum();
  dryad::DistributedQuery DQ =
      dryad::DistributedQuery::compile(Q, interpDist("gate_handpart"));
  ASSERT_FALSE(DQ.parallel());
  std::vector<Bindings> Parts = dryad::partitionBindings(Cat.B, 4);
  dryad::ThreadPool Pool(4);
  EXPECT_DEATH(DQ.run(Pool, Parts), "sequential-only");
}

TEST(AnalysisGate, PlinqSurfacesTheCertificate) {
  Catalog Cat;
  dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(
      Query::doubleArray(0).take(E(7)).sum(), interpDist("plinq_take"));
  EXPECT_FALSE(DQ.parallel());
  EXPECT_FALSE(DQ.whyNotParallel().empty());
  EXPECT_TRUE(DQ.certificate().OrderSensitive);

  dryad::DistributedQuery DQ2 = dryad::DistributedQuery::compile(
      Query::doubleArray(0).min(), interpDist("plinq_min"));
  EXPECT_TRUE(DQ2.parallel());
  EXPECT_TRUE(DQ2.whyNotParallel().empty());
}

//===--------------------------------------------------------------------===//
// Differential properties over the shared catalog
//===--------------------------------------------------------------------===//

TEST(AnalysisProperty, CatalogAnalyzesWithoutErrors) {
  // Every catalog query is well-formed: the analyzer must accept all of
  // them (warnings and notes are fine; errors would break compileQuery's
  // strict default for the whole differential suite).
  Catalog Cat;
  for (const auto &[Name, Q] : Cat.Queries) {
    AnalysisResult R = analyzed(Q);
    EXPECT_TRUE(R.ok()) << Name << ":\n"
                        << R.Diags.render(Severity::Note);
  }
}

TEST(AnalysisProperty, CertifiedQueriesMatchReferenceWhenCompiled) {
  // Certified-pure queries must be semantics-preserving through the
  // compiled pipeline (Interp backend keeps this test JIT-free).
  Catalog Cat;
  unsigned Checked = 0;
  for (const auto &[Name, Q] : Cat.Queries) {
    AnalysisResult R = analyzed(Q);
    if (!R.ok() || !R.Cert.parallelSafe())
      continue;
    expectMatchesReference(Q, Cat.B, Backend::Interp, Name);
    ++Checked;
  }
  EXPECT_GE(Checked, 15u) << "catalog should certify most queries";
}

TEST(AnalysisProperty, CertifiedQueriesMatchReferenceUnderPlinq) {
  // The strongest property: for every certified query whose source is
  // the partitionable slot-0 array, the multi-core parallel path (fan-out
  // or certified fallback, whichever the planner picks) agrees with the
  // sequential reference executor.
  Catalog Cat;
  dryad::ThreadPool Pool(4);
  unsigned Checked = 0;
  for (const auto &[Name, Q] : Cat.Queries) {
    Chain C = quil::lower(Q);
    AnalysisResult R = analysis::analyzeChain(C);
    if (!R.ok() || !R.Cert.parallelSafe())
      continue;
    const query::SourceDesc &Src = C.Ops[0].Src;
    if (Src.Kind == query::SourceKind::Range ||
        Src.Kind == query::SourceKind::VecExpr || Src.Slot != 0)
      continue; // runParallel partitions slot 0
    dryad::DistributedQuery DQ =
        dryad::DistributedQuery::compile(Q, interpDist(Name.c_str()));
    expectSameResults(runReference(Q, Cat.B), DQ.runParallel(Pool, Cat.B),
                      Name);
    ++Checked;
  }
  EXPECT_GE(Checked, 8u) << "expected several partitionable queries";
}

//===--------------------------------------------------------------------===//
// Validator satellite: operator index, depth, and slot bounds
//===--------------------------------------------------------------------===//

TEST(ValidatorLocations, ErrorsCarryOpIndexAndDepth) {
  Chain C = quil::lower(Query::doubleArray(0).sum());
  std::swap(C.Ops[1], C.Ops[2]); // Src Ret Agg: operators after Ret
  auto Err = quil::validate(C);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("op #"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("(depth 0)"), std::string::npos) << *Err;
}

TEST(ValidatorLocations, CaptureSlotBoundsAreChecked) {
  Chain C = quil::lower(
      Query::doubleArray(0)
          .select(lambda({x()}, x() * capture(999, Type::doubleTy())))
          .sum());
  auto Err = quil::validate(C);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("capture slot 999"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("op #1"), std::string::npos) << *Err;
}

TEST(ValidatorLocations, NestedErrorsReportInnerDepth) {
  E Y = param("y", Type::int64Ty());
  Query Inner = Query::range(E(0), E(3)).select(lambda({Y}, Y));
  Chain C = quil::lower(Query::int64Array(2).selectMany(xi(), Inner).sum());
  // Break the inner chain: drop its Ret.
  auto Broken = std::make_shared<Chain>(*C.Ops[1].NestedChain);
  Broken->Ops.pop_back();
  C.Ops[1].NestedChain = Broken;
  auto Err = quil::validate(C);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("in nested query"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("depth 1"), std::string::npos) << *Err;
}
