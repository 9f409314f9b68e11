//===- tests/vec_test.cpp - Vectorized batch execution (§5i) ---*- C++ -*-===//
//
// Differential suite for the columnar batch path: every vectorizable
// chain must produce exactly the rows the scalar path produces — same
// values, same order, same traps, same profile counts — at every awkward
// source length (empty, one element, one less / one more than the
// 1024-lane batch, several batches, boundaries that land mid-batch). The
// scalar interpreter (CompileOptions::Vectorize = false) is the oracle;
// the reference executor double-checks both.
//
// Trap fidelity gets its own section: the ST2001 division trap must
// fire from inside a batch exactly when the scalar loop would have
// fired it, and must NOT fire for lanes the scalar loop never
// evaluates (behind a Where, a short-circuit &&, an unchosen Cond
// branch, or past a Take/TakeWhile boundary).
//
//===----------------------------------------------------------------------===//

#include "QueryTestUtil.h"
#include "cpptree/Printer.h"
#include "jit/Jit.h"
#include "obs/Profile.h"

#include "gtest/gtest.h"

#include <cmath>
#include <numeric>
#include <utility>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::testutil;
using query::Query;

namespace {

E xd() { return param("x", Type::doubleTy()); }
E xi() { return param("xi", Type::int64Ty()); }

CompileOptions vecOpts(bool Vectorize, const std::string &Name,
                       Backend Exec = Backend::Interp) {
  CompileOptions O;
  O.Exec = Exec;
  O.Vectorize = Vectorize;
  O.Name = Name;
  return O;
}

/// Compiles \p Q twice — scalar and batched — runs both, and EXPECTs
/// row-for-row agreement (plus agreement with the reference executor).
void expectBatchedMatchesScalar(const Query &Q, const Bindings &B,
                                const std::string &Name) {
  QueryResult Scalar =
      compileQuery(Q, vecOpts(false, Name + "_scalar")).run(B);
  QueryResult Batched =
      compileQuery(Q, vecOpts(true, Name + "_vec")).run(B);
  ASSERT_EQ(Scalar.isScalar(), Batched.isScalar()) << Name;
  ASSERT_EQ(Scalar.rows().size(), Batched.rows().size()) << Name;
  for (size_t I = 0; I != Scalar.rows().size(); ++I)
    EXPECT_TRUE(valueNear(Scalar.rows()[I], Batched.rows()[I]))
        << Name << " row " << I
        << ": scalar=" << valueStr(Scalar.rows()[I])
        << " batched=" << valueStr(Batched.rows()[I]);
  QueryResult Ref = runReference(Q, B);
  ASSERT_EQ(Ref.rows().size(), Batched.rows().size()) << Name << " (ref)";
  for (size_t I = 0; I != Ref.rows().size(); ++I)
    EXPECT_TRUE(valueNear(Ref.rows()[I], Batched.rows()[I]))
        << Name << " row " << I << " vs reference";
}

} // namespace

//===--------------------------------------------------------------------===//
// Catalog differential: every shape, batched vs scalar
//===--------------------------------------------------------------------===//

// The shared query catalog (every operator and nesting pattern) through
// both interpreter paths. Non-vectorizable shapes silently take the
// scalar path — still a valid comparison, and it proves the fallback
// never corrupts results.
TEST(VecDifferential, CatalogBatchedMatchesScalar) {
  Catalog C(/*Seed=*/11, /*N=*/500);
  for (const auto &[Name, Q] : C.Queries)
    expectBatchedMatchesScalar(Q, C.B, std::string("vec_cat_") + Name);
}

// Same catalog over 2600 elements, so each source spans two full
// 1024-lane batches and a partial third.
TEST(VecDifferential, CatalogBatchedMatchesScalarSmallBatches) {
  Catalog C(/*Seed=*/12, /*N=*/2600);
  for (const auto &[Name, Q] : C.Queries)
    expectBatchedMatchesScalar(Q, C.B, std::string("vec_cat_multi_") + Name);
}

//===--------------------------------------------------------------------===//
// Batch-edge boundaries: lengths and counters around the batch size
//===--------------------------------------------------------------------===//

// Source lengths straddling batch multiples (empty, one, 1024±1,
// 2048±1, several batches) crossed with Take/Skip counts that land
// mid-batch, exactly on an edge and past the end.
TEST(VecBoundary, TakeSkipCountersAcrossBatchEdges) {
  for (size_t N : {size_t{0}, size_t{1}, size_t{1023}, size_t{1024},
                   size_t{1025}, size_t{2047}, size_t{2048}, size_t{2049},
                   size_t{5000}}) {
    std::vector<double> Xs(N);
    std::iota(Xs.begin(), Xs.end(), 1.0);
    Bindings B;
    B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(N));
    std::string Tag = "n" + std::to_string(N);
    for (std::int64_t K : {std::int64_t{0}, std::int64_t{5},
                           std::int64_t{1023}, std::int64_t{1024},
                           std::int64_t{1025}, static_cast<std::int64_t>(N),
                           static_cast<std::int64_t>(N) + 9}) {
      std::string KTag = Tag + "_k" + std::to_string(K);
      expectBatchedMatchesScalar(
          Query::doubleArray(0).take(E(K)).sum(), B, "take_" + KTag);
      expectBatchedMatchesScalar(
          Query::doubleArray(0).skip(E(K)).sum(), B, "skip_" + KTag);
      expectBatchedMatchesScalar(Query::doubleArray(0)
                                     .skip(E(std::int64_t{3}))
                                     .take(E(K))
                                     .select(lambda({xd()}, xd() * xd()))
                                     .sum(),
                                 B, "skiptake_" + KTag);
    }
  }
}

// Negative Take/Skip counts clamp to zero at run time. A negative
// CONSTANT is rejected by static analysis before either path runs, so
// the count arrives through a capture the analyzer cannot evaluate.
TEST(VecBoundary, NegativeCountersClampLikeScalar) {
  std::vector<double> Xs(2500);
  std::iota(Xs.begin(), Xs.end(), 1.0);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  B.setValue(0, Value(std::int64_t{-3}));
  E K = capture(0, Type::int64Ty());
  expectBatchedMatchesScalar(Query::doubleArray(0).take(K).count(), B,
                             "neg_take");
  expectBatchedMatchesScalar(Query::doubleArray(0).skip(K).sum(), B,
                             "neg_skip");
}

// TakeWhile/SkipWhile flips that land mid-batch, at a batch edge,
// never, and immediately. The flag must persist across batches.
TEST(VecBoundary, WhilePredicatesFlipMidBatch) {
  std::vector<double> Xs(4096);
  std::iota(Xs.begin(), Xs.end(), 0.0); // 0, 1, ..., 4095
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  for (double Cut :
       {-1.0, 0.5, 1023.5, 1024.5, 1500.5, 2047.5, 4095.5, 9999.0}) {
    std::string Tag = std::to_string(static_cast<int>(Cut * 2));
    expectBatchedMatchesScalar(
        Query::doubleArray(0).takeWhile(lambda({xd()}, xd() < E(Cut))).sum(),
        B, "takewhile_" + Tag);
    expectBatchedMatchesScalar(
        Query::doubleArray(0).skipWhile(lambda({xd()}, xd() < E(Cut))).sum(),
        B, "skipwhile_" + Tag);
    expectBatchedMatchesScalar(Query::doubleArray(0)
                                   .skipWhile(lambda({xd()}, xd() < E(Cut)))
                                   .takeWhile(lambda({xd()}, xd() < E(Cut) +
                                                                 E(10.0)))
                                   .where(lambda({xd()},
                                                 toInt64(xd()) % 2 == 0))
                                   .count(),
                               B, "whilemix_" + Tag);
  }
}

// A Where that leaves a sparse selection, then stateful predicates over
// the survivors: selection-vector trimming must agree with the scalar
// element order inside the first batch and across the 1024 and 2048
// edges.
TEST(VecBoundary, SparseSelectionThenCounters) {
  std::vector<double> Xs(3000);
  std::iota(Xs.begin(), Xs.end(), 0.0);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  for (auto [Skip, Take] : {std::pair<std::int64_t, std::int64_t>{4, 21},
                            {330, 40},
                            {680, 30}}) {
    Query Q = Query::doubleArray(0)
                  .where(lambda({xd()}, toInt64(xd()) % 3 == 0))
                  .skip(E(Skip))
                  .take(E(Take))
                  .select(lambda({xd()}, xd() + 0.5));
    expectBatchedMatchesScalar(Q, B, "sparse_skip" + std::to_string(Skip));
  }
}

//===--------------------------------------------------------------------===//
// Sources: Range, Int64Array, VecExpr
//===--------------------------------------------------------------------===//

TEST(VecSources, RangeInt64AndVecExpr) {
  std::vector<double> Xs(3000);
  std::iota(Xs.begin(), Xs.end(), 0.25);
  std::vector<std::int64_t> Is{7, -3, 0, 41, 8, 8, -20, 5};
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  B.bindInt64Array(1, Is.data(), static_cast<std::int64_t>(Is.size()));

  expectBatchedMatchesScalar(
      Query::range(E(std::int64_t{5}), E(std::int64_t{2600}))
          .select(lambda({xi()}, xi() * xi()))
          .sum(),
      B, "range_sumsq");
  // Negative count clamps to an empty range.
  expectBatchedMatchesScalar(
      Query::range(E(std::int64_t{0}), E(std::int64_t{-5})).count(), B,
      "range_negative");
  expectBatchedMatchesScalar(
      Query::int64Array(1).where(lambda({xi()}, xi() > 0)).min(), B,
      "int64_min");
  expectBatchedMatchesScalar(Query::int64Array(1).max(), B, "int64_max");
  // Vec-expression source: a view sliced out of slot 0.
  expectBatchedMatchesScalar(
      Query::overVec(slice(0, E(std::int64_t{3}), E(std::int64_t{2100})))
          .select(lambda({xd()}, xd() * 2.0))
          .sum(),
      B, "vecexpr_slice");
}

//===--------------------------------------------------------------------===//
// Plan gating: which shapes vectorize, which fall back
//===--------------------------------------------------------------------===//

TEST(VecPlanGate, VectorizableShapesCarryAPlan) {
  Query Fig01 =
      Query::doubleArray(0).select(lambda({xd()}, xd() * xd())).sum();
  EXPECT_TRUE(compileQuery(Fig01, vecOpts(true, "gate_on")).vectorized());
  // The same chain with vectorization off: no plan.
  EXPECT_FALSE(compileQuery(Fig01, vecOpts(false, "gate_off")).vectorized());
  // Row-emitting chains (no aggregate) vectorize too.
  EXPECT_TRUE(compileQuery(Query::doubleArray(0)
                               .where(lambda({xd()}, xd() > 0.0))
                               .select(lambda({xd()}, xd() + 1.0)),
                           vecOpts(true, "gate_rows"))
                  .vectorized());
}

// Only the interpreter runs the batch plan. A Native query, with
// Vectorize on or off, and serve's background upgrade of a batched
// Interp query (its generated source compiled and swapped in through
// withNativeModule) run the automaton's fused loop.
TEST(VecPlanGate, OnlyTheInterpreterRunsTheBatchPlan) {
  Query Fig01 =
      Query::doubleArray(0).select(lambda({xd()}, xd() * xd())).sum();
  CompiledQuery Interp = compileQuery(Fig01, vecOpts(true, "gate_interp"));
  EXPECT_TRUE(Interp.vectorized());
  for (bool Vectorize : {false, true})
    EXPECT_FALSE(compileQuery(Fig01, vecOpts(Vectorize, "gate_native",
                                             Backend::Native))
                     .vectorized())
        << "Vectorize " << (Vectorize ? "on" : "off");

  std::string Err;
  std::unique_ptr<jit::CompiledModule> M = jit::CompiledModule::compile(
      Interp.generatedSource(), Interp.program().Name, &Err);
  ASSERT_TRUE(M) << Err;
  CompiledQuery Twin = Interp.withNativeModule(std::move(M));
  EXPECT_EQ(Twin.backend(), Backend::Native);
  EXPECT_FALSE(Twin.vectorized());

  std::vector<double> Xs = randomDoubles(100, 17, -3, 3);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  EXPECT_EQ(Twin.run(B).scalarValue().asDouble(),
            compileQuery(Fig01, vecOpts(false, "gate_oracle"))
                .run(B)
                .scalarValue()
                .asDouble());
}

TEST(VecPlanGate, FallbackShapesStayScalarAndCorrect) {
  Catalog C(/*Seed=*/13, /*N=*/64);
  auto P = param("p", Type::vecTy());
  struct Case {
    const char *Name;
    Query Q;
  } Cases[] = {
      // Sink operator.
      {"toarray", Query::doubleArray(0).take(E(std::int64_t{8})).toArray()},
      // Early-exit aggregate.
      {"any", Query::doubleArray(0).where(lambda({xd()}, xd() > 0.0)).any()},
      // Vec-element (point) source.
      {"points", Query::pointArray(3).select(lambda({P}, len(P))).sum()},
      // Nested query.
      {"nested", Query::doubleArray(1)
                     .selectMany(xd(), Query::doubleArray(1).select(lambda(
                                           {param("v", Type::doubleTy())},
                                           param("v", Type::doubleTy()))))
                     .count()},
  };
  for (const Case &TC : Cases) {
    CompiledQuery CQ =
        compileQuery(TC.Q, vecOpts(true, std::string("gate_") + TC.Name));
    EXPECT_FALSE(CQ.vectorized()) << TC.Name;
    // The fallback still runs and still matches the scalar oracle.
    expectBatchedMatchesScalar(TC.Q, C.B,
                               std::string("gate_run_") + TC.Name);
  }
}

//===--------------------------------------------------------------------===//
// Trap fidelity: ST2001 fires from inside a batch, and ONLY when the
// scalar loop would have fired it
//===--------------------------------------------------------------------===//

namespace {

/// xi / (xi % 3) over {9, 7, 5}: 9 % 3 == 0, so lane 0 of the first
/// batch must trap. The chain is vectorizable, so the trap fires from
/// the batch kernel, not the scalar fallback.
struct VecTrapFixture {
  std::vector<std::int64_t> Data{9, 7, 5};
  Bindings B;
  Query Q = Query::int64Array(0)
                .select(lambda({xi()}, xi() / (xi() % E(std::int64_t{3}))))
                .sum();
  VecTrapFixture() {
    B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));
  }
};

} // namespace

TEST(VecTrapDeath, InterpBatchedDivByZeroTrapsWithST2001) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VecTrapFixture F;
  CompiledQuery CQ = compileQuery(F.Q, vecOpts(true, "vec_trap_interp"));
  ASSERT_TRUE(CQ.vectorized());
  EXPECT_DEATH(CQ.run(F.B), "ST2001.*integer division by zero");
}

// The same chain natively, Vectorize on: the automaton's loop runs and
// traps like the batch kernel.
TEST(VecTrapDeath, NativeDivByZeroTrapsWithST2001) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VecTrapFixture F;
  CompiledQuery CQ = compileQuery(
      F.Q, vecOpts(true, "vec_trap_native", Backend::Native));
  ASSERT_FALSE(CQ.vectorized());
  EXPECT_DEATH(CQ.run(F.B), "ST2001.*integer division by zero");
}

// A constant -1 divisor overflows on INT64_MIN: the native TU must trap
// like the interpreters instead of dividing with a bare `/`, with
// Vectorize on or off.
TEST(VecTrapDeath, NativeDivByMinusOneTrapsWithST2001) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::int64_t> Data{INT64_MIN};
  Bindings B;
  B.bindInt64Array(0, Data.data(), 1);
  Query Q = Query::int64Array(0)
                .select(lambda({xi()}, xi() / E(std::int64_t{-1})))
                .sum();
  for (bool Vectorize : {false, true}) {
    CompiledQuery CQ = compileQuery(
        Q, vecOpts(Vectorize, "vec_trap_neg1", Backend::Native));
    EXPECT_FALSE(CQ.vectorized());
    EXPECT_DEATH(CQ.run(B), "ST2001.*integer division by zero")
        << "Vectorize " << (Vectorize ? "on" : "off");
  }
}

// Lanes the scalar loop never evaluates must not trap in the batch
// path either — the batch kernels may not eagerly evaluate a division
// the element-at-a-time semantics would have skipped.
TEST(VecTrapFidelity, GuardedLanesDoNotTrap) {
  // A zero every fifth element, so every batch holds guarded lanes.
  std::vector<std::int64_t> Is(2100);
  for (std::size_t I = 0; I != Is.size(); ++I)
    Is[I] = static_cast<std::int64_t>(I % 5);
  Bindings B;
  B.bindInt64Array(0, Is.data(), static_cast<std::int64_t>(Is.size()));
  const E Hundred = E(std::int64_t{100});
  const E Zero = E(std::int64_t{0});

  // Where guard: zero lanes are filtered before the division runs.
  expectBatchedMatchesScalar(Query::int64Array(0)
                                 .where(lambda({xi()}, xi() != Zero))
                                 .select(lambda({xi()}, Hundred / xi()))
                                 .sum(),
                             B, "guard_where");
  // && short-circuit: the right operand is not evaluated on zero lanes.
  expectBatchedMatchesScalar(
      Query::int64Array(0)
          .where(lambda({xi()}, xi() != Zero && Hundred / xi() > Zero))
          .count(),
      B, "guard_and");
  // Cond: the division branch is not taken on zero lanes.
  expectBatchedMatchesScalar(
      Query::int64Array(0)
          .select(lambda({xi()}, cond(xi() != Zero, Hundred / xi(), Zero)))
          .sum(),
      B, "guard_cond");
}

TEST(VecTrapFidelity, LanesPastTakeBoundaryDoNotTrap) {
  // The trapping elements sit past the Take window / TakeWhile flip, so
  // the scalar loop never divides by them: inside the first batch, and
  // in the second batch behind a window that crosses the 1024 edge.
  std::vector<std::int64_t> Short{1, 2, 0, 0};
  std::vector<std::int64_t> Long(1100, 1);
  Long[1030] = Long[1031] = 0;
  const E Hundred = E(std::int64_t{100});
  for (const std::vector<std::int64_t> *Is : {&Short, &Long}) {
    Bindings B;
    B.bindInt64Array(0, Is->data(), static_cast<std::int64_t>(Is->size()));
    std::int64_t Window = Is == &Short ? 2 : 1030;
    std::string Tag = std::to_string(Is->size());
    expectBatchedMatchesScalar(Query::int64Array(0)
                                   .take(E(Window))
                                   .select(lambda({xi()}, Hundred / xi()))
                                   .sum(),
                               B, "boundary_take" + Tag);
    expectBatchedMatchesScalar(
        Query::int64Array(0)
            .takeWhile(lambda({xi()}, xi() < E(std::int64_t{10}) &&
                                          xi() > E(std::int64_t{0})))
            .select(lambda({xi()}, Hundred / xi()))
            .sum(),
        B, "boundary_takewhile" + Tag);
  }
}

//===--------------------------------------------------------------------===//
// Profile parity: per-operator counts identical to the scalar path
//===--------------------------------------------------------------------===//

TEST(VecProfile, BatchedCountsMatchScalar) {
  Query Q = Query::doubleArray(0)
                .where(lambda({xd()}, xd() > 0.0))
                .select(lambda({xd()}, xd() * xd()))
                .sum();
  std::vector<double> Xs = randomDoubles(333, 21, -50, 50);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  auto profiledRun = [&](bool Vectorize) {
    obs::ProfileStore::global().clear();
    CompileOptions O = vecOpts(Vectorize, Vectorize ? "prof_vec"
                                                    : "prof_scalar");
    O.Profile = true;
    CompiledQuery CQ = compileQuery(Q, O);
    EXPECT_EQ(CQ.vectorized(), Vectorize);
    CQ.run(B);
    auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
    EXPECT_TRUE(Snap.has_value());
    return *Snap;
  };

  obs::ProfileSnapshot Scalar = profiledRun(false);
  obs::ProfileSnapshot Batched = profiledRun(true);
  ASSERT_EQ(Scalar.Ops.size(), Batched.Ops.size());
  for (size_t I = 0; I != Scalar.Ops.size(); ++I) {
    EXPECT_EQ(Scalar.Ops[I].Label, Batched.Ops[I].Label) << "op " << I;
    EXPECT_EQ(Scalar.Ops[I].RowsIn, Batched.Ops[I].RowsIn)
        << Scalar.Ops[I].Label;
    EXPECT_EQ(Scalar.Ops[I].RowsOut, Batched.Ops[I].RowsOut)
        << Scalar.Ops[I].Label;
  }
}

//===--------------------------------------------------------------------===//
// Native backend: the generated TU is the automaton's fused loop
//===--------------------------------------------------------------------===//

TEST(VecNative, NativeRunsTheAutomatonLoop) {
  std::vector<double> Xs = randomDoubles(512, 31, -10, 10);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  Query Q = Query::doubleArray(0)
                .where(lambda({xd()}, xd() > -5.0))
                .select(lambda({xd()}, xd() * xd() + 1.0))
                .skip(E(std::int64_t{7}))
                .take(E(std::int64_t{400}))
                .sum();
  CompiledQuery Native =
      compileQuery(Q, vecOpts(true, "vec_native", Backend::Native));
  EXPECT_FALSE(Native.vectorized());
  // The compiled TU is the automaton's program printed, not the batch
  // loops (vbase_ is their cursor).
  EXPECT_EQ(Native.generatedSource(),
            cpptree::printProgram(Native.program()));
  EXPECT_EQ(Native.generatedSource().find("vbase_"), std::string::npos);
  double Scalar = compileQuery(Q, vecOpts(false, "vec_native_oracle"))
                      .run(B)
                      .scalarValue()
                      .asDouble();
  EXPECT_NEAR(Native.run(B).scalarValue().asDouble(), Scalar,
              1e-9 * std::max(1.0, std::abs(Scalar)));
}

//===--------------------------------------------------------------------===//
// Aggregate shapes
//===--------------------------------------------------------------------===//

TEST(VecAggregates, AllFoldShapesMatchScalar) {
  std::vector<double> Xs = randomDoubles(2500, 41, -100, 100);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  expectBatchedMatchesScalar(Query::doubleArray(0).sum(), B, "agg_sum");
  expectBatchedMatchesScalar(Query::doubleArray(0).min(), B, "agg_min");
  expectBatchedMatchesScalar(Query::doubleArray(0).max(), B, "agg_max");
  expectBatchedMatchesScalar(Query::doubleArray(0).count(), B, "agg_count");
  expectBatchedMatchesScalar(Query::doubleArray(0).average(), B, "agg_avg");
  auto A = param("a", Type::doubleTy());
  expectBatchedMatchesScalar(
      Query::doubleArray(0).aggregate(
          E(1.0), lambda({A, xd()}, A + abs(xd()) / 100.0),
          lambda({A}, A * 2.0)),
      B, "agg_fold");
  // Empty source: zero batches run, only the prologue and epilogue.
  Bindings Empty;
  Empty.bindDoubleArray(0, Xs.data(), 0);
  expectBatchedMatchesScalar(Query::doubleArray(0).sum(), Empty,
                             "agg_sum_empty");
  expectBatchedMatchesScalar(Query::doubleArray(0).count(), Empty,
                             "agg_count_empty");
}
