//===- tests/profile_test.cpp - Operator-level query profiling -*- C++ -*-===//
//
// Coverage for the obs::Profile subsystem end to end: per-operator
// rows-in/out against hand-computed expectations on the interpreter,
// differential agreement between the scalar interpreter, the batch
// executor and the native backend, plan-
// hash sharing across backends, morsel-parallel worker attribution,
// concurrent ProfileStore merging (in the TSan CI job), the profile-off
// zero-instrumentation path, the EXPLAIN ANALYZE / JSON / Prometheus
// renderers, histogram bucket-bound determinism and merge/percentile,
// and the serve wire `profile`/`metrics`/`stats` commands over a
// socketpair.
//
//===----------------------------------------------------------------------===//

#include "dryad/Dist.h"
#include "expr/Dsl.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "serve/Serve.h"
#include "serve/Wire.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

/// Compiles with profiling on.
CompileOptions profiled(Backend Exec, const std::string &Name) {
  CompileOptions O;
  O.Exec = Exec;
  O.Profile = true;
  O.Name = Name;
  return O;
}

/// The Figure 1 shape: doubleArray.select(x*x).sum().
Query fig01Query() {
  auto X = param("x", Type::doubleTy());
  return Query::doubleArray(0).select(lambda({X}, X * X)).sum();
}

/// A fig13-like filtered fold: where(x > 0).select(x*2).sum().
Query whereSelectSumQuery() {
  auto X = param("x", Type::doubleTy());
  return Query::doubleArray(0)
      .where(lambda({X}, X > 0.0))
      .select(lambda({X}, X * 2.0))
      .sum();
}

std::vector<double> ramp(std::size_t N) {
  std::vector<double> Out(N);
  // Alternate sign so Where(x > 0) keeps exactly the even indices' values
  // (index 0 maps to +1).
  for (std::size_t I = 0; I != N; ++I)
    Out[I] = (I % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(I + 1);
  return Out;
}

const obs::OpProfile *findOp(const obs::ProfileSnapshot &S,
                             const std::string &Label) {
  for (const obs::OpProfile &O : S.Ops)
    if (O.Label == Label)
      return &O;
  return nullptr;
}

} // namespace

//===--------------------------------------------------------------------===//
// Interpreter backend: hand-computed per-operator expectations
//===--------------------------------------------------------------------===//

TEST(ProfileInterp, Fig01PerOperatorCounts) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 100;
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  CompiledQuery CQ =
      compileQuery(fig01Query(), profiled(Backend::Interp, "fig01"));
  ASSERT_TRUE(CQ.profiled());
  ASSERT_NE(CQ.planHash(), 0u);
  double Want = 0;
  for (double X : Xs)
    Want += X * X;
  EXPECT_DOUBLE_EQ(CQ.run(B).scalarValue().asDouble(), Want);

  auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->Runs, 1u);
  EXPECT_EQ(Snap->Name, "fig01");
  EXPECT_EQ(Snap->Symbols, CQ.chain().symbols());

  const obs::OpProfile *Src = findOp(*Snap, "Src");
  const obs::OpProfile *Trans = findOp(*Snap, "Trans");
  const obs::OpProfile *Agg = findOp(*Snap, "Agg");
  const obs::OpProfile *Ret = findOp(*Snap, "Ret");
  ASSERT_TRUE(Src && Trans && Agg && Ret);

  // Src emits N rows (out-count only; a source consumes nothing).
  EXPECT_EQ(Src->RowsIn, 0u);
  EXPECT_EQ(Src->RowsOut, N);
  EXPECT_DOUBLE_EQ(Src->selectivity(), -1.0);
  // Select passes every row through: selectivity exactly 1.
  EXPECT_EQ(Trans->RowsIn, N);
  EXPECT_EQ(Trans->RowsOut, N);
  EXPECT_DOUBLE_EQ(Trans->selectivity(), 1.0);
  // The fold consumes (and survives) every row.
  EXPECT_EQ(Agg->RowsIn, N);
  EXPECT_EQ(Agg->RowsOut, N);
  // One scalar result row.
  EXPECT_EQ(Ret->RowsIn, 0u);
  EXPECT_EQ(Ret->RowsOut, 1u);
}

TEST(ProfileInterp, WhereObservedSelectivity) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 100;
  std::vector<double> Xs = ramp(N); // exactly N/2 positive
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  CompiledQuery CQ = compileQuery(whereSelectSumQuery(),
                                  profiled(Backend::Interp, "fig13"));
  CQ.run(B);

  auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
  ASSERT_TRUE(Snap.has_value());
  const obs::OpProfile *Where = findOp(*Snap, "Where");
  const obs::OpProfile *Trans = findOp(*Snap, "Trans");
  ASSERT_TRUE(Where && Trans);
  // The predicate sees all N rows and passes exactly half.
  EXPECT_EQ(Where->RowsIn, N);
  EXPECT_EQ(Where->RowsOut, N / 2);
  EXPECT_DOUBLE_EQ(Where->selectivity(), 0.5);
  // Downstream Trans only sees the survivors.
  EXPECT_EQ(Trans->RowsIn, N / 2);
  EXPECT_EQ(Trans->RowsOut, N / 2);
}

TEST(ProfileInterp, EarlyExitAggregateStopsCounting) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 100;
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  // any() short-circuits on the first element: downstream rows stop.
  CompiledQuery CQ = compileQuery(
      Query::doubleArray(0).any(), profiled(Backend::Interp, "any_q"));
  EXPECT_TRUE(CQ.run(B).scalarValue().asBool());

  auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
  ASSERT_TRUE(Snap.has_value());
  const obs::OpProfile *Agg = findOp(*Snap, "Agg");
  ASSERT_TRUE(Agg);
  // The fold consumed far fewer than N rows before breaking out.
  EXPECT_GE(Agg->RowsIn, 1u);
  EXPECT_LT(Agg->RowsIn, N);
}

//===--------------------------------------------------------------------===//
// Differential: the interp, native and morsel paths agree on rows
//===--------------------------------------------------------------------===//

namespace {

/// One operator's hand-computed rows in and out.
struct OpRows {
  const char *Label;
  std::uint64_t In, Out;
};

/// A profiled query, its input and the rows every backend must count.
struct CountCase {
  const char *Name;
  Query Q;
  const Bindings *B;
  bool Batched;             ///< Whether vec::planChain accepts the shape.
  std::vector<OpRows> Want; ///< In instrumentation order.
};

/// Runs each case once on the scalar interpreter, the batch executor
/// (where vec::planChain accepts the shape) and native, and checks every
/// op's rows in and out against the hand-computed values, and that the
/// results and plan hashes agree across backends.
void expectBackendsCount(const std::vector<CountCase> &Cases) {
  struct Exec {
    const char *Name;
    Backend Exec;
    bool Vectorize;
  };
  const Exec Backends[] = {{"the scalar interpreter", Backend::Interp, false},
                           {"the batch executor", Backend::Interp, true},
                           {"native", Backend::Native, false}};

  for (const CountCase &C : Cases) {
    std::optional<QueryResult> First;
    std::uint64_t Hash = 0;
    for (const Exec &E : Backends) {
      // The plans of one query share a plan hash by design, so profile
      // each backend against a cleared store.
      obs::ProfileStore::global().clear();
      CompileOptions O = profiled(E.Exec, C.Name);
      O.Vectorize = E.Vectorize;
      CompiledQuery CQ = compileQuery(C.Q, O);
      ASSERT_EQ(CQ.vectorized(), E.Vectorize && C.Batched)
          << C.Name << " on " << E.Name;
      if (E.Vectorize && !C.Batched)
        continue; // vec::planChain refuses the shape
      QueryResult R = CQ.run(*C.B);
      if (!First) {
        First = R;
        Hash = CQ.planHash();
      }
      EXPECT_EQ(R.rows(), First->rows()) << C.Name << " on " << E.Name;
      EXPECT_EQ(CQ.planHash(), Hash) << C.Name << " on " << E.Name;
      auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
      ASSERT_TRUE(Snap.has_value()) << C.Name << " on " << E.Name;
      ASSERT_EQ(Snap->Ops.size(), C.Want.size()) << C.Name << " on " << E.Name;
      for (std::size_t K = 0; K != C.Want.size(); ++K) {
        const obs::OpProfile &Got = Snap->Ops[K];
        const OpRows &Want = C.Want[K];
        EXPECT_EQ(Got.Label, Want.Label) << C.Name << " on " << E.Name;
        EXPECT_EQ(Got.RowsIn, Want.In)
            << C.Name << " on " << E.Name << ": " << Want.Label;
        EXPECT_EQ(Got.RowsOut, Want.Out)
            << C.Name << " on " << E.Name << ": " << Want.Label;
      }
    }
  }
  obs::ProfileStore::global().clear();
}

} // namespace

TEST(ProfileDifferential, BackendsAgreeOnRowCounts) {
  const std::uint64_t N = 1000, Half = N / 2;
  std::vector<double> Xs = ramp(N); // exactly N/2 positive
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(N));
  std::vector<std::int64_t> Is(N);
  std::iota(Is.begin(), Is.end(), std::int64_t{0}); // exactly N/2 even
  Bindings BI;
  BI.bindInt64Array(0, Is.data(), static_cast<std::int64_t>(N));

  auto I = param("i", Type::int64Ty());
  auto X = param("x", Type::doubleTy());
  expectBackendsCount({
      // A guarded double sum: the Where guards the sum, and the Trans
      // and Agg after it count the guard.
      {"where_select_sum",
       whereSelectSumQuery(),
       &B,
       true,
       {{"Src", 0, N},
        {"Where", N, Half},
        {"Trans", Half, Half},
        {"Agg", Half, Half},
        {"Ret", 0, 1}}},
      // Clash of the Lambdas' sumOfSquaresEven: an int64 guarded sum with
      // a Trans between the guard and the Sum.
      {"int64_guarded_sum",
       Query::int64Array(0)
           .where(lambda({I}, I % E(std::int64_t{2}) == E(std::int64_t{0})))
           .select(lambda({I}, I * I))
           .sum(),
       &BI,
       true,
       {{"Src", 0, N},
        {"Where", N, Half},
        {"Trans", Half, Half},
        {"Agg", Half, Half},
        {"Ret", 0, 1}}},
      // The ToArray reuses the sort buffer and the host adopts it: both
      // count the sink's length.
      {"orderby_toarray",
       Query::doubleArray(0).orderBy(lambda({X}, X)).toArray(),
       &B,
       false,
       {{"Src", 0, N}, {"OrderBy", N, N}, {"ToArray", N, N}, {"Ret", 0, N}}},
  });
}

// An exhausted Take/TakeWhile that ends the loop (DESIGN.md §5) stops
// every count at the breaking element: Src and the ops before the break
// count it, the breaking op counts it in but not out, and nothing after
// sees it. The batch executor stops there too, wherever the element
// falls against its 1024-lane batches.
TEST(ProfileDifferential, EarlyExitCountsStopAtTheBreakingElement) {
  const std::uint64_t N = 3000;
  std::vector<double> Asc(N);
  std::iota(Asc.begin(), Asc.end(), 0.0);
  Bindings BA;
  BA.bindDoubleArray(0, Asc.data(), static_cast<std::int64_t>(N));
  std::vector<double> Xs = ramp(N); // the even indices are positive
  Bindings BR;
  BR.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(N));
  std::vector<std::int64_t> Is(N);
  std::iota(Is.begin(), Is.end(), std::int64_t{1});
  Bindings BI;
  BI.bindInt64Array(0, Is.data(), static_cast<std::int64_t>(N));

  auto I = param("i", Type::int64Ty());
  auto X = param("x", Type::doubleTy());
  auto takeSum = [](std::int64_t K) {
    return Query::doubleArray(0).take(E(K)).sum();
  };
  auto takeRows = [](std::uint64_t K) -> std::vector<OpRows> {
    return {{"Src", 0, K + 1}, {"Take", K + 1, K}, {"Agg", K, K}, {"Ret", 0, 1}};
  };
  expectBackendsCount({
      // The breaking element is the last lane of the first batch, the
      // first lane of the second, or either side of them.
      {"take_1022", takeSum(1022), &BA, true, takeRows(1022)},
      {"take_1023", takeSum(1023), &BA, true, takeRows(1023)},
      {"take_1024", takeSum(1024), &BA, true, takeRows(1024)},
      {"take_1025", takeSum(1025), &BA, true, takeRows(1025)},
      // Past the end: no element finds the Take exhausted.
      {"take_past_end",
       takeSum(N + 7),
       &BA,
       true,
       {{"Src", 0, N}, {"Take", N, N}, {"Agg", N, N}, {"Ret", 0, 1}}},
      {"take_0", takeSum(0), &BA, true, takeRows(0)},
      // Breaks mid-batch at x = 1500, in the second batch.
      {"take_while_breaks",
       Query::doubleArray(0).takeWhile(lambda({X}, X < 1500.0)).sum(),
       &BA,
       true,
       {{"Src", 0, 1501},
        {"TakeWhile", 1501, 1500},
        {"Agg", 1500, 1500},
        {"Ret", 0, 1}}},
      {"take_while_never_breaks",
       Query::doubleArray(0).takeWhile(lambda({X}, X < 1e9)).sum(),
       &BA,
       true,
       {{"Src", 0, N}, {"TakeWhile", N, N}, {"Agg", N, N}, {"Ret", 0, 1}}},
      {"skip_take",
       Query::doubleArray(0).skip(E(std::int64_t{1000})).take(
           E(std::int64_t{100})).sum(),
       &BA,
       true,
       {{"Src", 0, 1101},
        {"Skip", 1101, 101},
        {"Take", 101, 100},
        {"Agg", 100, 100},
        {"Ret", 0, 1}}},
      // A sparse selection: the 601st positive element, index 1200,
      // breaks the Take in the second batch.
      {"where_take",
       Query::doubleArray(0).where(lambda({X}, X > 0.0)).take(
           E(std::int64_t{600})).sum(),
       &BR,
       true,
       {{"Src", 0, 1201},
        {"Where", 1201, 601},
        {"Take", 601, 600},
        {"Agg", 600, 600},
        {"Ret", 0, 1}}},
      // The division can trap, so the Take keeps `continue` and every
      // element is counted.
      {"trapping_select_take",
       Query::int64Array(0)
           .select(lambda({I}, E(std::int64_t{1000000}) / I))
           .take(E(std::int64_t{10}))
           .sum(),
       &BI,
       true,
       {{"Src", 0, N},
        {"Trans", N, N},
        {"Take", N, 10},
        {"Agg", 10, 10},
        {"Ret", 0, 1}}},
      // The break ends the source loop; the sort runs on what it kept.
      {"take_orderby",
       Query::doubleArray(0)
           .take(E(std::int64_t{100}))
           .orderBy(lambda({X}, -X))
           .toArray(),
       &BA,
       false,
       {{"Src", 0, 101},
        {"Take", 101, 100},
        {"OrderBy", 100, 100},
        {"ToArray", 100, 100},
        {"Ret", 0, 100}}},
  });
}

TEST(ProfileDifferential, InterpAndNativeMergeIntoOneEntry) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 64;
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  CompiledQuery Interp =
      compileQuery(fig01Query(), profiled(Backend::Interp, "shared"));
  CompiledQuery Native =
      compileQuery(fig01Query(), profiled(Backend::Native, "shared"));
  ASSERT_EQ(Interp.planHash(), Native.planHash());

  Interp.run(B);
  Native.run(B);
  auto Snap = obs::ProfileStore::global().snapshot(Interp.planHash());
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->Runs, 2u);
  const obs::OpProfile *Src = findOp(*Snap, "Src");
  ASSERT_TRUE(Src);
  EXPECT_EQ(Src->RowsOut, 2 * N); // both runs merged
}

//===--------------------------------------------------------------------===//
// Morsel-parallel: per-worker attribution
//===--------------------------------------------------------------------===//

TEST(ProfileMorsel, ParallelRunAttributesWorkersAndCountsAllRows) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 100000; // far above MorselOptions::InlineBelow
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));

  dryad::DistOptions Opts;
  Opts.Exec = Backend::Interp; // profile plumbing is backend-agnostic
  Opts.Profile = true;
  Opts.Name = "morsel_profiled";
  Opts.Morsels.MaxMorsel = 4096; // force several morsels
  dryad::DistributedQuery DQ =
      dryad::DistributedQuery::compile(fig01Query(), Opts);
  ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
  ASSERT_NE(DQ.vertexPlanHash(), 0u);

  dryad::ThreadPool Pool(4);
  double Want = 0;
  for (double X : Xs)
    Want += X * X;
  double Got = DQ.runParallel(Pool, B).scalarValue().asDouble();
  EXPECT_NEAR(Got, Want, std::abs(Want) * 1e-9);

  auto Snap = obs::ProfileStore::global().snapshot(DQ.vertexPlanHash());
  ASSERT_TRUE(Snap.has_value());
  // One merge per PARTICIPATING WORKER (each worker's QueryRunner
  // accumulates its morsel deltas locally and flushes once at the
  // join), so Runs is between 1 (a single worker won every morsel —
  // normal on a loaded single-core machine) and the pool size.
  EXPECT_GE(Snap->Runs, 1u);
  EXPECT_LE(Snap->Runs, Pool.workerCount());
  // Every source row was seen exactly once across all morsels.
  const obs::OpProfile *Src = findOp(*Snap, "Src");
  ASSERT_TRUE(Src);
  EXPECT_EQ(Src->RowsOut, N);
  // Worker attribution is complete: per-worker merges sum to Runs, and
  // ids stay inside the pool.
  ASSERT_FALSE(Snap->WorkerMerges.empty());
  std::uint64_t Attributed = 0;
  for (const auto &[W, Merges] : Snap->WorkerMerges) {
    EXPECT_LT(W, Pool.workerCount());
    Attributed += Merges;
  }
  EXPECT_EQ(Attributed, Snap->Runs);
}

//===--------------------------------------------------------------------===//
// Store: concurrent merges (TSan job) and snapshots
//===--------------------------------------------------------------------===//

TEST(ProfileStore, ConcurrentMergesLoseNothing) {
  obs::ProfileStore Store; // private store: no cross-test interference
  obs::PlanDesc D;
  D.Name = "concurrent";
  D.Ops = {{"Src", 0}, {"Trans", 1}};
  const std::uint64_t Hash = 0xfeedu;
  D.Anchor = Hash;
  Store.ensure(Hash, D);

  constexpr unsigned Threads = 4;
  constexpr std::uint64_t Merges = 2000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&Store, T] {
      obs::ProfileWorkerScope Scope(T);
      obs::ProfileSink S(2);
      S.Counts = {0, 10, 10, 10};
      for (std::uint64_t I = 0; I != Merges; ++I)
        Store.merge(Hash, S);
    });
  for (std::thread &T : Ts)
    T.join();

  auto Snap = Store.snapshot(Hash);
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->Runs, Threads * Merges);
  ASSERT_EQ(Snap->Ops.size(), 2u);
  EXPECT_EQ(Snap->Ops[0].RowsOut, Threads * Merges * 10);
  EXPECT_EQ(Snap->Ops[1].RowsIn, Threads * Merges * 10);
  ASSERT_EQ(Snap->WorkerMerges.size(), Threads);
  for (const auto &[W, M] : Snap->WorkerMerges)
    EXPECT_EQ(M, Merges) << "worker " << W;
}

TEST(ProfileStore, UnknownHashMergeIsANoOp) {
  obs::ProfileStore Store;
  obs::ProfileSink S(1);
  S.Counts = {1, 1};
  Store.merge(0xdeadbeefu, S); // must not crash or register anything
  EXPECT_EQ(Store.size(), 0u);
  EXPECT_FALSE(Store.snapshot(0xdeadbeefu).has_value());
}

//===--------------------------------------------------------------------===//
// Anchor resolution: versions of one query, siblings, permuted preds
//===--------------------------------------------------------------------===//

namespace {

/// Registers a Src -> Where -> Ret plan with the given anchor (its own
/// hash when it is the un-rewritten plan) and merges \p Runs runs of 10-rows-in / 4-rows-out through
/// it.
void registerAndRun(obs::ProfileStore &Store, std::uint64_t Hash,
                    std::uint64_t Anchor, std::uint64_t Runs,
                    std::uint64_t OpId = 0x77) {
  obs::PlanDesc D;
  D.Name = "prov";
  D.Ops = {{"Src", 0}, {"Where", 1, OpId}, {"Ret", 1}};
  D.Anchor = Anchor;
  Store.ensure(Hash, D);
  obs::ProfileSink S(3);
  S.Counts = {0, 10, 10, 4, 4, 4};
  for (std::uint64_t I = 0; I != Runs; ++I)
    Store.merge(Hash, S);
}

} // namespace

TEST(ProfileResolve, MultiHopProvenanceChainFoldsEveryVersion) {
  // v1 is the un-rewritten plan, the anchor of the query; v2 and v3 are
  // rewrites of it (say a static and a feedback order), and every
  // version accumulated runs. Another query's plan shares nothing.
  obs::ProfileStore Store;
  registerAndRun(Store, /*Hash=*/0x10, /*Anchor=*/0x10, /*Runs=*/2);
  registerAndRun(Store, 0x20, 0x10, 1);
  registerAndRun(Store, 0x30, 0x10, 1);
  registerAndRun(Store, 0x40, 0x40, 5);

  auto Snap = Store.snapshotResolved(0x30);
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->PlanHash, 0x30u);
  EXPECT_EQ(Snap->Anchor, 0x10u);
  EXPECT_EQ(Snap->Runs, 4u) << "v3's own run plus v1+v2 history";
  EXPECT_EQ(Snap->PriorRuns, 3u);
  EXPECT_EQ(Snap->ResolvedFrom, 0x10u);
  // Same operator shape across versions: per-op counters folded too.
  ASSERT_EQ(Snap->Ops.size(), 3u);
  EXPECT_EQ(Snap->Ops[1].RowsIn, 40u);
  EXPECT_EQ(Snap->Ops[1].RowsOut, 16u);

  // Resolving the anchor itself sees every version's runs as well.
  auto Root = Store.snapshotResolved(0x10);
  ASSERT_TRUE(Root.has_value());
  EXPECT_EQ(Root->Runs, 4u);
  EXPECT_EQ(Root->PriorRuns, 2u);

  // The other query keeps its own runs and lends none.
  auto Other = Store.snapshotResolved(0x40);
  ASSERT_TRUE(Other.has_value());
  EXPECT_EQ(Other->Runs, 5u);
  EXPECT_EQ(Other->PriorRuns, 0u);
  EXPECT_EQ(Other->ResolvedFrom, 0u);
}

TEST(ProfileResolve, ProvenanceSiblingsFoldThroughTheSharedAnchor) {
  // Two rewrite products of the same (never-registered) original: the
  // static v1 and a feedback v2 both carry the original's hash as their
  // anchor. A consumer holding only the anchor hash — the adaptive
  // planner — must see the union of both versions' history.
  obs::ProfileStore Store;
  const std::uint64_t Anchor = 0xA0;
  registerAndRun(Store, 0x21, Anchor, 3);
  registerAndRun(Store, 0x22, Anchor, 2);

  auto Snap = Store.snapshotResolved(Anchor);
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->PlanHash, Anchor) << "re-keyed under the requested hash";
  EXPECT_EQ(Snap->Runs, 5u);
  EXPECT_EQ(Snap->PriorRuns, 5u) << "every run came from a relative";
  EXPECT_EQ(Snap->Ops[1].RowsIn, 50u);

  // And one sibling resolves through the shared anchor to the other.
  auto Sib = Store.snapshotResolved(0x21);
  ASSERT_TRUE(Sib.has_value());
  EXPECT_EQ(Sib->Runs, 5u);
  EXPECT_EQ(Sib->PriorRuns, 2u);
  EXPECT_EQ(Sib->ResolvedFrom, 0x22u);
}

TEST(ProfileResolve, PermutedPredicatesFoldByOpIdNotIndex) {
  // v2 = v1 with the two Where preds swapped (what a feedback reorder
  // produces). Index-wise folding would attribute pred A's rows to pred
  // B; the fold must match on (Label, OpId) instead.
  obs::ProfileStore Store;
  const std::uint64_t IdA = 0xAA, IdB = 0xBB;
  obs::PlanDesc V1;
  V1.Name = "v1";
  V1.Ops = {{"Src", 0}, {"Where", 1, IdA}, {"Where", 1, IdB}, {"Ret", 1}};
  V1.Anchor = 0x51;
  Store.ensure(0x51, V1);
  obs::PlanDesc V2;
  V2.Name = "v2";
  V2.Ops = {{"Src", 0}, {"Where", 1, IdB}, {"Where", 1, IdA}, {"Ret", 1}};
  V2.Anchor = 0x51;
  Store.ensure(0x52, V2);

  // v1: A sees 100 -> 90, B sees 90 -> 30.
  obs::ProfileSink S1(4);
  S1.Counts = {0, 100, 100, 90, 90, 30, 30, 30};
  Store.merge(0x51, S1);
  // v2 (swapped): B sees 100 -> 33, A sees 33 -> 30.
  obs::ProfileSink S2(4);
  S2.Counts = {0, 100, 100, 33, 33, 30, 30, 30};
  Store.merge(0x52, S2);

  auto Snap = Store.snapshotResolved(0x51);
  ASSERT_TRUE(Snap.has_value());
  EXPECT_EQ(Snap->Runs, 2u);
  // Pred A folded A-with-A: 100+33 in, 90+30 out.
  EXPECT_EQ(Snap->Ops[1].OpId, IdA);
  EXPECT_EQ(Snap->Ops[1].RowsIn, 133u);
  EXPECT_EQ(Snap->Ops[1].RowsOut, 120u);
  // Pred B folded B-with-B: 90+100 in, 30+33 out.
  EXPECT_EQ(Snap->Ops[2].OpId, IdB);
  EXPECT_EQ(Snap->Ops[2].RowsIn, 190u);
  EXPECT_EQ(Snap->Ops[2].RowsOut, 63u);
}

//===--------------------------------------------------------------------===//
// Profile off: zero instrumentation in the generated plan
//===--------------------------------------------------------------------===//

TEST(ProfileOff, UnprofiledPlansCarryNoHooks) {
  CompileOptions O;
  O.Exec = Backend::Interp;
  O.Profile = false;
  O.Name = "unprofiled";
  CompiledQuery CQ = compileQuery(fig01Query(), O);
  EXPECT_FALSE(CQ.profiled());
  EXPECT_TRUE(CQ.program().ProfOps.empty());
  // The generated source has no trace of the counter arrays: the off
  // path costs nothing, not even dead stores.
  EXPECT_EQ(CQ.generatedSource().find("prof_c_"), std::string::npos);
  EXPECT_NE(CQ.explainAnalyze().find("without profiling"),
            std::string::npos);
}

TEST(ProfileOff, ProfiledAndUnprofiledAreDistinctCacheEntries) {
  QueryCache Cache;
  CompileOptions Off;
  Off.Exec = Backend::Interp;
  Off.Profile = false;
  CompileOptions On = Off;
  On.Profile = true;
  CompiledQuery A = Cache.getOrCompile(fig01Query(), Off);
  CompiledQuery C = Cache.getOrCompile(fig01Query(), On);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_FALSE(A.profiled());
  EXPECT_TRUE(C.profiled());
  // And each options shape hits its own entry on re-request.
  Cache.getOrCompile(fig01Query(), Off);
  Cache.getOrCompile(fig01Query(), On);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.hits(), 2u);
}

//===--------------------------------------------------------------------===//
// Reports: EXPLAIN ANALYZE, JSON, Prometheus
//===--------------------------------------------------------------------===//

TEST(ProfileReport, ExplainAnalyzeRendersTheOperatorTree) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 200;
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  CompiledQuery CQ = compileQuery(whereSelectSumQuery(),
                                  profiled(Backend::Interp, "report_q"));

  // Before any run: a header with 0 runs, no invented numbers.
  EXPECT_NE(CQ.explainAnalyze().find("0 runs"), std::string::npos);

  CQ.run(B);
  std::string Report = CQ.explainAnalyze();
  EXPECT_NE(Report.find("EXPLAIN ANALYZE report_q"), std::string::npos);
  EXPECT_NE(Report.find("-> Where"), std::string::npos);
  EXPECT_NE(Report.find("rows_in=200 rows_out=100"), std::string::npos);
  EXPECT_NE(Report.find("sel=0.5000"), std::string::npos);
  EXPECT_NE(Report.find("1 run]"), std::string::npos);
  EXPECT_NE(Report.find("quil: "), std::string::npos);
  // Counts only: an operator line ends with its selectivity.
  EXPECT_NE(Report.find("sel=0.5000\n"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("time="), std::string::npos) << Report;
}

TEST(ProfileReport, JsonAndPrometheusCarryTheCounts) {
  obs::ProfileStore::global().clear();
  const std::size_t N = 50;
  std::vector<double> Xs = ramp(N);
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  CompiledQuery CQ =
      compileQuery(fig01Query(), profiled(Backend::Interp, "json_q"));
  CQ.run(B);

  auto Snap = obs::ProfileStore::global().snapshot(CQ.planHash());
  ASSERT_TRUE(Snap.has_value());
  std::string Json = obs::profileJson(*Snap);
  EXPECT_NE(Json.find("\"name\":\"json_q\""), std::string::npos);
  EXPECT_NE(Json.find("\"runs\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"op\":\"Trans\""), std::string::npos);
  EXPECT_NE(Json.find("\"rows_in\":50"), std::string::npos);
  EXPECT_EQ(Json.find('\n'), std::string::npos) << "must be one line";
  EXPECT_EQ(Json.find("nanos"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("time_pct"), std::string::npos) << Json;

  std::string Prom = obs::profilesPrometheus();
  EXPECT_NE(Prom.find("# TYPE steno_profile_runs_total counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("name=\"json_q\""), std::string::npos);
  EXPECT_NE(Prom.find("dir=\"out\""), std::string::npos);
  // The profile series are runs and rows, nothing timed.
  std::istringstream Lines(Prom);
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.rfind("steno_profile_", 0) == 0) {
      EXPECT_TRUE(Line.rfind("steno_profile_runs_total{", 0) == 0 ||
                  Line.rfind("steno_profile_op_rows_total{", 0) == 0)
          << Line;
    }
  }
  // The full export includes the metrics registry too.
  std::string All = obs::exportPrometheus();
  EXPECT_NE(All.find("steno_run_count"), std::string::npos);
  EXPECT_NE(All.find("steno_profile_op_rows_total"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Histogram: bound determinism, merge, percentiles
//===--------------------------------------------------------------------===//

TEST(HistogramBounds, ValuesOnABoundLandDeterministically) {
  obs::Histogram H({10.0, 20.0});
  // (prev, bound] convention: exactly-10 lands in the le=10 bucket.
  H.observe(10.0);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 0u);
  // Just above the bound lands in the next bucket.
  H.observe(10.0000001);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  // Above the last bound: the implicit +inf bucket.
  H.observe(25.0);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.count(), 3u);
}

TEST(HistogramBounds, MergeFoldsPerWorkerHistograms) {
  obs::Histogram A({1.0, 10.0, 100.0});
  obs::Histogram B({1.0, 10.0, 100.0});
  A.observe(0.5);
  A.observe(5.0);
  B.observe(5.0);
  B.observe(50.0);
  B.observe(500.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 5u);
  EXPECT_EQ(A.bucketCount(0), 1u);
  EXPECT_EQ(A.bucketCount(1), 2u);
  EXPECT_EQ(A.bucketCount(2), 1u);
  EXPECT_EQ(A.bucketCount(3), 1u);
  EXPECT_DOUBLE_EQ(A.sum(), 560.5);
}

TEST(HistogramBounds, PercentileInterpolatesInsideTheBucket) {
  obs::Histogram H({10.0, 20.0});
  for (int I = 0; I != 100; ++I)
    H.observe(5.0); // all in (0, 10]
  // Linear interpolation inside the crossing bucket from its lower edge.
  EXPECT_DOUBLE_EQ(H.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(H.percentile(1.0), 10.0);
  // Empty histogram: defined answer, no division by zero.
  obs::Histogram E({10.0});
  EXPECT_DOUBLE_EQ(E.percentile(0.5), 0.0);
  // +inf observations clamp to the last finite bound.
  obs::Histogram F({10.0, 20.0});
  F.observe(1e9);
  EXPECT_DOUBLE_EQ(F.percentile(0.99), 20.0);
}

//===--------------------------------------------------------------------===//
// Serve: profile/metrics/stats over the wire
//===--------------------------------------------------------------------===//

TEST(ProfileServe, WireProfileMetricsAndStatsRoundTrip) {
  obs::ProfileStore::global().clear();
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  serve::ServeOptions Opts;
  Opts.BackgroundRecompile = false; // deterministic: interp plan only
  Opts.Profile = true;
  serve::QueryService Svc(Opts);
  std::thread Server(
      [&] { serve::serveConnection(serve::sessionFrontend(Svc), Fds[0]); });
  serve::WireClient Client(Fds[1]);

  const std::string Spec = "steno-fuzz v1\n"
                           "source 0 double 32 uniform 3\n"
                           "op select square 0\n"
                           "op agg sum 0\n"
                           "end\n";
  std::uint64_t Handle = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(Spec, Handle, Err));
  ASSERT_EQ(Err, "");

  // The plan registers at prepare (compile) time: profile is answerable
  // before the first exec, with zero runs.
  std::string Json;
  ASSERT_TRUE(Client.profile(Handle, Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"runs\":0"), std::string::npos);

  serve::Response R;
  ASSERT_TRUE(Client.exec(Handle, 5000, 0, R));
  ASSERT_EQ(R.St, serve::Status::Ok) << R.Message;
  // The decoded sum is the reference's sum of squares over the spec's
  // source.
  fuzz::QuerySpec Parsed;
  fuzz::BuiltQuery Built;
  ASSERT_TRUE(fuzz::parseSpec(Spec, Parsed, &Err)) << Err;
  ASSERT_TRUE(fuzz::buildSpec(Parsed, Built, &Err)) << Err;
  ASSERT_TRUE(R.Result.isScalar());
  double Want = runReference(Built.Q, Built.B).scalarValue().asDouble();
  EXPECT_NEAR(R.Result.scalarValue().asDouble(), Want,
              1e-12 * std::abs(Want));

  ASSERT_TRUE(Client.profile(Handle, Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"runs\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"op\":\"Trans\""), std::string::npos);
  EXPECT_NE(Json.find("\"rows_in\":32"), std::string::npos);

  // Unknown handle: an error frame, not a dropped connection.
  EXPECT_FALSE(Client.profile(77, Json, &Err));
  EXPECT_NE(Err.find("unknown handle"), std::string::npos);

  // stats carries the latency percentile block.
  std::string Stats;
  ASSERT_TRUE(Client.stats(Stats));
  EXPECT_NE(Stats.find("\"latency_us\":{\"p50\":"), std::string::npos);
  EXPECT_NE(Stats.find("\"p99\":"), std::string::npos);

  // metrics dumps Prometheus text including the profile series.
  std::string Prom;
  ASSERT_TRUE(Client.metrics(Prom));
  EXPECT_NE(Prom.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(Prom.find("steno_profile_runs_total"), std::string::npos);

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ProfileServe, UnprofiledServiceAnswersProfileWithAnError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  serve::ServeOptions Opts;
  Opts.BackgroundRecompile = false;
  Opts.Profile = false;
  serve::QueryService Svc(Opts);
  std::thread Server(
      [&] { serve::serveConnection(serve::sessionFrontend(Svc), Fds[0]); });
  serve::WireClient Client(Fds[1]);

  const std::string Spec = "steno-fuzz v1\n"
                           "source 0 double 8 uniform 5\n"
                           "op agg sum 0\n"
                           "end\n";
  std::uint64_t Handle = 99;
  std::string Err;
  ASSERT_TRUE(Client.prepare(Spec, Handle, Err));
  ASSERT_EQ(Err, "");
  std::string Json;
  EXPECT_FALSE(Client.profile(Handle, Json, &Err));
  EXPECT_NE(Err.find("without profiling"), std::string::npos);

  Client.quit();
  Server.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}
