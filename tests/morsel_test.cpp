//===- tests/morsel_test.cpp - Morsel scheduler tests ----------*- C++ -*-===//
//
// Covers the morsel scheduler at two layers: morselFor's exactly-once,
// ordering and sharing contracts (including the skewed-head stress that
// the TSan CI job runs), and the morselized DistributedQuery::runParallel
// path against the sequential reference for every combine kind.
//
//===----------------------------------------------------------------------===//

#include "QueryTestUtil.h"
#include "dryad/Dist.h"
#include "dryad/Morsel.h"
#include "dryad/ThreadPool.h"
#include "plinq/Plinq.h"
#include "steno/RefExec.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

using namespace steno;
using namespace steno::dryad;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {
E x() { return param("x", Type::doubleTy()); }
} // namespace

//===--------------------------------------------------------------------===//
// morselFor
//===--------------------------------------------------------------------===//

namespace {

/// Tiny-morsel options: maximum scheduling churn, guaranteed multi-morsel
/// dispatch even for small test inputs.
MorselOptions tinyMorsels() {
  MorselOptions O;
  O.MinMorsel = 8;
  O.MaxMorsel = 32;
  O.InlineBelow = 0; // never short-circuit; we want the full scheduler
  return O;
}

} // namespace

TEST(MorselFor, CoversEveryElementExactlyOnce) {
  const std::size_t N = 50000;
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(N);
  MorselStats S = morselFor(Pool, N, tinyMorsels(),
                            [&Hits](std::size_t B, std::size_t E, unsigned) {
                              for (std::size_t I = B; I != E; ++I)
                                Hits[I].fetch_add(1,
                                                  std::memory_order_relaxed);
                            });
  for (std::size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "element " << I;
  EXPECT_GT(S.Morsels, Pool.workerCount())
      << "tiny morsels must dispatch more than one range per worker";
}

TEST(MorselFor, RangesAreContiguousAndWorkerIdsDense) {
  const std::size_t N = 10000;
  ThreadPool Pool(3);
  std::atomic<std::size_t> Total{0};
  std::atomic<bool> BadWorker{false};
  unsigned Workers = Pool.workerCount();
  morselFor(Pool, N, tinyMorsels(),
            [&](std::size_t B, std::size_t E, unsigned W) {
              if (W >= Workers)
                BadWorker.store(true);
              if (E > B)
                Total.fetch_add(E - B);
            });
  EXPECT_EQ(Total.load(), N);
  EXPECT_FALSE(BadWorker.load());
}

TEST(MorselFor, EmptyInputNeverInvokesBody) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  MorselStats S = morselFor(Pool, 0, MorselOptions(),
                            [&Calls](std::size_t, std::size_t, unsigned) {
                              ++Calls;
                            });
  EXPECT_EQ(Calls.load(), 0) << "Count==0 pays no fan-out at all";
  EXPECT_EQ(S.Morsels, 0u);
}

TEST(MorselFor, SmallInputRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  MorselOptions O; // default InlineBelow = 2048
  MorselStats S = morselFor(Pool, 100, O,
                            [&Calls](std::size_t B, std::size_t E,
                                     unsigned W) {
                              ++Calls;
                              EXPECT_EQ(B, 0u);
                              EXPECT_EQ(E, 100u);
                              EXPECT_EQ(W, 0u);
                            });
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_TRUE(S.RanInline);
}

TEST(MorselFor, SkewedHeadIsShared) {
  // The first eighth of the input is pathologically slow. Whichever
  // workers are free claim the next morsel, so the heavy head must not
  // be left to one worker. (TSan CI target: the workers race on the
  // claim cursor on purpose.)
  const std::size_t N = 4096;
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(N);
  std::atomic<unsigned> HeadWorkers{0};
  morselFor(Pool, N, tinyMorsels(),
            [&](std::size_t B, std::size_t E, unsigned W) {
              for (std::size_t I = B; I != E; ++I) {
                if (I < N / 8) { // heavy head: ~50us per element
                  HeadWorkers.fetch_or(1u << W, std::memory_order_relaxed);
                  std::this_thread::sleep_for(std::chrono::microseconds(50));
                }
                Hits[I].fetch_add(1, std::memory_order_relaxed);
              }
            });
  for (std::size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "element " << I;
  EXPECT_GE(std::popcount(HeadWorkers.load()), 2)
      << "the heavy head must be shared by at least two workers";
}

TEST(MorselFor, SmallCostlyInputReachesSeveralWorkers) {
  // 4096 elements is one first claim of 4096; only the even-share cap
  // (4096 / 4 workers) leaves work for the other workers. Each call
  // sleeps long enough for them to start.
  ThreadPool Pool(4);
  std::atomic<unsigned> Workers{0};
  std::atomic<std::size_t> Total{0};
  MorselStats S = morselFor(
      Pool, 4096, MorselOptions(),
      [&](std::size_t B, std::size_t E, unsigned W) {
        Workers.fetch_or(1u << W, std::memory_order_relaxed);
        Total.fetch_add(E - B, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
  EXPECT_FALSE(S.RanInline);
  EXPECT_EQ(Total.load(), 4096u);
  EXPECT_GE(std::popcount(Workers.load()), 2)
      << "a small, costly input must reach more than one worker";
}

TEST(MorselFor, HugeCountWindows) {
  // Counts past 2^32 are plain size_t claims; use a body cheap enough to
  // make 3 * 2^31 elements feasible (the body sees ranges, not
  // elements).
  const std::size_t Window = std::size_t(1) << 31;
  const std::size_t N = 3 * Window + 12345;
  ThreadPool Pool(2);
  MorselOptions O;
  O.MaxMorsel = std::size_t(1) << 17;
  std::atomic<std::uint64_t> Total{0};
  std::atomic<std::uint64_t> MaxEnd{0};
  morselFor(Pool, N, O,
            [&](std::size_t B, std::size_t E, unsigned) {
              Total.fetch_add(E - B, std::memory_order_relaxed);
              std::uint64_t Prev = MaxEnd.load(std::memory_order_relaxed);
              while (
                  Prev < E &&
                  !MaxEnd.compare_exchange_weak(Prev, E,
                                                std::memory_order_relaxed))
                ;
            });
  EXPECT_EQ(Total.load(), N);
  EXPECT_EQ(MaxEnd.load(), N) << "offsets must span the full index space";
}

//===--------------------------------------------------------------------===//
// Determinism: AsOrdered reassembly however the claims interleave
//===--------------------------------------------------------------------===//

TEST(MorselOrder, ToVectorMatchesSequentialUnderTinyMorsels) {
  std::vector<double> Xs(9973);
  support::SplitMix64 Rng(21);
  for (double &V : Xs)
    V = Rng.nextDouble(-100, 100);

  std::vector<double> Seq = linq::fromSpan(Xs.data(), Xs.size())
                                .where([](double X) { return X > 0; })
                                .select([](double X) { return X * 3.0; })
                                .toVector();

  for (int Round = 0; Round != 5; ++Round) {
    ThreadPool Pool(4);
    std::vector<double> Par =
        plinq::asParallel(Pool, Xs)
            .withMorselOptions(tinyMorsels())
            .where([](double X) { return X > 0; })
            .select([](double X) { return X * 3.0; })
            .toVector();
    ASSERT_EQ(Par.size(), Seq.size()) << "round " << Round;
    for (std::size_t I = 0; I != Seq.size(); ++I)
      ASSERT_DOUBLE_EQ(Par[I], Seq[I])
          << "round " << Round << " index " << I;
  }
}

//===--------------------------------------------------------------------===//
// Morselized DistributedQuery::runParallel vs sequential reference
//===--------------------------------------------------------------------===//

namespace {

DistOptions tinyMorselDist(const char *Name) {
  DistOptions O;
  O.Exec = Backend::Interp; // JIT-free unit tests; e2e covers Native
  O.Name = Name;
  O.Morsels.MinMorsel = 16;
  O.Morsels.MaxMorsel = 64;
  O.Morsels.InlineBelow = 0;
  return O;
}

} // namespace

TEST(MorselDist, FoldMatchesReference) {
  std::vector<double> Flat = testutil::randomDoubles(2111, 31);
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
  Bindings B;
  B.bindDoubleArray(0, Flat.data(),
                    static_cast<std::int64_t>(Flat.size()));
  double Expected = runReference(Q, B).scalarValue().asDouble();
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, tinyMorselDist("m_fold"));
  ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
  double Got = DQ.runParallel(Pool, B).scalarValue().asDouble();
  EXPECT_NEAR(Got, Expected, 1e-6 * std::abs(Expected));
}

TEST(MorselDist, ConcatPreservesSourceOrder) {
  // Concat is the order-sensitive combine: morsel partials must
  // reassemble by source offset, not completion order.
  std::vector<double> Flat(1537);
  for (std::size_t I = 0; I != Flat.size(); ++I)
    Flat[I] = static_cast<double>(I);
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * 10.0));
  Bindings B;
  B.bindDoubleArray(0, Flat.data(),
                    static_cast<std::int64_t>(Flat.size()));
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, tinyMorselDist("m_concat"));
  ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
  QueryResult R = DQ.runParallel(Pool, B);
  ASSERT_EQ(R.rows().size(), Flat.size());
  for (std::size_t I = 0; I != Flat.size(); ++I)
    ASSERT_DOUBLE_EQ(R.rows()[I].asDouble(),
                     static_cast<double>(I) * 10.0)
        << "row " << I;
}

TEST(MorselDist, MergeByKeyMatchesReference) {
  std::vector<double> Flat = testutil::randomDoubles(1800, 32, 0, 50);
  auto A = param("a", Type::doubleTy());
  auto U = param("u", Type::doubleTy());
  auto W = param("w", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregate(
      lambda({x()}, toInt64(x() / 10.0)), E(0.0),
      lambda({A, x()}, A + x()), Lambda(), lambda({U, W}, U + W));
  Bindings B;
  B.bindDoubleArray(0, Flat.data(),
                    static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, B);
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, tinyMorselDist("m_gba"));
  ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
  QueryResult Got = DQ.runParallel(Pool, B);
  std::map<std::int64_t, double> RefMap, GotMap;
  for (const Value &V : Ref.rows())
    RefMap[V.first().asInt64()] = V.second().asDouble();
  for (const Value &V : Got.rows())
    GotMap[V.first().asInt64()] = V.second().asDouble();
  ASSERT_EQ(RefMap.size(), GotMap.size());
  for (const auto &[K, S] : RefMap)
    EXPECT_NEAR(GotMap.at(K), S, 1e-6 * std::max(1.0, std::abs(S)))
        << "key " << K;
}

TEST(MorselDist, MergeSortedMatchesReference) {
  std::vector<double> Flat = testutil::randomDoubles(700, 33);
  Query Q = Query::doubleArray(0)
                .select(lambda({x()}, x() + 1.0))
                .orderBy(lambda({x()}, abs(x())));
  Bindings B;
  B.bindDoubleArray(0, Flat.data(),
                    static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, B);
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, tinyMorselDist("m_sort"));
  ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
  QueryResult Got = DQ.runParallel(Pool, B);
  ASSERT_EQ(Ref.rows().size(), Got.rows().size());
  for (std::size_t I = 0; I != Ref.rows().size(); ++I)
    EXPECT_DOUBLE_EQ(Ref.rows()[I].asDouble(), Got.rows()[I].asDouble())
        << "row " << I;
}

TEST(MorselDist, EmptySourceMatchesReference) {
  Query Q = Query::doubleArray(0).sum();
  Bindings B;
  B.bindDoubleArray(0, nullptr, 0);
  QueryResult Ref = runReference(Q, B);
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, tinyMorselDist("m_empty"));
  QueryResult Got = DQ.runParallel(Pool, B);
  EXPECT_DOUBLE_EQ(Got.scalarValue().asDouble(),
                   Ref.scalarValue().asDouble());
}

//===--------------------------------------------------------------------===//
// ThreadPool shutdown (deterministic submit rejection)
//===--------------------------------------------------------------------===//

TEST(MorselPool, SubmitAfterShutdownIsRejected) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  EXPECT_TRUE(Pool.submit([&Ran] { ++Ran; }));
  Pool.wait();
  EXPECT_EQ(Ran.load(), 1);
  Pool.shutdown();
  EXPECT_FALSE(Pool.submit([&Ran] { ++Ran; }))
      << "submits during/after shutdown must be refused, not enqueued";
  EXPECT_EQ(Ran.load(), 1);
  Pool.shutdown(); // idempotent
  EXPECT_FALSE(Pool.submit([&Ran] { ++Ran; }));
}

TEST(MorselPool, AcceptedTasksDrainBeforeShutdown) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 50; ++I)
      EXPECT_TRUE(Pool.submit([&Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++Ran;
      }));
    // Destructor shutdown: accepted work still completes.
  }
  EXPECT_EQ(Ran.load(), 50);
}
