//===- tests/dryad_test.cpp - Distributed substrate tests ------*- C++ -*-===//

#include "QueryTestUtil.h"
#include "dryad/Dist.h"
#include "dryad/HomomorphicApply.h"
#include "dryad/Partition.h"
#include "dryad/Plan.h"
#include "dryad/ThreadPool.h"
#include "steno/RefExec.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <atomic>
#include <map>
#include <numeric>

using namespace steno;
using namespace steno::dryad;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

//===--------------------------------------------------------------------===//
// ThreadPool
//===--------------------------------------------------------------------===//

TEST(DryadPool, RunsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(DryadPool, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 2);
}

TEST(DryadPool, ZeroWorkersClampedToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::atomic<bool> Ran{false};
  Pool.submit([&Ran] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
}

//===--------------------------------------------------------------------===//
// Partitioning
//===--------------------------------------------------------------------===//

TEST(DryadPartition, EvenSplit) {
  std::vector<double> Flat(100);
  std::iota(Flat.begin(), Flat.end(), 0.0);
  std::vector<DoublePartition> Parts = partitionDoubles(Flat, 4);
  ASSERT_EQ(Parts.size(), 4u);
  for (const DoublePartition &P : Parts)
    EXPECT_EQ(P.Data.size(), 25u);
  EXPECT_DOUBLE_EQ(Parts[1].Data.front(), 25.0);
}

TEST(DryadPartition, UnevenSplitCoversAll) {
  std::vector<double> Flat(103);
  std::iota(Flat.begin(), Flat.end(), 0.0);
  std::vector<DoublePartition> Parts = partitionDoubles(Flat, 4);
  size_t Total = 0;
  double Sum = 0;
  for (const DoublePartition &P : Parts) {
    Total += P.Data.size();
    for (double V : P.Data)
      Sum += V;
  }
  EXPECT_EQ(Total, 103u);
  EXPECT_DOUBLE_EQ(Sum, 103.0 * 102.0 / 2.0);
}

TEST(DryadPartition, PointsNeverSplit) {
  std::vector<double> Flat(7 * 3); // 7 points of dim 3
  std::iota(Flat.begin(), Flat.end(), 0.0);
  std::vector<DoublePartition> Parts = partitionPoints(Flat, 3, 2);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_EQ(Parts[0].count(), 4);
  EXPECT_EQ(Parts[1].count(), 3);
  EXPECT_EQ(Parts[0].Data.size() % 3, 0u);
  EXPECT_DOUBLE_EQ(Parts[1].Data.front(), 12.0);
}

TEST(DryadPartition, MorePartsThanElements) {
  std::vector<double> Flat = {1.0, 2.0};
  std::vector<DoublePartition> Parts = partitionDoubles(Flat, 5);
  ASSERT_EQ(Parts.size(), 5u);
  EXPECT_EQ(Parts[0].Data.size(), 1u);
  EXPECT_EQ(Parts[2].Data.size(), 0u);
}

//===--------------------------------------------------------------------===//
// HomomorphicApply
//===--------------------------------------------------------------------===//

TEST(DryadHomApply, MapsAcrossPartitions) {
  ThreadPool Pool(4);
  std::vector<DoublePartition> Parts =
      partitionDoubles({1, 2, 3, 4, 5, 6}, 3);
  std::vector<double> Sums = homomorphicApply(
      Pool, Parts, [](const DoublePartition &P) {
        double S = 0;
        for (double V : P.Data)
          S += V;
        return S;
      });
  ASSERT_EQ(Sums.size(), 3u);
  EXPECT_DOUBLE_EQ(Sums[0] + Sums[1] + Sums[2], 21.0);
  EXPECT_DOUBLE_EQ(Sums[0], 3.0) << "partition order preserved";
}

//===--------------------------------------------------------------------===//
// Parallel planning (§6)
//===--------------------------------------------------------------------===//

namespace {

E x() { return param("x", Type::doubleTy()); }

} // namespace

TEST(DryadPlan, SelectAggregateSplits) {
  // Figure 12's example: Select-Aggregate.
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
  quil::Chain C = quil::lower(Q);
  std::string Why;
  auto Plan = planParallel(C, &Why);
  ASSERT_TRUE(Plan.has_value()) << Why;
  EXPECT_EQ(Plan->Kind, CombineKind::Fold);
  EXPECT_TRUE(Plan->Combiner.valid());
  EXPECT_TRUE(Plan->VertexChain.Scalar);
  EXPECT_EQ(Plan->VertexChain.symbols(), "Src Trans Agg Ret");
}

TEST(DryadPlan, HomomorphicPrefixKeepsNested) {
  auto P = param("p", Type::vecTy());
  auto V = param("v", Type::doubleTy());
  Query Q = Query::pointArray(0)
                .selectNested(P, Query::overVec(P)
                                     .select(lambda({V}, V * V))
                                     .sum())
                .sum();
  auto Plan = planParallel(quil::lower(Q));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->VertexChain.symbols(),
            "Src (Src Trans Agg Ret) Agg Ret");
}

TEST(DryadPlan, PureHomomorphicIsConcat) {
  Query Q = Query::doubleArray(0).where(lambda({x()}, x() > 0.0));
  auto Plan = planParallel(quil::lower(Q));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->Kind, CombineKind::Concat);
}

TEST(DryadPlan, GroupByAggregateMerges) {
  auto A = param("a", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregate(
      lambda({x()}, toInt64(x())), E(0.0), lambda({A, x()}, A + x()),
      Lambda(),
      lambda({param("u", Type::doubleTy()), param("w", Type::doubleTy())},
             param("u", Type::doubleTy()) + param("w", Type::doubleTy())));
  auto Plan = planParallel(quil::lower(Q));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->Kind, CombineKind::MergeByKey);
}

TEST(DryadPlan, RejectsStatefulPred) {
  Query Q = Query::doubleArray(0).take(E(5)).sum();
  std::string Why;
  auto Plan = planParallel(quil::lower(Q), &Why);
  EXPECT_FALSE(Plan.has_value());
  EXPECT_NE(Why.find("order-dependent"), std::string::npos) << Why;
}

TEST(DryadPlan, RejectsAggWithoutCombiner) {
  auto A = param("a", Type::doubleTy());
  // A non-combinable fold: "last element wins".
  Query Q = Query::doubleArray(0).aggregate(E(0.0),
                                            lambda({A, x()}, x()));
  std::string Why;
  auto Plan = planParallel(quil::lower(Q), &Why);
  EXPECT_FALSE(Plan.has_value());
  EXPECT_NE(Why.find("combiner"), std::string::npos) << Why;
}

TEST(DryadPlan, TrailingToArrayIsConcat) {
  Query Q = Query::doubleArray(0)
                .select(lambda({x()}, x() * 2.0))
                .toArray();
  auto Plan = planParallel(quil::lower(Q));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->Kind, CombineKind::Concat);
}

TEST(DryadPlan, TrailingOrderByIsMergeSorted) {
  Query Q = Query::doubleArray(0).orderBy(lambda({x()}, x()));
  auto Plan = planParallel(quil::lower(Q));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->Kind, CombineKind::MergeSorted);
  EXPECT_TRUE(Plan->SortKey.valid());
}

TEST(DryadDist, DistributedSortMatchesSequential) {
  std::vector<double> Flat = testutil::randomDoubles(333, 14);
  Query Q = Query::doubleArray(0)
                .select(lambda({x()}, x() + 1.0))
                .orderBy(lambda({x()}, abs(x())));
  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, Whole);
  ThreadPool Pool(4);
  DistOptions Options;
  Options.Exec = Backend::Interp;
  Options.Name = "sort";
  DistributedQuery DQ = DistributedQuery::compile(Q, Options);
  QueryResult Got = DQ.runParallel(Pool, Whole);
  ASSERT_EQ(Ref.rows().size(), Got.rows().size());
  for (size_t I = 0; I != Ref.rows().size(); ++I)
    EXPECT_DOUBLE_EQ(Ref.rows()[I].asDouble(), Got.rows()[I].asDouble())
        << "row " << I;
}

TEST(DryadPlan, RejectsOperatorsAfterSort) {
  // OrderBy is only parallelizable as the final operator (the merge is
  // the last stage); anything downstream of it needs repartitioning.
  Query Q = Query::doubleArray(0).orderBy(lambda({x()}, x())).toArray();
  std::string Why;
  auto Plan = planParallel(quil::lower(Q), &Why);
  EXPECT_FALSE(Plan.has_value());
  EXPECT_NE(Why.find("repartition"), std::string::npos) << Why;
}

//===--------------------------------------------------------------------===//
// End-to-end distributed execution
//===--------------------------------------------------------------------===//

namespace {

/// Builds per-partition bindings for slot 0 over a partitioned buffer.
std::vector<Bindings> bindingsFor(const std::vector<DoublePartition> &Parts) {
  std::vector<Bindings> Out;
  Out.reserve(Parts.size());
  for (const DoublePartition &P : Parts) {
    Bindings B;
    if (P.Dim == 1)
      B.bindDoubleArray(0, P.Data.data(),
                        static_cast<std::int64_t>(P.Data.size()));
    else
      B.bindPointArray(0, P.Data.data(), P.count(), P.Dim);
    Out.push_back(std::move(B));
  }
  return Out;
}

DistOptions interpDist(const char *Name) {
  DistOptions O;
  O.Exec = Backend::Interp; // keep unit tests JIT-free; e2e covers Native
  O.Name = Name;
  return O;
}

} // namespace

TEST(DryadDist, SumSqMatchesSequential) {
  std::vector<double> Flat = testutil::randomDoubles(997, 5);
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();

  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  double Expected = runReference(Q, Whole).scalarValue().asDouble();

  ThreadPool Pool(4);
  DistributedQuery DQ = DistributedQuery::compile(Q, interpDist("sumsq"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 7);
  double Got =
      DQ.run(Pool, bindingsFor(Partitions)).scalarValue().asDouble();
  EXPECT_NEAR(Got, Expected, 1e-6 * std::abs(Expected))
      << "partial sums reassociate, so allow rounding slack";
}

TEST(DryadDist, ConcatPreservesPartitionOrder) {
  std::vector<double> Flat = {1, 2, 3, 4, 5, 6, 7};
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * 10.0));
  ThreadPool Pool(3);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, interpDist("concat"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 3);
  QueryResult R = DQ.run(Pool, bindingsFor(Partitions));
  ASSERT_EQ(R.rows().size(), 7u);
  for (size_t I = 0; I != 7; ++I)
    EXPECT_DOUBLE_EQ(R.rows()[I].asDouble(), (I + 1) * 10.0);
}

TEST(DryadDist, GroupByAggregateMergesAcrossPartitions) {
  std::vector<double> Flat = testutil::randomDoubles(500, 6, 0, 50);
  auto A = param("a", Type::doubleTy());
  auto U = param("u", Type::doubleTy());
  auto W = param("w", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregate(
      lambda({x()}, toInt64(x() / 10.0)), E(0.0),
      lambda({A, x()}, A + x()), Lambda(), lambda({U, W}, U + W));

  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, Whole);

  ThreadPool Pool(4);
  DistributedQuery DQ = DistributedQuery::compile(Q, interpDist("gba"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 5);
  QueryResult Got = DQ.run(Pool, bindingsFor(Partitions));

  // Key sets must match; per-key sums must match (order may differ from
  // the sequential first-appearance order only if partition boundaries
  // reorder first appearances; compare as maps).
  ASSERT_EQ(Ref.rows().size(), Got.rows().size());
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

TEST(DryadDist, AverageMovesResultSelectorToCombine) {
  std::vector<double> Flat = testutil::randomDoubles(321, 7);
  Query Q = Query::doubleArray(0).average();
  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  double Expected = runReference(Q, Whole).scalarValue().asDouble();
  ThreadPool Pool(2);
  DistributedQuery DQ = DistributedQuery::compile(Q, interpDist("avg"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 4);
  double Got = DQ.run(Pool, bindingsFor(Partitions))
                   .scalarValue()
                   .asDouble();
  EXPECT_NEAR(Got, Expected, 1e-9 * std::max(1.0, std::abs(Expected)))
      << "average must not average the partition averages";
}

TEST(DryadDist, MergeByKeyMisalignedPartitions) {
  // Partitions whose key sets differ (hash sinks emit only the keys they
  // saw), forcing the index-based merge fallback.
  std::vector<double> Flat;
  for (int I = 0; I < 30; ++I)
    Flat.push_back(static_cast<double>(I)); // keys 0..9 by /3
  auto A = param("a", Type::doubleTy());
  auto U = param("u", Type::doubleTy());
  auto W = param("w", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregate(
      lambda({x()}, toInt64(x() / 3.0)), E(0.0),
      lambda({A, x()}, A + x()), Lambda(), lambda({U, W}, U + W));
  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, Whole);
  ThreadPool Pool(2);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, interpDist("misaligned"));
  // Three uneven partitions: each sees a different key range.
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 3);
  QueryResult Got = DQ.run(Pool, bindingsFor(Partitions));
  std::map<std::int64_t, double> RefMap, GotMap;
  for (const Value &V : Ref.rows())
    RefMap[V.first().asInt64()] = V.second().asDouble();
  for (const Value &V : Got.rows())
    GotMap[V.first().asInt64()] = V.second().asDouble();
  EXPECT_EQ(RefMap, GotMap);
}

TEST(DryadDist, DenseSinkMergesPositionally) {
  // Dense sinks emit identical ordered key sequences per partition; the
  // combined result must equal the sequential dense query.
  std::vector<double> Flat = testutil::randomDoubles(400, 8, 0, 50);
  auto A = param("a", Type::doubleTy());
  auto U = param("u", Type::doubleTy());
  auto W = param("w", Type::doubleTy());
  Query Q = Query::doubleArray(0).groupByAggregateDense(
      lambda({x()}, toInt64(x() / 10.0)), E(5), E(0.0),
      lambda({A, x()}, A + x()), Lambda(), lambda({U, W}, U + W));
  Bindings Whole;
  Whole.bindDoubleArray(0, Flat.data(),
                        static_cast<std::int64_t>(Flat.size()));
  QueryResult Ref = runReference(Q, Whole);
  ThreadPool Pool(4);
  DistributedQuery DQ = DistributedQuery::compile(Q, interpDist("dense"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 4);
  QueryResult Got = DQ.run(Pool, bindingsFor(Partitions));
  ASSERT_EQ(Got.rows().size(), 5u) << "all dense keys reported";
  ASSERT_EQ(Ref.rows().size(), Got.rows().size());
  for (size_t I = 0; I != Ref.rows().size(); ++I) {
    EXPECT_EQ(Ref.rows()[I].first().asInt64(),
              Got.rows()[I].first().asInt64());
    EXPECT_NEAR(Ref.rows()[I].second().asDouble(),
                Got.rows()[I].second().asDouble(), 1e-7);
  }
}

TEST(DryadPlinq, PartitionBindingsViewsAreZeroCopy) {
  std::vector<double> Flat = {0, 1, 2, 3, 4, 5, 6};
  std::vector<double> Other = {9, 9};
  Bindings B;
  B.bindDoubleArray(0, Flat.data(), 7);
  B.bindDoubleArray(1, Other.data(), 2);
  std::vector<Bindings> Parts = partitionBindings(B, 3);
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0].sources()[0].DoubleData, Flat.data());
  EXPECT_EQ(Parts[0].sources()[0].Count, 3);
  EXPECT_EQ(Parts[1].sources()[0].DoubleData, Flat.data() + 3);
  EXPECT_EQ(Parts[1].sources()[0].Count, 2);
  EXPECT_EQ(Parts[2].sources()[0].Count, 2);
  // The other slot is shared, not partitioned.
  EXPECT_EQ(Parts[2].sources()[1].DoubleData, Other.data());
  EXPECT_EQ(Parts[2].sources()[1].Count, 2);
}

TEST(DryadPlinq, PartitionBindingsRespectsStride) {
  std::vector<double> Points(5 * 3); // 5 points, dim 3
  std::iota(Points.begin(), Points.end(), 0.0);
  Bindings B;
  B.bindPointArray(0, Points.data(), 5, 3);
  std::vector<Bindings> Parts = partitionBindings(B, 2);
  EXPECT_EQ(Parts[0].sources()[0].Count, 3);
  EXPECT_EQ(Parts[1].sources()[0].DoubleData, Points.data() + 9);
  EXPECT_EQ(Parts[1].sources()[0].Count, 2);
  EXPECT_EQ(Parts[1].sources()[0].Dim, 3);
}

TEST(DryadPlinq, RunParallelMatchesSequential) {
  std::vector<double> Flat = testutil::randomDoubles(1234, 9);
  Query Q = Query::doubleArray(0).select(lambda({x()}, x() * x())).sum();
  Bindings B;
  B.bindDoubleArray(0, Flat.data(),
                    static_cast<std::int64_t>(Flat.size()));
  double Expected = runReference(Q, B).scalarValue().asDouble();
  ThreadPool Pool(4);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, interpDist("plinq"));
  double Got = DQ.runParallel(Pool, B).scalarValue().asDouble();
  EXPECT_NEAR(Got, Expected, 1e-6 * std::abs(Expected));
}

TEST(DryadPlinq, RunParallelInt64Source) {
  std::vector<std::int64_t> Is = testutil::randomInt64s(500, 10);
  auto Xi = param("xi", Type::int64Ty());
  Query Q = Query::int64Array(0).select(lambda({Xi}, Xi * 2)).sum();
  Bindings B;
  B.bindInt64Array(0, Is.data(), static_cast<std::int64_t>(Is.size()));
  std::int64_t Expected = runReference(Q, B).scalarValue().asInt64();
  ThreadPool Pool(3);
  DistributedQuery DQ =
      DistributedQuery::compile(Q, interpDist("plinq_i"));
  EXPECT_EQ(DQ.runParallel(Pool, B).scalarValue().asInt64(), Expected);
}

TEST(DryadDist, SinglePartitionDegeneratesToSequential) {
  std::vector<double> Flat = {2.0, 3.0};
  Query Q = Query::doubleArray(0).sum();
  ThreadPool Pool(1);
  DistributedQuery DQ = DistributedQuery::compile(Q, interpDist("one"));
  std::vector<DoublePartition> Partitions = partitionDoubles(Flat, 1);
  double Got = DQ.run(Pool, bindingsFor(Partitions))
                   .scalarValue()
                   .asDouble();
  EXPECT_DOUBLE_EQ(Got, 5.0);
}
