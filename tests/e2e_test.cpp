//===- tests/e2e_test.cpp - Paper workloads, all execution paths -*-C++-*-===//
//
// Runs the paper's evaluation queries (§7.1 Sum/SumSq/Cart/Group and the
// §7.2 k-means step) at test scale through every execution path in the
// repo — the linq baseline, the reference executor, both Steno backends,
// the static fused library and a hand-written loop — and checks they all
// agree. This is the semantic core of the reproduction: Steno must
// "faithfully reproduce the semantics of unoptimized LINQ" (§9).
//
//===----------------------------------------------------------------------===//

#include "QueryTestUtil.h"
#include "fused/Fused.h"
#include "linq/Linq.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using namespace steno::testutil;
using query::Query;

namespace {

constexpr size_t N = 4000;

struct Fixture {
  std::vector<double> Xs = randomDoubles(N, 77, 0, 1000);
  std::vector<double> Ys = randomDoubles(100, 78, 0, 10);
  Bindings B;

  Fixture() {
    B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
    B.bindDoubleArray(1, Ys.data(), static_cast<std::int64_t>(Ys.size()));
  }
};

double runSteno(const Query &Q, const Bindings &B, Backend Exec) {
  CompileOptions Options;
  Options.Exec = Exec;
  return compileQuery(Q, Options).run(B).scalarValue().asDouble();
}

} // namespace

TEST(E2E, SumAllPathsAgree) {
  Fixture F;
  double Hand = 0;
  for (double X : F.Xs)
    Hand += X;
  double Linq = linq::fromSpan(F.Xs.data(), F.Xs.size()).sum();
  double Fused = fused::from(F.Xs) | fused::sum();
  Query Q = Query::doubleArray(0).sum();
  double Ref = runReference(Q, F.B).scalarValue().asDouble();
  double Interp = runSteno(Q, F.B, Backend::Interp);
  double Native = runSteno(Q, F.B, Backend::Native);
  EXPECT_DOUBLE_EQ(Linq, Hand);
  EXPECT_DOUBLE_EQ(Fused, Hand);
  EXPECT_DOUBLE_EQ(Ref, Hand);
  EXPECT_DOUBLE_EQ(Interp, Hand);
  EXPECT_DOUBLE_EQ(Native, Hand);
}

TEST(E2E, SumSqAllPathsAgree) {
  Fixture F;
  double Hand = 0;
  for (double X : F.Xs)
    Hand += X * X;
  double Linq = linq::fromSpan(F.Xs.data(), F.Xs.size())
                    .select([](double X) { return X * X; })
                    .sum();
  double Fused = fused::from(F.Xs) |
                 fused::select([](double X) { return X * X; }) |
                 fused::sum();
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  EXPECT_DOUBLE_EQ(Linq, Hand);
  EXPECT_DOUBLE_EQ(Fused, Hand);
  EXPECT_DOUBLE_EQ(runReference(Q, F.B).scalarValue().asDouble(), Hand);
  EXPECT_DOUBLE_EQ(runSteno(Q, F.B, Backend::Interp), Hand);
  EXPECT_DOUBLE_EQ(runSteno(Q, F.B, Backend::Native), Hand);
}

TEST(E2E, CartAllPathsAgree) {
  // Cart (scaled down): pairwise products of Xs x Ys, summed.
  Fixture F;
  double Hand = 0;
  for (double X : F.Xs)
    for (double Y : F.Ys)
      Hand += X * Y;

  double Linq =
      linq::fromSpan(F.Xs.data(), F.Xs.size())
          .selectMany([&F](double X) {
            return linq::fromSpan(F.Ys.data(), F.Ys.size())
                .select([X](double Y) { return X * Y; });
          })
          .sum();

  double Fused = fused::from(F.Xs) | fused::selectMany([&F](double X) {
                   return fused::from(F.Ys) |
                          fused::select([X](double Y) { return X * Y; });
                 }) |
                 fused::sum();

  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .selectMany(X, Query::doubleArray(1)
                                   .select(lambda({Y}, X * Y)))
                .sum();

  double Tol = 1e-9 * std::abs(Hand);
  EXPECT_NEAR(Linq, Hand, Tol);
  EXPECT_NEAR(Fused, Hand, Tol);
  EXPECT_NEAR(runReference(Q, F.B).scalarValue().asDouble(), Hand, Tol);
  EXPECT_NEAR(runSteno(Q, F.B, Backend::Interp), Hand, Tol);
  EXPECT_NEAR(runSteno(Q, F.B, Backend::Native), Hand, Tol);
}

TEST(E2E, GroupHistogramAllPathsAgree) {
  // Group (scaled down): bin values, count per bin — the §7.1 histogram
  // via GroupBy with an aggregating selector.
  Fixture F;
  const std::int64_t Bins = 20;
  const double Width = 1000.0 / Bins;

  std::vector<std::int64_t> Hand(Bins, 0);
  for (double X : F.Xs) {
    std::int64_t Bin = static_cast<std::int64_t>(X / Width);
    if (Bin >= 0 && Bin < Bins)
      ++Hand[Bin];
  }

  // linq baseline: GroupBy + result selector.
  std::vector<std::int64_t> LinqCounts(Bins, 0);
  auto Groups =
      linq::fromSpan(F.Xs.data(), F.Xs.size())
          .where([Width, Bins](double X) {
            std::int64_t Bin = static_cast<std::int64_t>(X / Width);
            return Bin >= 0 && Bin < Bins;
          })
          .groupBy(
              [Width](double X) {
                return static_cast<std::int64_t>(X / Width);
              },
              [](std::int64_t Key, const std::vector<double> &Bag) {
                return std::make_pair(Key,
                                      static_cast<std::int64_t>(
                                          Bag.size()));
              });
  for (const auto &[Key, Count] : Groups.toVector())
    LinqCounts[static_cast<size_t>(Key)] = Count;
  EXPECT_EQ(LinqCounts, Hand);

  // Steno dynamic pipeline: groupBy + nested bag count, specialized.
  auto X = param("x", Type::doubleTy());
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto C = param("c", Type::int64Ty());
  auto V = param("v", Type::doubleTy());
  Query BagCount = Query::overVec(G.second())
                       .aggregate(E(0), lambda({C, V}, C + 1),
                                  lambda({C}, pair(G.first(), C)));
  Query Q = Query::doubleArray(0)
                .where(lambda({X}, (X >= 0.0) &&
                                       (X < toDouble(E(1000)))))
                .groupBy(lambda({X}, toInt64(X / Width)))
                .selectNested(G, BagCount);

  for (Backend Exec : {Backend::Interp, Backend::Native}) {
    CompileOptions Options;
    Options.Exec = Exec;
    CompiledQuery CQ = compileQuery(Q, Options);
    EXPECT_TRUE(CQ.groupBySpecialized());
    std::vector<std::int64_t> Got(Bins, 0);
    QueryResult R = CQ.run(F.B);
    for (const Value &Row : R.rows())
      Got[static_cast<size_t>(Row.first().asInt64())] =
          Row.second().asInt64();
    EXPECT_EQ(Got, Hand) << "backend " << static_cast<int>(Exec);
  }

  // fused static path.
  auto Entries =
      fused::from(F.Xs) | fused::groupByAggregate(
                              [Width](double Xv) {
                                return static_cast<std::int64_t>(Xv /
                                                                 Width);
                              },
                              std::int64_t{0},
                              [](std::int64_t A, double) { return A + 1; });
  std::vector<std::int64_t> FusedCounts(Bins, 0);
  for (const auto &[Key, Count] : Entries)
    if (Key >= 0 && Key < Bins)
      FusedCounts[static_cast<size_t>(Key)] = Count;
  EXPECT_EQ(FusedCounts, Hand);
}

TEST(E2E, KmeansAssignmentStepAgrees) {
  // One §7.2 step-1 computation: nearest-centroid distances summed (a
  // scalar proxy that exercises the 3-level nested argmin query).
  const std::int64_t Dim = 8;
  const std::int64_t K = 4;
  const std::int64_t NumPoints = 300;
  std::vector<double> Points =
      randomDoubles(static_cast<size_t>(Dim * NumPoints), 91);
  std::vector<double> Centroids =
      randomDoubles(static_cast<size_t>(Dim * K), 92);

  // Hand loop.
  double Hand = 0;
  for (std::int64_t I = 0; I != NumPoints; ++I) {
    double Best = INFINITY;
    for (std::int64_t J = 0; J != K; ++J) {
      double D2 = 0;
      for (std::int64_t D = 0; D != Dim; ++D) {
        double Delta = Points[I * Dim + D] - Centroids[J * Dim + D];
        D2 += Delta * Delta;
      }
      if (D2 < Best)
        Best = D2;
    }
    Hand += Best;
  }

  Bindings B;
  B.bindPointArray(0, Points.data(), NumPoints, Dim);
  B.bindDoubleArray(1, Centroids.data(),
                    static_cast<std::int64_t>(Centroids.size()));

  auto P = param("p", Type::vecTy());
  auto J = param("j", Type::int64Ty());
  auto D = param("d", Type::int64Ty());
  auto DV = param("dv", Type::doubleTy());
  E DimE = E(Dim);
  Query Dist2 =
      Query::range(E(0), DimE)
          .select(lambda({D}, (P[D] - slice(1, J * DimE, DimE)[D]) *
                                  (P[D] - slice(1, J * DimE, DimE)[D])))
          .sum();
  Query MinDist = Query::range(E(0), E(K))
                      .selectNested(J, Dist2)
                      .select(lambda({DV}, DV))
                      .min();
  Query Q = Query::pointArray(0).selectNested(P, MinDist).sum();

  double Tol = 1e-9 * std::max(1.0, std::abs(Hand));
  EXPECT_NEAR(runReference(Q, B).scalarValue().asDouble(), Hand, Tol);
  EXPECT_NEAR(runSteno(Q, B, Backend::Interp), Hand, Tol);
  EXPECT_NEAR(runSteno(Q, B, Backend::Native), Hand, Tol);
}

TEST(E2E, Figure1QueryShape) {
  // The Figure 1 query is SumSq over 10^7 doubles; at test scale, verify
  // the Steno output is the single-loop program the figure implies and
  // that it produces the right answer through the JIT.
  Fixture F;
  auto X = param("x", Type::doubleTy());
  Query Q = Query::doubleArray(0).select(lambda({X}, X * X)).sum();
  CompiledQuery CQ = compileQuery(Q, {});
  const std::string &Src = CQ.generatedSource();
  EXPECT_NE(Src.find("for ("), std::string::npos);
  EXPECT_EQ(Src.find("virtual"), std::string::npos);
  double Hand = 0;
  for (double V : F.Xs)
    Hand += V * V;
  EXPECT_DOUBLE_EQ(CQ.run(F.B).scalarValue().asDouble(), Hand);
}

//===--------------------------------------------------------------------===//
// Analysis-mode matrix: the same workloads under STENO_ANALYZE=strict and
// =off (set here explicitly via CompileOptions so the test is independent
// of the environment). Strict must accept every well-formed paper query
// with identical results to Off — the analyzer may only reject, never
// change semantics — and must reject a query with an error finding that
// Off happily runs.
//===--------------------------------------------------------------------===//

namespace {

double runWithMode(const Query &Q, const Bindings &B, Backend Exec,
                   analysis::Mode Mode) {
  CompileOptions Options;
  Options.Exec = Exec;
  Options.Analyze = Mode;
  Options.Name = Mode == analysis::Mode::Strict ? "e2e_strict" : "e2e_off";
  return compileQuery(Q, Options).run(B).scalarValue().asDouble();
}

} // namespace

TEST(E2EAnalysisMatrix, StrictAndOffAgreeOnPaperQueries) {
  Fixture F;
  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());

  std::vector<Query> Matrix;
  // §7.1 Sum / SumSq / filtered SumSq.
  Matrix.push_back(Query::doubleArray(0).sum());
  Matrix.push_back(
      Query::doubleArray(0).select(lambda({X}, X * X)).sum());
  Matrix.push_back(Query::doubleArray(0)
                       .where(lambda({X}, X > E(500.0)))
                       .select(lambda({X}, X * X))
                       .sum());
  // §7.1 Cart: nested iteration.
  Matrix.push_back(
      Query::doubleArray(0)
          .selectMany(X, Query::doubleArray(1).select(lambda({Y}, X * Y)))
          .sum());
  // Positional pipeline (order-sensitive, certificate-denied shape).
  Matrix.push_back(Query::doubleArray(0)
                       .skip(E(std::int64_t{5}))
                       .take(E(std::int64_t{100}))
                       .sum());

  for (std::size_t I = 0; I != Matrix.size(); ++I) {
    for (Backend Exec : {Backend::Interp, Backend::Native}) {
      double Strict =
          runWithMode(Matrix[I], F.B, Exec, analysis::Mode::Strict);
      double Off = runWithMode(Matrix[I], F.B, Exec, analysis::Mode::Off);
      EXPECT_DOUBLE_EQ(Strict, Off)
          << "query " << I << " backend "
          << (Exec == Backend::Native ? "native" : "interp");
    }
  }
}

TEST(E2EAnalysisMatrix, StrictRejectsWhatOffRuns) {
  // take(-1): a constant-range error (ST4xxx NegativeCount). Off-mode
  // compiles and yields the empty-prefix sum; strict mode must reject at
  // compile time, before codegen.
  Fixture F;
  Query Q = Query::doubleArray(0).take(E(std::int64_t{-1})).sum();
  EXPECT_DOUBLE_EQ(runWithMode(Q, F.B, Backend::Interp, analysis::Mode::Off),
                   0.0);
  CompileOptions Strict;
  Strict.Analyze = analysis::Mode::Strict;
  Strict.Name = "e2e_negative_take";
  EXPECT_DEATH(compileQuery(Q, Strict), "rejected by static analysis");
}

//===--------------------------------------------------------------------===//
// int64 comparisons: exact on every backend
//===--------------------------------------------------------------------===//

TEST(E2EInt64Compare, ExactAtTwoToTheFiftyThreeOnEveryBackend) {
  // 2^53 + 1 is the first int64 a double cannot hold: compared as
  // doubles it equals 2^53, so == and < would pick the wrong elements.
  const std::int64_t P53 = std::int64_t{1} << 53;
  std::vector<std::int64_t> Xs{P53, P53 + 1, P53 + 2};
  Bindings B;
  B.bindInt64Array(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  auto X = param("x", Type::int64Ty());
  struct Case {
    const char *Name;
    Query Q;
  } Cases[] = {
      {"eq", Query::int64Array(0).where(lambda({X}, X == E(P53 + 1))).count()},
      {"lt", Query::int64Array(0).where(lambda({X}, X < E(P53 + 1))).count()},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(runReference(C.Q, B).scalarValue().asInt64(), 1)
        << C.Name << " reference";
    for (Backend Exec : {Backend::Interp, Backend::Native})
      for (bool Vectorize : {false, true}) {
        CompileOptions O;
        O.Exec = Exec;
        O.Vectorize = Vectorize;
        O.Name = std::string("e2e_i64cmp_") + C.Name;
        EXPECT_EQ(compileQuery(C.Q, O).run(B).scalarValue().asInt64(), 1)
            << C.Name << (Exec == Backend::Native ? " native" : " interp")
            << (Vectorize ? " vectorized" : " scalar");
      }
  }
}
