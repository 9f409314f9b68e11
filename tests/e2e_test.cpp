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
#include "dryad/Dist.h"
#include "dryad/ThreadPool.h"
#include "fused/Fused.h"
#include "linq/Linq.h"

#include "gtest/gtest.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

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
// Analysis-mode matrix: the same workloads under Analyze = Strict and
// Off. Strict must accept every well-formed paper query
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

//===--------------------------------------------------------------------===//
// Operator edge values: the rules of steno/Rt.h, on every backend
//===--------------------------------------------------------------------===//

namespace {

const double NaN = std::numeric_limits<double>::quiet_NaN();
const double Inf = std::numeric_limits<double>::infinity();

/// Bit-exact for int64s and doubles, so -0.0 is not 0.0; a NaN matches
/// any NaN, since no operator's rule fixes a NaN's sign or payload.
bool sameEdgeValue(const Value &A, const Value &B) {
  if (!A.isDouble() || !B.isDouble())
    return A == B;
  double X = A.asDouble(), Y = B.asDouble();
  if (std::isnan(X) || std::isnan(Y))
    return std::isnan(X) && std::isnan(Y);
  return std::bit_cast<std::uint64_t>(X) == std::bit_cast<std::uint64_t>(Y);
}

std::string edgeStr(const Value &V) {
  if (!V.isDouble())
    return valueStr(V);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V.asDouble());
  return Buf;
}

/// One single-row query over source 0, and the literal value its row
/// must hold.
struct EdgeRow {
  const char *Name;
  Query Q;
  std::vector<double> Doubles; ///< Source 0 of a doubleArray query.
  std::vector<std::int64_t> Int64s; ///< Source 0 of an int64Array query.
  Value Want;
};

/// Runs every row on the reference and on both backends with Vectorize on
/// and off.
void expectEdgeRows(const std::vector<EdgeRow> &Rows) {
  for (const EdgeRow &R : Rows) {
    Bindings B;
    if (R.Int64s.empty())
      B.bindDoubleArray(0, R.Doubles.data(),
                        static_cast<std::int64_t>(R.Doubles.size()));
    else
      B.bindInt64Array(0, R.Int64s.data(),
                       static_cast<std::int64_t>(R.Int64s.size()));
    auto Check = [&](const QueryResult &Got, const std::string &Where) {
      ASSERT_EQ(Got.rows().size(), 1u) << R.Name << " " << Where;
      EXPECT_TRUE(sameEdgeValue(Got.rows()[0], R.Want))
          << R.Name << " " << Where << ": got " << edgeStr(Got.rows()[0])
          << ", want " << edgeStr(R.Want);
    };
    Check(runReference(R.Q, B), "reference");
    for (Backend Exec : {Backend::Interp, Backend::Native})
      for (bool Vectorize : {false, true}) {
        CompileOptions O;
        O.Exec = Exec;
        O.Vectorize = Vectorize;
        O.Name = std::string("e2e_edge_") + R.Name;
        Check(compileQuery(R.Q, O).run(B),
              std::string(Exec == Backend::Native ? "native" : "interp") +
                  (Vectorize ? " vectorized" : " scalar"));
      }
  }
}

} // namespace

TEST(E2EEdgeValues, MinMaxKeepTheFirstOperandOnlyWhenItCompares) {
  // min(a, b) is a when a < b, else b; max the same with >.
  auto X = param("x", Type::doubleTy());
  auto A = param("a", Type::doubleTy());
  auto D = [&](const E &Body) {
    return Query::doubleArray(0).select(lambda({X}, Body));
  };
  expectEdgeRows({
      {"min_nan_first", D(min(X, E(0.5))), {NaN}, {}, Value(0.5)},
      {"min_nan_second", D(min(E(0.5), X)), {NaN}, {}, Value(NaN)},
      {"max_nan_first", D(max(X, E(0.5))), {NaN}, {}, Value(0.5)},
      {"max_nan_second", D(max(E(0.5), X)), {NaN}, {}, Value(NaN)},
      {"min_negzero_zero", D(min(X, E(0.0))), {-0.0}, {}, Value(0.0)},
      {"min_zero_negzero", D(min(X, E(-0.0))), {0.0}, {}, Value(-0.0)},
      {"max_negzero_zero", D(max(X, E(0.0))), {-0.0}, {}, Value(0.0)},
      {"max_zero_negzero", D(max(X, E(-0.0))), {0.0}, {}, Value(-0.0)},
      // The fold keeps the operand order too: min(1, NaN) is NaN.
      {"min_fold",
       Query::doubleArray(0).aggregate(E(Inf), lambda({A, X}, min(A, X))),
       {1.0, NaN},
       {},
       Value(NaN)},
  });
}

TEST(E2EEdgeValues, DoubleOperatorsFollowIeee) {
  auto X = param("x", Type::doubleTy());
  auto D = [&](const E &Body) {
    return Query::doubleArray(0).select(lambda({X}, Body));
  };
  expectEdgeRows({
      {"abs_negzero", D(abs(X)), {-0.0}, {}, Value(0.0)},
      {"fmod_by_zero", D(E(1.0) % X), {0.0}, {}, Value(NaN)},
      {"fmod_by_inf", D(E(-1.5) % X), {Inf}, {}, Value(-1.5)},
      {"sqrt_negative", D(sqrt(X)), {-1.0}, {}, Value(NaN)},
      {"div_by_zero", D(E(1.0) / X), {0.0}, {}, Value(Inf)},
      {"div_by_negzero", D(E(1.0) / X), {-0.0}, {}, Value(-Inf)},
  });
}

TEST(E2EEdgeValues, Int64DivisionTruncatesAtTheEdges) {
  // `/` truncates toward zero and `%` takes the dividend's sign. No input
  // is INT64_MIN / -1 or a zero divisor, so none traps.
  auto I = param("i", Type::int64Ty());
  auto L = [&](const E &Body) {
    return Query::int64Array(0).select(lambda({I}, Body));
  };
  auto C = [](std::int64_t V) { return E(V); };
  const std::int64_t Min64 = std::numeric_limits<std::int64_t>::min();
  const std::int64_t Max64 = std::numeric_limits<std::int64_t>::max();
  expectEdgeRows({
      {"i64_div_truncates", L(I / C(2)), {}, {-7}, Value(std::int64_t{-3})},
      {"i64_mod_dividend_sign", L(I % C(-2)), {}, {-7},
       Value(std::int64_t{-1})},
      {"i64_min_div_two", L(I / C(2)), {}, {Min64},
       Value(std::int64_t{-4611686018427387904})},
      {"i64_min_mod_max", L(I % C(Max64)), {}, {Min64},
       Value(std::int64_t{-1})},
      {"i64_max_div_minus_one", L(I / C(-1)), {}, {Max64},
       Value(std::int64_t{-9223372036854775807})},
      {"i64_min_by_element", L(C(Min64) / I), {}, {-2},
       Value(std::int64_t{4611686018427387904})},
  });
}

TEST(E2EEdgeValues, Int64ArithmeticWraps) {
  // int64 `+ - *`, negation and abs wrap modulo 2^64 (steno/Rt.h).
  auto I = param("i", Type::int64Ty());
  auto L = [&](const E &Body) {
    return Query::int64Array(0).select(lambda({I}, Body));
  };
  auto C = [](std::int64_t V) { return E(V); };
  const std::int64_t Min64 = std::numeric_limits<std::int64_t>::min();
  const std::int64_t Max64 = std::numeric_limits<std::int64_t>::max();
  expectEdgeRows({
      {"i64_max_plus_one", L(I + C(1)), {}, {Max64}, Value(Min64)},
      {"i64_min_minus_one", L(I - C(1)), {}, {Min64}, Value(Max64)},
      {"i64_max_times_two", L(I * C(2)), {}, {Max64},
       Value(std::int64_t{-2})},
      {"i64_neg_min", L(-I), {}, {Min64}, Value(Min64)},
      {"i64_abs_min", L(abs(I)), {}, {Min64}, Value(Min64)},
  });
}

//===--------------------------------------------------------------------===//
// OrderBy's key order (rt::orderKey), on every backend
//===--------------------------------------------------------------------===//

namespace {

/// Sorts an edge table with the OrderBy query \p Q, and with Q followed by
/// a ToArray, and checks the rows, bit for bit, on the reference and on
/// both backends with Vectorize on and off. Then sorts the table repeated
/// Copies times, Q and Q.toArray() alike, through DistributedQuery::
/// runParallel over morsels of one or two elements, so many runs meet in
/// the Agg* sort, against the reference and one native thread over the
/// same input.
template <typename T>
void expectSortedRows(const char *Name, const Query &Q,
                      const std::vector<T> &In, const std::vector<T> &Want) {
  auto bind = [](const std::vector<T> &Data) {
    Bindings B;
    if constexpr (std::is_same_v<T, double>)
      B.bindDoubleArray(0, Data.data(), static_cast<std::int64_t>(Data.size()));
    else
      B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));
    return B;
  };
  auto Check = [&](const QueryResult &Got, const std::vector<Value> &Rows,
                   const std::string &Where) {
    ASSERT_EQ(Got.rows().size(), Rows.size()) << Name << " " << Where;
    for (std::size_t I = 0; I != Rows.size(); ++I)
      EXPECT_TRUE(sameEdgeValue(Got.rows()[I], Rows[I]))
          << Name << " " << Where << " row " << I << ": got "
          << edgeStr(Got.rows()[I]) << ", want " << edgeStr(Rows[I]);
  };
  std::vector<Value> WantRows(Want.begin(), Want.end());
  Bindings B = bind(In);
  for (const Query &Sorted : {Q, Q.toArray()}) {
    Check(runReference(Sorted, B), WantRows, "reference");
    for (Backend Exec : {Backend::Interp, Backend::Native})
      for (bool Vectorize : {false, true}) {
        CompileOptions O;
        O.Exec = Exec;
        O.Vectorize = Vectorize;
        O.Name = std::string("e2e_sort_") + Name;
        Check(compileQuery(Sorted, O).run(B), WantRows,
              std::string(Exec == Backend::Native ? "native" : "interp") +
                  (Vectorize ? " vectorized" : " scalar"));
      }
  }

  constexpr int Copies = 24;
  std::vector<T> Many;
  for (int C = 0; C != Copies; ++C)
    Many.insert(Many.end(), In.begin(), In.end());
  Bindings ManyB = bind(Many);
  std::vector<Value> RefRows = runReference(Q, ManyB).rows();
  CompileOptions OneThread;
  OneThread.Name = std::string("e2e_sort1_") + Name;
  QueryResult Native = compileQuery(Q, OneThread).run(ManyB);
  Check(Native, RefRows, "one native thread");
  dryad::ThreadPool Pool(4);
  for (bool ToArray : {false, true})
    for (Backend Exec : {Backend::Interp, Backend::Native}) {
      const Query Sorted = ToArray ? Q.toArray() : Q;
      dryad::DistOptions O;
      O.Exec = Exec;
      O.Name = std::string("e2e_psort_") + Name;
      O.Morsels.MinMorsel = 1;
      O.Morsels.MaxMorsel = 2;
      O.Morsels.InlineBelow = 0;
      dryad::DistributedQuery DQ =
          dryad::DistributedQuery::compile(Sorted, O);
      ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
      std::string Where =
          std::string("runParallel ") +
          (Exec == Backend::Native ? "native" : "interp") +
          (ToArray ? " toArray" : "");
      QueryResult Got = DQ.runParallel(Pool, ManyB);
      Check(Got, RefRows, Where);
      Check(Got, Native.rows(), Where + " against one native thread");
    }
}

} // namespace

TEST(E2ESortKeyOrder, Int64KeysCompareExactly) {
  // Past 2^53 two int64 keys can share a double; they still compare as
  // int64s. Duplicates and the extremes included.
  auto I = param("i", Type::int64Ty());
  const std::int64_t P53 = std::int64_t{1} << 53;
  const std::int64_t Min64 = std::numeric_limits<std::int64_t>::min();
  const std::int64_t Max64 = std::numeric_limits<std::int64_t>::max();
  expectSortedRows<std::int64_t>(
      "i64_exact", Query::int64Array(0).orderBy(lambda({I}, I)),
      {P53 + 1, Max64, P53, 3, Min64, 0, P53 + 1, -1, -P53, Max64 - 1},
      {Min64, -P53, -1, 0, 3, P53, P53 + 1, P53 + 1, Max64 - 1, Max64});
  // Ties keep input order: the key 1 - x % 2 puts odd before even.
  expectSortedRows<std::int64_t>(
      "i64_stable",
      Query::int64Array(0).orderBy(
          lambda({I}, E(std::int64_t{1}) - I % E(std::int64_t{2}))),
      {4, 7, 2, 9, P53 + 1, P53, 1},
      {7, 9, P53 + 1, 1, 4, 2, P53});
}

TEST(E2ESortKeyOrder, DoubleKeysTieZerosAndSortNaNLast) {
  // -0.0 ties +0.0 (input order kept, checked bit for bit), every NaN
  // sorts after +inf, NaNs tie.
  auto X = param("x", Type::doubleTy());
  expectSortedRows<double>(
      "f64_edges", Query::doubleArray(0).orderBy(lambda({X}, X)),
      {NaN, 1.0, -0.0, Inf, 0.0, -Inf, 2.0, NaN, -0.0, 1.0, -2.5},
      {-Inf, -2.5, -0.0, 0.0, -0.0, 1.0, 1.0, 2.0, Inf, NaN, NaN});
  // A computed key: negation reverses the order but not the ties.
  expectSortedRows<double>(
      "f64_negated", Query::doubleArray(0).orderBy(lambda({X}, -X)),
      {2.0, NaN, -0.0, 1.0, 0.0},
      {2.0, 1.0, -0.0, 0.0, NaN});
}

//===--------------------------------------------------------------------===//
// double -> int64 (rt::toInt64), on every backend
//===--------------------------------------------------------------------===//

TEST(E2EToInt64, TruncatesAndGivesInt64MinWhereCxxIsUndefined) {
  // Truncation toward zero, and INT64_MIN for NaN, +-inf and values
  // outside [-2^63, 2^63): on the reference, both backends with Vectorize
  // on and off, and runParallel over morsels of one or two elements.
  auto X = param("x", Type::doubleTy());
  const std::int64_t Min64 = std::numeric_limits<std::int64_t>::min();
  const std::int64_t Max64 = std::numeric_limits<std::int64_t>::max();
  const std::vector<double> In = {NaN,    Inf,   -Inf,         0x1p63,
                                  -0x1p63, 0x1p63 - 1024, 1e300, -1e300,
                                  -0.0,   2.9,   -2.9};
  const std::vector<std::int64_t> Want = {
      Min64, Min64, Min64, Min64, Min64, Max64 - 1023,
      Min64, Min64, 0,     2,     -2};
  Query Q = Query::doubleArray(0).select(lambda({X}, toInt64(X)));
  Bindings B;
  B.bindDoubleArray(0, In.data(), static_cast<std::int64_t>(In.size()));
  auto Check = [&](const QueryResult &Got, const std::string &Where) {
    ASSERT_EQ(Got.rows().size(), Want.size()) << Where;
    for (std::size_t I = 0; I != Want.size(); ++I)
      EXPECT_EQ(Got.rows()[I], Value(Want[I]))
          << Where << ": toInt64(" << In[I] << ") is "
          << valueStr(Got.rows()[I]);
  };
  Check(runReference(Q, B), "reference");
  for (Backend Exec : {Backend::Interp, Backend::Native}) {
    const char *Name = Exec == Backend::Native ? "native" : "interp";
    for (bool Vectorize : {false, true}) {
      CompileOptions O;
      O.Exec = Exec;
      O.Vectorize = Vectorize;
      O.Name = "e2e_toint64";
      Check(compileQuery(Q, O).run(B),
            std::string(Name) + (Vectorize ? " vectorized" : " scalar"));
    }
    dryad::DistOptions O;
    O.Exec = Exec;
    O.Name = "e2e_ptoint64";
    O.Morsels.MinMorsel = 1;
    O.Morsels.MaxMorsel = 2;
    O.Morsels.InlineBelow = 0;
    dryad::DistributedQuery DQ = dryad::DistributedQuery::compile(Q, O);
    ASSERT_TRUE(DQ.parallel()) << DQ.whyNotParallel();
    dryad::ThreadPool Pool(4);
    Check(DQ.runParallel(Pool, B), std::string("runParallel ") + Name);
  }
  // Constants: a literal's conversion, folded through expr::evalExpr on
  // the host; and a constant the C++ compiler propagates into the
  // conversion from an earlier select's local, which it would fold by C's
  // rule (NaN to 0, 1e300 to INT64_MAX) were rt::toInt64 not guarded.
  auto Plus = [&](double C) {
    return Query::doubleArray(0)
        .select(lambda({X}, toInt64(E(C)) + toInt64(X)))
        .sum();
  };
  auto Y = param("y", Type::doubleTy());
  auto Through = [&](double C) {
    return Query::doubleArray(0)
        .select(lambda({X}, E(C)))
        .select(lambda({Y}, toInt64(Y)))
        .sum();
  };
  expectEdgeRows({
      {"toint64_const_nan", Plus(NaN), {0.0}, {}, Value(Min64)},
      {"toint64_const_huge", Plus(1e300), {0.0}, {}, Value(Min64)},
      {"toint64_const_trunc", Plus(-2.9), {0.0}, {}, Value(std::int64_t{-2})},
      {"toint64_local_nan", Through(NaN), {0.0}, {}, Value(Min64)},
      {"toint64_local_huge", Through(1e300), {0.0}, {}, Value(Min64)},
      {"toint64_local_trunc", Through(2.9), {0.0}, {}, Value(std::int64_t{2})},
  });
}

TEST(E2EToInt64, ConstantInASortKeyIsInt64Min) {
  // The sort key is printed unfolded, so its constant reaches
  // rt::toInt64 in the generated TU. INT64_MIN + toInt64(x) wraps for a
  // negative x and puts it last; a constant folded by C's rule (NaN to 0,
  // 1e300 to INT64_MAX) would order the rows otherwise.
  auto X = param("x", Type::doubleTy());
  for (double C : {NaN, -1e300})
    expectSortedRows<double>(
        std::isnan(C) ? "toint64_key_nan" : "toint64_key_huge",
        Query::doubleArray(0).orderBy(
            lambda({X}, toInt64(-E(C)) + toInt64(X))),
        {3.5, -1.5, 0.5, -4.0, 2.0, -1.0},
        {0.5, 2.0, 3.5, -4.0, -1.5, -1.0});
}

//===--------------------------------------------------------------------===//
// Guarded sums and early exits: the generated shapes keep the semantics
//===--------------------------------------------------------------------===//

TEST(E2EGuardedSum, KeptBranchDoesNotTrapOnRejectedElements) {
  // 100 / x is not speculatable, so the Where keeps its branch and the
  // zero elements never reach the division.
  auto X = param("x", Type::int64Ty());
  const E Zero = E(std::int64_t{0});
  expectEdgeRows({
      {"guard_kept_branch",
       Query::int64Array(0)
           .where(lambda({X}, X != Zero))
           .select(lambda({X}, E(std::int64_t{100}) / X))
           .sum(),
       {},
       {4, 0, 5, 0, -20},
       Value(std::int64_t{40})},
  });
}

TEST(E2EGuardedSum, SpeculatedOverflowIsMaskedOut) {
  // x * x overflows on the rejected INT64_MAX; the guarded sum computes
  // it and adds zero in its place.
  auto X = param("x", Type::int64Ty());
  expectEdgeRows({
      {"guard_masks_overflow",
       Query::int64Array(0)
           .where(lambda({X}, X < E(std::int64_t{10})))
           .select(lambda({X}, X * X))
           .sum(),
       {},
       {3, std::numeric_limits<std::int64_t>::max(), -2},
       Value(std::int64_t{13})},
  });
}

TEST(E2EGuardedSum, DoubleSumKeepsNegativeZeroNaNAndInfinity) {
  // The rejected addend is masked to -0.0, which leaves every
  // accumulator unchanged: -0.0 stays -0.0, and an infinite or NaN
  // element past the filter does not leak in.
  auto X = param("x", Type::doubleTy());
  auto A = param("a", Type::doubleTy());
  Query Q = Query::doubleArray(0)
                .where(lambda({X}, X < E(0.0)))
                .aggregate(E(-0.0), lambda({A, X}, A + X));
  expectEdgeRows({
      {"guard_negzero_kept", Q, {1.0, Inf, NaN}, {}, Value(-0.0)},
      {"guard_rejected_inf_nan", Q, {-2.0, Inf, NaN, -3.0}, {},
       Value(-5.0)},
      {"guard_inf_kept", Q, {-Inf, 3.0}, {}, Value(-Inf)},
  });
}

TEST(E2EEarlyExitDeath, TakeWhileDoesNotExitPastATrappingOp) {
  // 10 / x runs before the TakeWhile on every element, so the 0 past
  // the boundary still traps: the loop may not break early.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto X = param("x", Type::int64Ty());
  auto Y = param("y", Type::int64Ty());
  Query Q = Query::int64Array(0)
                .select(lambda({X}, E(std::int64_t{10}) / X))
                .takeWhile(lambda({Y}, Y > E(std::int64_t{1})))
                .sum();
  std::vector<std::int64_t> Data{1, 2, 20, 0};
  Bindings B;
  B.bindInt64Array(0, Data.data(), static_cast<std::int64_t>(Data.size()));
  EXPECT_DEATH(runReference(Q, B), "ST2001.*integer division by zero")
      << "reference";
  for (Backend Exec : {Backend::Interp, Backend::Native})
    for (bool Vectorize : {false, true}) {
      CompileOptions O;
      O.Exec = Exec;
      O.Vectorize = Vectorize;
      O.Name = "e2e_takewhile_trap";
      CompiledQuery CQ = compileQuery(Q, O);
      EXPECT_DEATH(CQ.run(B), "ST2001.*integer division by zero")
          << (Exec == Backend::Native ? "native" : "interp")
          << (Vectorize ? " vectorized" : " scalar");
    }
}

//===--------------------------------------------------------------------===//
// Dense group keys: a key outside [0, NumKeys) traps on every backend
//===--------------------------------------------------------------------===//

TEST(E2EDenseKeyDeath, KeyOutsideTheRangeTrapsWithST2007) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto I = param("i", Type::int64Ty());
  auto C = param("c", Type::int64Ty());
  Query Q = Query::int64Array(0).groupByAggregateDense(
      lambda({I}, I), E(std::int64_t{4}), E(std::int64_t{0}),
      lambda({C, I}, C + E(std::int64_t{1})));
  std::vector<std::pair<const char *, CompiledQuery>> Compiled;
  for (Backend Exec : {Backend::Interp, Backend::Native}) {
    CompileOptions O;
    O.Exec = Exec;
    O.Name = "e2e_dense_key";
    Compiled.emplace_back(Exec == Backend::Native ? "native" : "interp",
                          compileQuery(Q, O));
  }
  for (std::int64_t Key : {std::int64_t{-1}, std::int64_t{4}}) {
    std::vector<std::int64_t> Data{Key};
    Bindings B;
    B.bindInt64Array(0, Data.data(), 1);
    EXPECT_DEATH(runReference(Q, B), "ST2007.*dense group key out of range")
        << "reference, key " << Key;
    for (const auto &[Name, CQ] : Compiled)
      EXPECT_DEATH(CQ.run(B), "ST2007.*dense group key out of range")
          << Name << ", key " << Key;
  }
}
