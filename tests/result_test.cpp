//===- tests/result_test.cpp - Results as typed columns --------*- C++ -*-===//
//
// One table of result shapes, from a scalar to a GroupBy's (key, bag)
// pairs, over edge inputs (INT64_MIN/MAX, -0.0, a NaN with a payload,
// ±inf, subnormals), run on every producer of a QueryResult: the native
// loop, the interpreter with the batch executor on and off, the reference,
// the §6 combine over tiny morsels, and a serve answer decoded by a
// WireClient. Each result's numRows(), typed columns and rows() agree bit
// for bit, and each matches the reference bit for bit (the wire spells a
// NaN without its payload). Then the sharing rules: a copy shares the
// columns, and concurrent rows() callers see one Value view.
//
//===----------------------------------------------------------------------===//

#include "dryad/Dist.h"
#include "expr/Dsl.h"
#include "serve/Wire.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "gtest/gtest.h"

using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double D) { return std::bit_cast<std::uint64_t>(D); }

/// The double edge inputs: a NaN with a payload first (so firstOrDefault
/// passes it through), signed zeros, infinities, subnormals.
std::vector<double> edgeDoubles() {
  return {std::bit_cast<double>(std::uint64_t{0x7ff800000000beefull}),
          -0.0,
          1.5,
          Inf,
          0.0,
          5e-324, // the least subnormal
          -Inf,
          std::bit_cast<double>(std::uint64_t{0x800fffffffffffffull}),
          -2.5,
          1e300,
          -0.0,
          3.0};
}

std::vector<std::int64_t> edgeInt64s() {
  return {INT64_MIN, INT64_MAX, -1, 0, 7, INT64_MIN + 1, 42, -7, 3, 5};
}

/// Where a shape reads source slot 0 from: the int64 edge inputs, the
/// double ones, or the double ones as points of 3.
enum class Source { Int64, Double, Points };

/// One result shape. Every shape computes exactly (integer sums wrap; the
/// rest move input values), so every producer must match the reference
/// bit for bit.
struct Shape {
  const char *Name;
  Query Q;
  Source Src;
};

std::vector<Shape> shapes() {
  auto X = param("x", Type::doubleTy());
  auto I = param("i", Type::int64Ty());
  auto A = param("a", Type::int64Ty());
  auto B = param("b", Type::int64Ty());
  auto P = param("p", Type::vecTy());
  return {
      {"scalar_bool", Query::int64Array(0).contains(E(INT64_MAX)),
       Source::Int64},
      {"scalar_int64", Query::int64Array(0).sum(), Source::Int64},
      {"scalar_double", Query::doubleArray(0).firstOrDefault(E(1.0)),
       Source::Double},
      {"double_toarray", Query::doubleArray(0).toArray(), Source::Double},
      {"int64_toarray", Query::int64Array(0).toArray(), Source::Int64},
      {"orderby_toarray",
       Query::doubleArray(0).orderBy(lambda({X}, X)).toArray(),
       Source::Double},
      {"gba_int64_pairs",
       Query::int64Array(0).groupByAggregate(
           lambda({I}, I % E(3)), E(0), lambda({A, I}, A + I),
           expr::Lambda(), lambda({A, B}, A + B)),
       Source::Int64},
      {"groupby_bags",
       Query::doubleArray(0).groupBy(
           lambda({X}, cond(X > E(0.0), E(1), E(0)))),
       Source::Double},
      // Vec rows that the §6 combine concatenates: its end offsets must
      // move past the payload already appended.
      {"vec_rows", Query::pointArray(0).where(lambda({P}, len(P) > E(0))),
       Source::Points},
      {"empty",
       Query::doubleArray(0).where(lambda({X}, X > E(1e308) && X < E(Inf)))
           .toArray(),
       Source::Double},
  };
}

/// Bit-for-bit equality of two values; with \p NanPayloads off, two NaNs
/// of one sign match whatever their payloads.
bool sameBits(const Value &A, const Value &B, bool NanPayloads) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case TypeKind::Bool:
    return A.asBool() == B.asBool();
  case TypeKind::Int64:
    return A.asInt64() == B.asInt64();
  case TypeKind::Double: {
    double X = A.asDouble(), Y = B.asDouble();
    if (!NanPayloads && X != X && Y != Y)
      return std::signbit(X) == std::signbit(Y);
    return bits(X) == bits(Y);
  }
  case TypeKind::Vec: {
    VecView V = A.asVec(), W = B.asVec();
    if (V.Len != W.Len)
      return false;
    for (std::int64_t K = 0; K != V.Len; ++K)
      if (!sameBits(Value(V[K]), Value(W[K]), NanPayloads))
        return false;
    return true;
  }
  case TypeKind::Pair:
    return sameBits(A.first(), B.first(), NanPayloads) &&
           sameBits(A.second(), B.second(), NanPayloads);
  }
  return false;
}

/// The columns a row of type \p Ty takes: one per scalar cell, two per
/// vec (end offsets, payload).
std::size_t columnsOf(const Type &Ty) {
  if (Ty.isPair())
    return columnsOf(*Ty.first()) + columnsOf(*Ty.second());
  return Ty.isVec() ? 2 : 1;
}

/// Checks row \p Row's cells from column \p C on against \p V, advancing
/// \p C past them: the typed columns hold exactly what rows() shows, and a
/// vec value points into its payload column.
void expectCells(const QueryResult &R, std::int64_t Row, const Value &V,
                 std::size_t &C) {
  switch (V.kind()) {
  case TypeKind::Bool:
    EXPECT_EQ(R.int64Column(C++)[Row], V.asBool() ? 1 : 0);
    return;
  case TypeKind::Int64:
    EXPECT_EQ(R.int64Column(C++)[Row], V.asInt64());
    return;
  case TypeKind::Double:
    EXPECT_EQ(bits(R.doubleColumn(C++)[Row]), bits(V.asDouble()));
    return;
  case TypeKind::Vec: {
    std::span<const std::int64_t> Ends = R.int64Column(C);
    std::span<const double> Data = R.doubleColumn(C + 1);
    C += 2;
    std::int64_t Begin = Row ? Ends[Row - 1] : 0;
    EXPECT_EQ(V.asVec().Data, Data.data() + Begin);
    EXPECT_EQ(V.asVec().Len, Ends[Row] - Begin);
    return;
  }
  case TypeKind::Pair:
    expectCells(R, Row, V.first(), C);
    expectCells(R, Row, V.second(), C);
    return;
  }
}

/// numRows(), the typed columns and rows() of \p R agree.
void expectSelfConsistent(const QueryResult &R) {
  const std::vector<Value> &Rows = R.rows();
  ASSERT_EQ(static_cast<std::int64_t>(Rows.size()), R.numRows());
  if (!R.rowType()) { // a wire answer with no rows spells no row type
    EXPECT_EQ(R.numRows(), 0);
    EXPECT_EQ(R.numColumns(), 0u);
    return;
  }
  const std::size_t Cols = columnsOf(*R.rowType());
  ASSERT_EQ(R.numColumns(), Cols);
  for (std::size_t Row = 0; Row != Rows.size(); ++Row) {
    std::size_t C = 0;
    expectCells(R, static_cast<std::int64_t>(Row), Rows[Row], C);
    EXPECT_EQ(C, Cols) << "row " << Row;
  }
}

/// \p Got holds the reference's rows, bit for bit.
void expectSameRows(const QueryResult &Got, const QueryResult &Want,
                    bool NanPayloads = true) {
  EXPECT_EQ(Got.isScalar(), Want.isScalar());
  ASSERT_EQ(Got.numRows(), Want.numRows());
  for (std::size_t Row = 0; Row != Want.rows().size(); ++Row)
    EXPECT_TRUE(sameBits(Got.rows()[Row], Want.rows()[Row], NanPayloads))
        << "row " << Row;
}

CompileOptions options(Backend Exec, bool Vectorize, const std::string &Name) {
  CompileOptions O;
  O.Exec = Exec;
  O.Vectorize = Vectorize;
  O.Name = Name;
  return O;
}

/// A served connection whose one prepared handle answers with whatever
/// result the test sets: what a client decodes off the wire.
class WireLoop {
public:
  WireLoop() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    serve::Frontend F;
    F.Prepare = [](const std::string &, std::string &) { return true; };
    F.Execute = [this](std::size_t, std::chrono::milliseconds) {
      serve::Response Rsp;
      Rsp.St = serve::Status::Ok;
      std::lock_guard<std::mutex> Lock(Mu);
      Rsp.Result = Next;
      Rsp.NativePlan = true;
      return Rsp;
    };
    F.Stats = [] { return std::string("{}"); };
    Server = std::thread([F, this] { serve::serveConnection(F, Fds[0]); });
    Client = std::make_unique<serve::WireClient>(Fds[1]);
    std::uint64_t H = 99;
    std::string Err;
    EXPECT_TRUE(Client->prepare("steno-fuzz v1\nend\n", H, Err)) << Err;
    EXPECT_EQ(H, 0u);
  }
  ~WireLoop() {
    Client->quit();
    Server.join();
    ::close(Fds[0]);
    ::close(Fds[1]);
  }

  /// \p R, rendered by the server and decoded by the client.
  QueryResult roundTrip(const QueryResult &R) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Next = R;
    }
    serve::Response Out;
    EXPECT_TRUE(Client->exec(0, -1, 0, Out));
    EXPECT_EQ(Out.St, serve::Status::Ok) << Out.Message;
    return Out.Result;
  }

private:
  int Fds[2] = {-1, -1};
  std::mutex Mu;
  QueryResult Next;
  std::thread Server;
  std::unique_ptr<serve::WireClient> Client;
};

} // namespace

TEST(ResultShapes, EveryProducerAgreesWithTheReference) {
  std::vector<double> Doubles = edgeDoubles();
  std::vector<std::int64_t> Ints = edgeInt64s();
  dryad::ThreadPool Pool(4);
  WireLoop Wire;
  for (const Shape &S : shapes()) {
    SCOPED_TRACE(S.Name);
    Bindings B;
    const auto NumDoubles = static_cast<std::int64_t>(Doubles.size());
    if (S.Src == Source::Int64)
      B.bindInt64Array(0, Ints.data(), static_cast<std::int64_t>(Ints.size()));
    else if (S.Src == Source::Double)
      B.bindDoubleArray(0, Doubles.data(), NumDoubles);
    else
      B.bindPointArray(0, Doubles.data(), NumDoubles / 3, 3);
    QueryResult Ref = runReference(S.Q, B);
    expectSelfConsistent(Ref);
    ASSERT_TRUE(Ref.rowType());
    if (std::string(S.Name) == "empty")
      EXPECT_EQ(Ref.numRows(), 0);
    else
      EXPECT_GT(Ref.numRows(), 0);

    std::string Name = std::string("result_") + S.Name;
    QueryResult Native =
        compileQuery(S.Q, options(Backend::Native, false, Name)).run(B);
    struct Got {
      const char *Backend;
      QueryResult R;
    } Runs[] = {
        {"native", Native},
        {"interp_vec",
         compileQuery(S.Q, options(Backend::Interp, true, Name)).run(B)},
        {"interp_scalar",
         compileQuery(S.Q, options(Backend::Interp, false, Name)).run(B)},
        {"wire", Wire.roundTrip(Native)},
    };
    dryad::DistOptions DO;
    DO.Name = Name + "_par";
    DO.WarnSequentialFallback = false;
    DO.Morsels.MinMorsel = 1;
    DO.Morsels.MaxMorsel = 2;
    DO.Morsels.InlineBelow = 0;
    QueryResult Par =
        dryad::DistributedQuery::compile(S.Q, DO).runParallel(Pool, B);

    for (const Got &G : Runs) {
      SCOPED_TRACE(G.Backend);
      expectSelfConsistent(G.R);
      expectSameRows(G.R, Ref, std::string(G.Backend) != "wire");
      if (G.R.numRows()) {
        EXPECT_TRUE(sameType(G.R.rowType(), Ref.rowType()));
      }
    }
    SCOPED_TRACE("parallel");
    expectSelfConsistent(Par);
    expectSameRows(Par, Ref);
    EXPECT_TRUE(sameType(Par.rowType(), Ref.rowType()));
  }
}

TEST(ResultShapes, SortHandsItsBufferOverUnchanged) {
  // orderBy(..).toArray() natively: the one double column is the sorted
  // input, NaN payload and signed zeros included.
  std::vector<double> Doubles = edgeDoubles();
  Bindings B;
  B.bindDoubleArray(0, Doubles.data(),
                    static_cast<std::int64_t>(Doubles.size()));
  auto X = param("x", Type::doubleTy());
  QueryResult R =
      compileQuery(Query::doubleArray(0).orderBy(lambda({X}, X)).toArray(),
                   options(Backend::Native, false, "result_sort"))
          .run(B);
  ASSERT_EQ(R.numColumns(), 1u);
  std::span<const double> Col = R.doubleColumn(0);
  ASSERT_EQ(Col.size(), Doubles.size());
  // -inf first, NaN last, the two -0.0s and the 0.0 in input order.
  EXPECT_EQ(Col.front(), -Inf);
  EXPECT_EQ(bits(Col.back()), bits(Doubles[0]));
  std::vector<std::uint64_t> Zeros;
  for (double D : Col)
    if (D == 0.0)
      Zeros.push_back(bits(D));
  EXPECT_EQ(Zeros, (std::vector<std::uint64_t>{bits(-0.0), bits(0.0),
                                               bits(-0.0)}));
}

TEST(ResultSharing, CopiesShareTheColumns) {
  ResultBuilder Rows(false, Type::pairTy(Type::int64Ty(), Type::vecTy()));
  const double Bag[] = {1.0, -0.0, 2.5};
  Rows.add(Value::makePair(Value(std::int64_t{4}), Value(VecView{Bag, 3})));
  Rows.add(Value::makePair(Value(std::int64_t{-4}), Value(VecView{Bag, 0})));
  QueryResult R = Rows.finish();
  QueryResult Copy = R;
  EXPECT_EQ(Copy.int64Column(0).data(), R.int64Column(0).data());
  EXPECT_EQ(Copy.doubleColumn(2).data(), R.doubleColumn(2).data());
  EXPECT_EQ(&Copy.rows(), &R.rows());
  // The payload is the result's own copy, and the views point into it.
  EXPECT_NE(R.doubleColumn(2).data(), Bag);
  EXPECT_EQ(R.rows()[0].second().asVec().Data, R.doubleColumn(2).data());
  EXPECT_EQ(R.int64Column(1)[0], 3);
  EXPECT_EQ(R.int64Column(1)[1], 3);
  expectSelfConsistent(R);
}

TEST(ResultSharing, ConcurrentRowsCallersSeeOneView) {
  std::vector<double> Xs(20000);
  for (std::size_t I = 0; I != Xs.size(); ++I)
    Xs[I] = static_cast<double>((I * 7919) % 1000) - 500.0;
  Bindings B;
  B.bindDoubleArray(0, Xs.data(), static_cast<std::int64_t>(Xs.size()));
  auto X = param("x", Type::doubleTy());
  // A GroupBy's (key, bag) rows: building their view allocates pairs.
  const QueryResult R =
      compileQuery(Query::doubleArray(0).groupBy(
                       lambda({X}, toInt64(X) % E(97))),
                   options(Backend::Native, false, "result_concurrent"))
          .run(B);
  ASSERT_GT(R.numRows(), 0);
  const std::vector<Value> *Seen[8] = {};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&R, &Seen, T] { Seen[T] = &R.rows(); });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T != 8; ++T)
    EXPECT_EQ(Seen[T], Seen[0]) << "thread " << T;
  EXPECT_EQ(static_cast<std::int64_t>(Seen[0]->size()), R.numRows());
  expectSelfConsistent(R);
}
