//===- tests/rt_test.cpp - Generated-code runtime tests --------*- C++ -*-===//

// First, before any other header: what steno/Rt.h pulls in on its own.
#include "steno/Rt.h"

namespace {

/// The heavy standard headers steno/Rt.h included, read from libstdc++'s
/// include guards. Every generated TU parses Rt.h, and each of these
/// costs g++ 0.15-0.5 s to parse, more than compiling the query's loop.
constexpr const char *RtHeavyIncludes = ""
#ifdef _GLIBCXX_CHRONO
                                        " <chrono>"
#endif
#ifdef _GLIBCXX_CMATH
                                        " <cmath>"
#endif
#ifdef _GLIBCXX_VECTOR
                                        " <vector>"
#endif
#ifdef _GLIBCXX_UNORDERED_MAP
                                        " <unordered_map>"
#endif
#ifdef _GLIBCXX_ALGORITHM
                                        " <algorithm>"
#endif
    ;

} // namespace

#include "steno/RtSinks.h"

#include "gtest/gtest.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

using namespace steno::rt;

TEST(RtLeanCore, IncludesNoHeavyStandardHeader) {
  EXPECT_STREQ(RtHeavyIncludes, "")
      << "steno/Rt.h must stay the lean core; move what needs these "
         "headers to steno/RtSinks.h or into the generated TU";
}

TEST(RtGroupSink, InsertionOrderPreserved) {
  GroupSink S;
  S.put(5, 1.0);
  S.put(2, 2.0);
  S.put(5, 3.0);
  ASSERT_EQ(S.size(), 2);
  Pair<std::int64_t, VecView> G0 = S.group(0);
  EXPECT_EQ(G0.First, 5);
  ASSERT_EQ(G0.Second.Len, 2);
  EXPECT_DOUBLE_EQ(G0.Second.Data[0], 1.0);
  EXPECT_DOUBLE_EQ(G0.Second.Data[1], 3.0);
  EXPECT_EQ(S.group(1).First, 2);
}

TEST(RtGroupSink, ManyKeys) {
  GroupSink S;
  for (int I = 0; I < 1000; ++I)
    S.put(I % 37, static_cast<double>(I));
  EXPECT_EQ(S.size(), 37);
  std::int64_t Total = 0;
  for (std::int64_t I = 0; I != S.size(); ++I)
    Total += S.group(I).Second.Len;
  EXPECT_EQ(Total, 1000);
}

TEST(RtGroupAggSink, SlotInsertsSeedOnce) {
  GroupAggSink<double> S;
  double &A = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(A, 100.0);
  A = 150.0;
  double &B = S.slot(7, 100.0);
  EXPECT_DOUBLE_EQ(B, 150.0) << "existing accumulator, not a fresh seed";
  EXPECT_EQ(S.size(), 1);
}

TEST(RtGroupAggSink, KeyAndAccByIndex) {
  GroupAggSink<std::int64_t> S;
  S.slot(9, 0) += 1;
  S.slot(4, 0) += 2;
  S.slot(9, 0) += 3;
  ASSERT_EQ(S.size(), 2);
  EXPECT_EQ(S.keyAt(0), 9);
  EXPECT_EQ(S.accAt(0), 4);
  EXPECT_EQ(S.keyAt(1), 4);
  EXPECT_EQ(S.accAt(1), 2);
}

TEST(RtGroupAggSink, PairAccumulators) {
  GroupAggSink<Pair<double, std::int64_t>> S;
  auto &A = S.slot(0, Pair<double, std::int64_t>{0.0, 0});
  A = Pair<double, std::int64_t>{A.First + 2.5, A.Second + 1};
  EXPECT_DOUBLE_EQ(S.accAt(0).First, 2.5);
  EXPECT_EQ(S.accAt(0).Second, 1);
}

TEST(RtDenseAggSink, SeededAndIndexed) {
  DenseAggSink<double> S(4, 1.5);
  ASSERT_EQ(S.size(), 4);
  for (std::int64_t I = 0; I != 4; ++I) {
    EXPECT_EQ(S.keyAt(I), I);
    EXPECT_DOUBLE_EQ(S.accAt(I), 1.5);
  }
  S.slot(2) += 10.0;
  EXPECT_DOUBLE_EQ(S.accAt(2), 11.5);
  EXPECT_DOUBLE_EQ(S.accAt(1), 1.5);
}

TEST(RtDenseAggSink, ZeroAndNegativeBounds) {
  DenseAggSink<double> Empty(0, 0.0);
  EXPECT_EQ(Empty.size(), 0);
  DenseAggSink<double> Neg(-3, 0.0);
  EXPECT_EQ(Neg.size(), 0);
}

TEST(RtDenseAggSinkDeath, KeyOutsideTheRangeTrapsWithST2007) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DenseAggSink<double> S(4, 0.0);
  EXPECT_DEATH(S.slot(-1), "ST2007.*dense group key out of range");
  EXPECT_DEATH(S.slot(4), "ST2007.*dense group key out of range");
  DenseAggSink<double> Empty(-3, 0.0);
  EXPECT_DEATH(Empty.slot(0), "ST2007.*dense group key out of range");
}

//===--------------------------------------------------------------------===//
// Scalar operators
//===--------------------------------------------------------------------===//

TEST(RtOps, DivTrapsOnZeroAndOnInt64MinOverMinusOne) {
  EXPECT_TRUE(divTraps(7, 0));
  EXPECT_TRUE(divTraps(INT64_MIN, 0));
  EXPECT_TRUE(divTraps(INT64_MIN, -1));
  EXPECT_FALSE(divTraps(INT64_MIN + 1, -1));
  EXPECT_FALSE(divTraps(INT64_MIN, 1));
  EXPECT_FALSE(divTraps(INT64_MIN, -2));
  EXPECT_EQ(ckdiv(-7, 2), -3);
  EXPECT_EQ(ckmod(-7, 2), -1);
}

TEST(RtOps, DoubleAbsClearsOnlyTheSignBit) {
  const double Nan = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  for (double X : {-0.0, 0.0, -2.5, 2.5, -Inf, Inf, Nan, -Nan,
                   -std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(steno::rt::abs(X)),
              std::bit_cast<std::uint64_t>(std::fabs(X)))
        << X;
  }
  EXPECT_FALSE(std::signbit(steno::rt::abs(-0.0)));
  static_assert(steno::rt::abs(-1.5) == 1.5);
}

//===--------------------------------------------------------------------===//
// Profile timer
//===--------------------------------------------------------------------===//

TEST(RtProfTimer, ChargesSteadyClockNanosOnceAndAccumulates) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t Slot = 5;
  Clock::time_point Before = Clock::now();
  ProfTimer T(&Slot);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  T.stop();
  auto Outer = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - Before)
                   .count();
  EXPECT_GE(Slot, 5u + 2000000u);
  EXPECT_LE(Slot, 5u + static_cast<std::uint64_t>(Outer));
  std::uint64_t Charged = Slot;
  T.stop(); // disarmed: a second stop, and the destructor, charge nothing
  EXPECT_EQ(Slot, Charged);
}

TEST(RtProfTimer, DestructorChargesAnUnstoppedTimer) {
  std::uint64_t Slot = 0;
  {
    ProfTimer T(&Slot);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(Slot, 1000000u);
  ProfTimer Discard(nullptr); // a null slot discards
  Discard.stop();
}

//===--------------------------------------------------------------------===//
// Emitter / cell flattening
//===--------------------------------------------------------------------===//

namespace {

struct CapturedRows {
  std::vector<std::vector<Cell>> Rows;

  static void callback(void *Ctx, const Cell *Cells, std::int64_t N) {
    auto *Self = static_cast<CapturedRows *>(Ctx);
    Self->Rows.emplace_back(Cells, Cells + N);
  }

  Emitter emitter() { return Emitter{this, &callback}; }
};

} // namespace

TEST(RtEmit, ScalarCellKinds) {
  CapturedRows Out;
  Emitter E = Out.emitter();
  emitRow(&E, 2.5);
  emitRow(&E, std::int64_t{42});
  emitRow(&E, true);
  ASSERT_EQ(Out.Rows.size(), 3u);
  EXPECT_EQ(Out.Rows[0][0].Kind, 2);
  EXPECT_DOUBLE_EQ(Out.Rows[0][0].D, 2.5);
  EXPECT_EQ(Out.Rows[1][0].Kind, 1);
  EXPECT_EQ(Out.Rows[1][0].I, 42);
  EXPECT_EQ(Out.Rows[2][0].Kind, 0);
  EXPECT_EQ(Out.Rows[2][0].I, 1);
}

TEST(RtEmit, VecCellBorrows) {
  double Buf[] = {1, 2, 3};
  CapturedRows Out;
  Emitter E = Out.emitter();
  emitRow(&E, VecView{Buf, 3});
  ASSERT_EQ(Out.Rows.size(), 1u);
  EXPECT_EQ(Out.Rows[0][0].Kind, 3);
  EXPECT_EQ(Out.Rows[0][0].VData, Buf);
  EXPECT_EQ(Out.Rows[0][0].VLen, 3);
}

TEST(RtEmit, PairFlattensPreOrder) {
  CapturedRows Out;
  Emitter E = Out.emitter();
  Pair<std::int64_t, Pair<double, bool>> Row{7, {1.5, true}};
  emitRow(&E, Row);
  ASSERT_EQ(Out.Rows.size(), 1u);
  ASSERT_EQ(Out.Rows[0].size(), 3u);
  EXPECT_EQ(Out.Rows[0][0].I, 7);
  EXPECT_DOUBLE_EQ(Out.Rows[0][1].D, 1.5);
  EXPECT_EQ(Out.Rows[0][2].I, 1);
}

TEST(RtEmit, CellCounts) {
  EXPECT_EQ(CellCount<double>::value, 1);
  EXPECT_EQ((CellCount<Pair<double, std::int64_t>>::value), 2);
  EXPECT_EQ((CellCount<Pair<Pair<bool, double>, VecView>>::value), 3);
}

TEST(RtBindings, CaptureValueDefaults) {
  CaptureValue V;
  EXPECT_EQ(V.I, 0);
  EXPECT_EQ(V.VData, nullptr);
  SourceBinding S;
  EXPECT_EQ(S.Dim, 1);
}
