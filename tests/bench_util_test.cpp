//===- tests/bench_util_test.cpp - The bench harness's arithmetic --------===//
//
// Checks the statistics every per-figure bench reports and gates on
// (bench/BenchUtil.h) on fixed samples: quantiles, the round order, and
// the median of per-round ratios. Nothing here reads a clock.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace steno::bench;

namespace {

TEST(BenchStats, OddSampleQuantilesAreOrderStatistics) {
  Summary S = summarize({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(S.Median, 3.0);
  EXPECT_DOUBLE_EQ(S.Q1, 2.0);
  EXPECT_DOUBLE_EQ(S.Q3, 4.0);
  EXPECT_DOUBLE_EQ(S.Best, 1.0);
}

TEST(BenchStats, EvenSampleQuantilesInterpolate) {
  Summary S = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(S.Median, 2.5);
  EXPECT_DOUBLE_EQ(S.Q1, 1.75);
  EXPECT_DOUBLE_EQ(S.Q3, 3.25);
  EXPECT_DOUBLE_EQ(S.Best, 1.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
}

TEST(BenchStats, SingleSampleIsEveryQuantile) {
  Summary S = summarize({7.0});
  EXPECT_DOUBLE_EQ(S.Median, 7.0);
  EXPECT_DOUBLE_EQ(S.Q1, 7.0);
  EXPECT_DOUBLE_EQ(S.Q3, 7.0);
  EXPECT_DOUBLE_EQ(S.Best, 7.0);
}

TEST(BenchRounds, EveryRoundRunsEachVariantOnce) {
  for (int N = 1; N <= 5; ++N)
    for (const std::vector<int> &Order : roundOrders(N, 30)) {
      std::vector<int> Sorted = Order;
      std::sort(Sorted.begin(), Sorted.end());
      for (int V = 0; V != N; ++V)
        EXPECT_EQ(Sorted[static_cast<std::size_t>(V)], V);
    }
}

TEST(BenchRounds, NoVariantAlwaysRunsFirst) {
  for (int N = 2; N <= 16; ++N) {
    std::vector<std::vector<int>> Orders = roundOrders(N, 2);
    EXPECT_NE(Orders[0].front(), Orders[1].front()) << N << " variants";
  }
}

TEST(BenchRounds, EachPairSwapsWithinEveryTwoRounds) {
  for (int N = 2; N <= 5; ++N) {
    std::vector<std::vector<int>> Orders = roundOrders(N, 40);
    for (std::size_t R = 0; R + 1 < Orders.size(); R += 2) {
      auto pos = [](const std::vector<int> &Order, int V) {
        return std::find(Order.begin(), Order.end(), V) - Order.begin();
      };
      for (int A = 0; A != N; ++A)
        for (int B = A + 1; B != N; ++B)
          EXPECT_NE(pos(Orders[R], A) < pos(Orders[R], B),
                    pos(Orders[R + 1], A) < pos(Orders[R + 1], B))
              << N << " variants, rounds " << R << " and " << R + 1;
    }
  }
}

TEST(BenchRounds, FourVariantsCycleThroughAllTwentyFourOrders) {
  std::vector<std::vector<int>> Orders = roundOrders(4, 48);
  std::set<std::vector<int>> Seen(Orders.begin(), Orders.end());
  EXPECT_EQ(Seen.size(), 24u);
  for (const std::vector<int> &Order : Seen)
    EXPECT_EQ(std::count(Orders.begin(), Orders.end(), Order), 2);
}

// Variant A takes 1.1x variant B's time in every round. The host runs at
// half speed in round 2, and B was preempted in round 1: the median of
// per-round ratios recovers 1.1, the ratio of the medians does not.
TEST(BenchRounds, MedianPerRoundRatioIsNotTheRatioOfMedians) {
  const std::vector<double> A = {1.1, 1.1, 2.2};
  const std::vector<double> B = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(medianRatio(A, B), 1.1);
  EXPECT_DOUBLE_EQ(median(A) / median(B), 0.55);
  EXPECT_NEAR(medianDifference(A, B), 0.1, 1e-12);
  EXPECT_NEAR(median(A) - median(B), -0.9, 1e-12);
}

} // namespace
