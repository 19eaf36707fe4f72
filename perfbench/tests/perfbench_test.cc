// Unit tests of the benchmark's own code: the percentile rule, the
// host-speed-corrected clock and the reference computations the
// workloads check the program against.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "reference.h"

namespace perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 50.0);
  EXPECT_EQ(TailPercentile(39), 50.0);   // under forty: median alone
  EXPECT_EQ(TailPercentile(40), 75.0);   // 40 * 0.25 = 10 beyond
  EXPECT_EQ(TailPercentile(99), 75.0);   // p90 would leave 9.9
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_EQ(TailPercentile(5000000), 99.99);
}

TEST(QuantileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Median(v), 3.0);
  EXPECT_EQ(Quantile(v, 0.2), 1.0);
  EXPECT_EQ(Quantile(v, 0.21), 2.0);
  EXPECT_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(HostClockTest, ScalesEachChunkByItsProbes) {
  HostClock clock;
  const auto busy_until = Clock::now() + std::chrono::milliseconds(2);
  while (Clock::now() < busy_until) {
  }
  const double slowdown = clock.Tick();
  EXPECT_GE(clock.raw_s(), 0.002);
  EXPECT_GT(slowdown, 0.0);
  // One chunk: scaled time is raw time over the chunk's slowdown.
  EXPECT_NEAR(clock.scaled_s() * slowdown, clock.raw_s(), 1e-12);
  const double raw = clock.raw_s();
  clock.TickAfter(60000.0);  // the chunk is younger than a minute
  EXPECT_EQ(clock.raw_s(), raw);
  clock.Tick();
  EXPECT_GT(clock.raw_s(), raw);
}

TEST(HostClockTest, FirstChunkStartsAfterTheOpeningProbeAndEndsAtEnd) {
  HostClock clock(Clock::now() - std::chrono::seconds(1));
  const auto before = Clock::now();
  clock.ProbeFirst();
  const auto after = Clock::now();
  const auto end = after + std::chrono::milliseconds(2);
  while (Clock::now() < end + std::chrono::milliseconds(1)) {
  }
  const double slowdown = clock.Tick(end);
  // The second before the probe and the time past `end` are not counted.
  EXPECT_LE(clock.raw_s(), SecondsBetween(before, end));
  EXPECT_GE(clock.raw_s(), SecondsBetween(after, end));
  EXPECT_NEAR(clock.scaled_s() * slowdown, clock.raw_s(), 1e-12);
}

TEST(RefRmseTest, HandWorked) {
  // Errors 1, -1, 2, 0: mean square 6/4.
  EXPECT_DOUBLE_EQ(RefRmse({1, 1, 3, 4}, {0, 2, 1, 4}), std::sqrt(1.5));
  EXPECT_EQ(RefRmse({0.5}, {0.5}), 0.0);
}

TEST(RefNdcgTest, HandWorked) {
  // Truths 9 > 7 > 5 > 1; top_n = 2 makes {9, 7} relevant.
  const std::vector<double> truths = {9, 1, 7, 5};
  // Ranking 9, 1, 7, 5: hits at positions 1 and 3.
  const std::vector<double> preds = {0.9, 0.8, 0.7, 0.1};
  const double dcg = 1.0 + 1.0 / std::log2(4.0);
  const double idcg = 1.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(RefNdcg(preds, truths, 3, 2), dcg / idcg, 1e-15);
  EXPECT_NEAR(RefPrecision(preds, truths, 3, 2), 2.0 / 3.0, 1e-15);
  // Top-1 hit only.
  EXPECT_NEAR(RefNdcg(preds, truths, 1, 2), 1.0, 1e-15);
  // Perfect ranking scores 1.
  EXPECT_NEAR(RefNdcg(truths, truths, 3, 2), 1.0, 1e-15);
  EXPECT_NEAR(RefPrecision(truths, truths, 2, 2), 1.0, 1e-15);
}

TEST(RefNdcgTest, TiedPredictionsShareTheirGroupsRelevance) {
  // One relevant item (truth 9) tied with an irrelevant one at the top:
  // each top-2 position holds half a relevant item.
  const std::vector<double> truths = {9, 1, 0};
  const std::vector<double> preds = {0.5, 0.5, 0.1};
  EXPECT_NEAR(RefNdcg(preds, truths, 1, 1), 0.5, 1e-15);
  EXPECT_NEAR(RefNdcg(preds, truths, 2, 1), 0.5 + 0.5 / std::log2(3.0),
              1e-15);
  EXPECT_NEAR(RefPrecision(preds, truths, 1, 1), 0.5, 1e-15);
}

TEST(RefNdcgTest, BoundaryTiesInTruthAreAllRelevant) {
  // top_n = 1 but truths tie at the top: both are relevant.
  const std::vector<double> truths = {4, 4, 1};
  EXPECT_NEAR(RefPrecision({0.1, 0.2, 0.9}, truths, 2, 1), 0.5, 1e-15);
  EXPECT_NEAR(RefNdcg({0.9, 0.8, 0.1}, truths, 2, 1), 1.0, 1e-15);
}

TEST(RefTopKTest, OrdersByScoreThenRegionAndDedupes) {
  std::vector<double> scores(6, 0.0);
  scores[1] = 0.5;
  scores[2] = 0.9;
  scores[4] = 0.5;
  scores[5] = 0.1;
  const auto top = RefTopK({5, 4, 2, 1, 4}, scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].region, 2);
  EXPECT_EQ(top[1].region, 1);  // ties by ascending region
  EXPECT_EQ(top[2].region, 4);
  EXPECT_EQ(RefTopK({1, 2}, scores, 5).size(), 2u);
}

class ServedRankingTest : public ::testing::Test {
 protected:
  ServedRankingTest() : scores(5, 0.0) {
    scores[0] = 0.2;
    scores[1] = 0.8;
    scores[2] = 0.4;
    scores[3] = 0.6;
  }
  std::vector<double> scores;
  const std::vector<int> candidates = {0, 1, 2, 3};
};

TEST_F(ServedRankingTest, AcceptsTheExactRanking) {
  EXPECT_EQ(CheckServedRanking(candidates, scores, 3,
                               {{1, 0.8}, {3, 0.6}, {2, 0.4}}),
            "");
}

TEST_F(ServedRankingTest, RejectsTwoSwappedRegions) {
  // Regions 3 and 2 swapped, each keeping its own score.
  EXPECT_NE(CheckServedRanking(candidates, scores, 3,
                               {{1, 0.8}, {2, 0.4}, {3, 0.6}}),
            "");
  // Regions swapped but scores left in place: order looks sorted, yet the
  // regions are wrong.
  EXPECT_NE(CheckServedRanking(candidates, scores, 3,
                               {{1, 0.8}, {2, 0.6}, {3, 0.4}}),
            "");
}

TEST_F(ServedRankingTest, RejectsAScoreThatDiffersInTheLastBit) {
  EXPECT_NE(CheckServedRanking(candidates, scores, 3,
                               {{1, std::nextafter(0.8, 1.0)},
                                {3, 0.6},
                                {2, 0.4}}),
            "");
}

TEST_F(ServedRankingTest, RejectsAWrongLength) {
  EXPECT_NE(CheckServedRanking(candidates, scores, 3, {{1, 0.8}, {3, 0.6}}),
            "");
}

}  // namespace
}  // namespace perfbench
