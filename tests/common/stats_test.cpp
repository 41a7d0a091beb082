#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace str {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MinMax) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

}  // namespace
}  // namespace str
