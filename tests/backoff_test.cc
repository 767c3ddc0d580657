// The library's one retry schedule (common/backoff.h), which
// core::SupervisedRunner sleeps through before every rollback.

#include "common/backoff.h"

#include <gtest/gtest.h>

namespace fairkm {
namespace {

TEST(BackoffTest, CeilingGrowsAndClamps) {
  const auto ceiling = [](int retry) {
    return BackoffCeilingSeconds(/*initial_seconds=*/0.001,
                                 /*multiplier=*/2.0, /*max_seconds=*/0.005,
                                 retry);
  };
  EXPECT_DOUBLE_EQ(ceiling(1), 0.001);
  EXPECT_DOUBLE_EQ(ceiling(2), 0.002);
  EXPECT_DOUBLE_EQ(ceiling(3), 0.004);
  EXPECT_DOUBLE_EQ(ceiling(4), 0.005);
  EXPECT_DOUBLE_EQ(ceiling(10), 0.005);
}

}  // namespace
}  // namespace fairkm
