#include "metrics/fairness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "metrics/distribution.h"
#include "test_util.h"

namespace fairkm {
namespace metrics {
namespace {

using cluster::Assignment;

TEST(AttributeFairnessTest, PerfectlyMirroredClustersScoreZero) {
  auto attr = testutil::MakeCategorical({0, 1, 0, 1}, 2);
  AttributeFairness f = EvaluateAttributeFairness(attr, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(f.ae, 0.0, 1e-12);
  EXPECT_NEAR(f.aw, 0.0, 1e-12);
  EXPECT_NEAR(f.me, 0.0, 1e-12);
  EXPECT_NEAR(f.mw, 0.0, 1e-12);
}

TEST(AttributeFairnessTest, FullySkewedBinaryKnownValues) {
  // Dataset 50/50; clusters are value-pure. Each cluster distribution is
  // (1,0) or (0,1) vs (0.5,0.5): ED = sqrt(0.5), W1 = 0.5.
  auto attr = testutil::MakeCategorical({0, 0, 1, 1}, 2);
  AttributeFairness f = EvaluateAttributeFairness(attr, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(f.ae, std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(f.aw, 0.5, 1e-12);
  EXPECT_NEAR(f.me, std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(f.mw, 0.5, 1e-12);
}

TEST(AttributeFairnessTest, AverageIsCardinalityWeighted) {
  // Cluster 0 holds 3 of 4 points and is fair; cluster 1 holds 1 point and
  // is maximally skewed. AE must weight by cluster size (Eq. 25).
  auto attr = testutil::MakeCategorical({0, 1, 0, 1}, 2);
  Assignment a = {0, 0, 0, 1};
  AttributeFairness f = EvaluateAttributeFairness(attr, a, 2);
  // Cluster 0: dist (2/3, 1/3) vs (0.5, 0.5): ED = sqrt(2)/6.
  // Cluster 1: (0, 1) vs (0.5, 0.5): ED = sqrt(0.5).
  const double expected_ae = (3.0 * (std::sqrt(2.0) / 6.0) + 1.0 * std::sqrt(0.5)) / 4.0;
  EXPECT_NEAR(f.ae, expected_ae, 1e-12);
  EXPECT_NEAR(f.me, std::sqrt(0.5), 1e-12);  // Max picks the skewed singleton.
}

TEST(AttributeFairnessTest, MaxAtLeastAverage) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    auto attr = testutil::MakeCategorical(testutil::RandomCodes(30, 3, &rng), 3);
    Assignment a(30);
    for (size_t i = 0; i < 30; ++i) {
      a[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{4}));
    }
    AttributeFairness f = EvaluateAttributeFairness(attr, a, 4);
    EXPECT_GE(f.me, f.ae - 1e-12);
    EXPECT_GE(f.mw, f.aw - 1e-12);
  }
}

TEST(AttributeFairnessTest, EmptyClustersIgnored) {
  auto attr = testutil::MakeCategorical({0, 1, 0, 1}, 2);
  AttributeFairness f2 = EvaluateAttributeFairness(attr, {0, 0, 1, 1}, 2);
  AttributeFairness f5 = EvaluateAttributeFairness(attr, {0, 0, 1, 1}, 5);
  EXPECT_NEAR(f2.ae, f5.ae, 1e-12);
  EXPECT_NEAR(f2.me, f5.me, 1e-12);
}

TEST(NumericFairnessTest, EqualMeansScoreZeroAe) {
  data::NumericSensitive attr = testutil::MakeNumeric({1, 7, 1, 7}, "age");
  AttributeFairness f = EvaluateNumericAttributeFairness(attr, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(f.ae, 0.0, 1e-12);
  EXPECT_NEAR(f.me, 0.0, 1e-12);
  // Wasserstein still sees the within-cluster distribution mismatch:
  // cluster values {1,7} vs dataset {1,1,7,7} are identical distributions.
  EXPECT_NEAR(f.aw, 0.0, 1e-12);
}

TEST(NumericFairnessTest, MeanShiftReflectedInAeAndMax) {
  data::NumericSensitive attr = testutil::MakeNumeric({0, 0, 10, 10}, "v");
  AttributeFairness f = EvaluateNumericAttributeFairness(attr, {0, 0, 1, 1}, 2);
  // Each cluster mean deviates by 5 from the dataset mean 5.
  EXPECT_NEAR(f.ae, 5.0, 1e-12);
  EXPECT_NEAR(f.me, 5.0, 1e-12);
  EXPECT_NEAR(f.aw, 5.0, 1e-12);  // Point masses at 0 and 10 vs 50/50 mix.
}

// The report sorts the dataset's values once per attribute and walks each
// sorted cluster against it; that must give exactly what one
// EmpiricalWasserstein1 call per cluster gives. Values come from a small
// grid (heavy ties, signed zeros included) and cluster 3 stays empty.
TEST(NumericFairnessTest, SortedOnceMatchesPerClusterWassersteinWithTies) {
  Rng rng(23);
  const size_t n = 600;
  const int k = 5;
  std::vector<double> values(n);
  Assignment assignment(n);
  for (size_t i = 0; i < n; ++i) {
    const double v = 0.5 * static_cast<double>(rng.UniformInt(uint64_t{9}));
    values[i] = (v == 0.0 && i % 2 == 1) ? -0.0 : v;
    int32_t c = static_cast<int32_t>(rng.UniformInt(uint64_t{4}));
    if (c == 3) c = 4;
    assignment[i] = c;
  }
  const data::NumericSensitive attr = testutil::MakeNumeric(values, "tied");

  AttributeFairness want;
  double weighted_e = 0.0, weighted_w = 0.0;
  size_t total = 0;
  for (const auto& members : cluster::GroupByCluster(assignment, k)) {
    if (members.empty()) continue;
    std::vector<double> cluster_values;
    for (size_t i : members) cluster_values.push_back(attr.values[i]);
    const double e = std::fabs(Mean(cluster_values) - attr.dataset_mean);
    const double w = EmpiricalWasserstein1(cluster_values, attr.values);
    weighted_e += static_cast<double>(members.size()) * e;
    weighted_w += static_cast<double>(members.size()) * w;
    total += members.size();
    want.me = std::max(want.me, e);
    want.mw = std::max(want.mw, w);
  }
  want.ae = weighted_e / static_cast<double>(total);
  want.aw = weighted_w / static_cast<double>(total);

  const AttributeFairness got =
      EvaluateNumericAttributeFairness(attr, assignment, k);
  EXPECT_EQ(got.ae, want.ae);
  EXPECT_EQ(got.aw, want.aw);
  EXPECT_EQ(got.me, want.me);
  EXPECT_EQ(got.mw, want.mw);
  EXPECT_GT(got.aw, 0.0);
}

TEST(EvaluateFairnessTest, MeanAcrossAttributes) {
  auto a1 = testutil::MakeCategorical({0, 0, 1, 1}, 2, "skewed");
  auto a2 = testutil::MakeCategorical({0, 1, 0, 1}, 2, "fair");
  data::SensitiveView view = testutil::MakeView({a1, a2});
  FairnessSummary s = EvaluateFairness(view, {0, 0, 1, 1}, 2);
  ASSERT_EQ(s.per_attribute.size(), 2u);
  EXPECT_EQ(s.per_attribute[0].attribute, "skewed");
  EXPECT_NEAR(s.per_attribute[1].ae, 0.0, 1e-12);
  EXPECT_NEAR(s.mean.ae, 0.5 * s.per_attribute[0].ae, 1e-12);
  EXPECT_EQ(s.mean.attribute, "mean");
}

TEST(EvaluateFairnessTest, IncludesNumericAttributes) {
  auto cat = testutil::MakeCategorical({0, 1, 0, 1}, 2, "c");
  data::SensitiveView view = testutil::MakeView({cat});
  view.numeric.push_back(testutil::MakeNumeric({0, 0, 10, 10}, "n"));
  FairnessSummary s = EvaluateFairness(view, {0, 0, 1, 1}, 2);
  ASSERT_EQ(s.per_attribute.size(), 2u);
  EXPECT_EQ(s.per_attribute[1].attribute, "n");
  EXPECT_GT(s.per_attribute[1].ae, 0.0);
}

TEST(MinClusterBalanceTest, PerfectBalanceIsOne) {
  auto attr = testutil::MakeCategorical({0, 1, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(MinClusterBalance(attr, {0, 0, 1, 1}, 2), 1.0);
}

TEST(MinClusterBalanceTest, MonochromeClusterIsZero) {
  auto attr = testutil::MakeCategorical({0, 0, 1, 1}, 2);
  EXPECT_EQ(MinClusterBalance(attr, {0, 0, 1, 1}, 2), 0.0);
}

TEST(MinClusterBalanceTest, TakesWorstCluster) {
  auto attr = testutil::MakeCategorical({0, 1, 0, 0, 0, 1}, 2);
  // Cluster 0 = {0,1}: balance 1. Cluster 1 = {2,3,4,5}: 3 zeros 1 one => 1/3.
  EXPECT_NEAR(MinClusterBalance(attr, {0, 0, 1, 1, 1, 1}, 2), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace metrics
}  // namespace fairkm
