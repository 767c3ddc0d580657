#include "metrics/quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/kmeans.h"
#include "core/kernels/kernels.h"
#include "data/adult_generator.h"
#include "data/preprocess.h"
#include "test_util.h"
#include "testlib/scalar_silhouette.h"

namespace fairkm {
namespace metrics {
namespace {

using cluster::Assignment;

TEST(ClusteringObjectiveTest, MatchesHandComputation) {
  data::Matrix pts(4, 1);
  pts.At(0, 0) = 0;
  pts.At(1, 0) = 2;
  pts.At(2, 0) = 10;
  pts.At(3, 0) = 14;
  // Clusters {0,2} mean 1 (SSE 2) and {10,14} mean 12 (SSE 8).
  EXPECT_DOUBLE_EQ(ClusteringObjective(pts, {0, 0, 1, 1}, 2), 10.0);
}

TEST(SilhouetteTest, WellSeparatedBlobsScoreHigh) {
  Rng rng(1);
  data::Matrix pts = testutil::MakeBlobs(3, 30, 3, &rng);
  cluster::KMeansOptions opt;
  opt.k = 3;
  Rng krng(2);
  auto r = cluster::RunKMeans(pts, opt, &krng).ValueOrDie();
  EXPECT_GT(SilhouetteScore(pts, r.assignment, 3), 0.6);
}

TEST(SilhouetteTest, RandomAssignmentScoresNearZero) {
  Rng rng(3);
  data::Matrix pts = testutil::MakeBlobs(3, 30, 3, &rng);
  Assignment random(90);
  for (size_t i = 0; i < 90; ++i) {
    random[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{3}));
  }
  EXPECT_LT(std::fabs(SilhouetteScore(pts, random, 3)), 0.25);
}

TEST(SilhouetteTest, SingleClusterIsZero) {
  Rng rng(5);
  data::Matrix pts = testutil::MakeBlobs(1, 20, 2, &rng);
  EXPECT_EQ(SilhouetteScore(pts, Assignment(20, 0), 1), 0.0);
}

TEST(SilhouetteTest, SingletonClustersScoreZero) {
  data::Matrix pts(3, 1);
  pts.At(0, 0) = 0;
  pts.At(1, 0) = 1;
  pts.At(2, 0) = 10;
  // Cluster 1 = {2} is a singleton; overall mean includes a 0 for it.
  const double s = SilhouetteScore(pts, {0, 0, 1}, 2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(SilhouetteTest, SampledApproximatesExact) {
  Rng rng(7);
  data::Matrix pts = testutil::MakeBlobs(4, 60, 3, &rng, /*spread=*/1.2);
  cluster::KMeansOptions opt;
  opt.k = 4;
  Rng krng(8);
  auto r = cluster::RunKMeans(pts, opt, &krng).ValueOrDie();
  SilhouetteOptions exact;
  exact.max_exact_rows = 10000;
  SilhouetteOptions sampled;
  sampled.max_exact_rows = 1;  // Force sampling.
  sampled.sample_size = 120;
  const double se = SilhouetteScore(pts, r.assignment, 4, exact);
  const double ss = SilhouetteScore(pts, r.assignment, 4, sampled);
  EXPECT_NEAR(se, ss, 0.1);
}

// SilhouetteScore runs the ProbeDistanceSums kernel over probe groups on
// several threads; it must equal the single-threaded scalar loop
// (testlib's ScalarSilhouette) exactly, under every backend the host runs.
void ExpectMatchesOracle(const data::Matrix& pts, const Assignment& assignment,
                         int k, const SilhouetteOptions& options = {}) {
  const double want = testutil::ScalarSilhouette(pts, assignment, k, options);
  std::vector<const core::kernels::Backend*> backends = {
      &core::kernels::ScalarBackend()};
  if (const auto* avx2 = core::kernels::Avx2Backend()) backends.push_back(avx2);
  for (const core::kernels::Backend* backend : backends) {
    SCOPED_TRACE(backend->name);
    core::kernels::SetActiveBackend(backend);
    EXPECT_EQ(SilhouetteScore(pts, assignment, k, options), want);
  }
  core::kernels::SetActiveBackend(nullptr);
}

Assignment RandomAssignment(size_t n, int k, Rng* rng) {
  Assignment assignment(n);
  for (auto& a : assignment) {
    a = static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(k)));
  }
  return assignment;
}

Assignment KMeansAssignment(const data::Matrix& pts, int k, uint64_t seed) {
  cluster::KMeansOptions opt;
  opt.k = k;
  opt.max_iterations = 10;
  Rng rng(seed);
  return cluster::RunKMeans(pts, opt, &rng).ValueOrDie().assignment;
}

TEST(SilhouetteOracleTest, ExactPathMatchesScalarLoop) {
  Rng rng(31);
  const data::Matrix pts = testutil::MakeBlobs(4, 60, 3, &rng, /*spread=*/1.2);
  ExpectMatchesOracle(pts, KMeansAssignment(pts, 4, 32), 4);
}

TEST(SilhouetteOracleTest, SampledPathMatchesScalarLoop) {
  Rng rng(33);
  const data::Matrix pts = testutil::MakeBlobs(5, 300, 5, &rng, /*spread=*/2.0);
  const Assignment assignment = KMeansAssignment(pts, 5, 34);
  for (size_t sample : {1, 8, 203, 1499}) {
    SCOPED_TRACE(sample);
    SilhouetteOptions options;
    options.max_exact_rows = 100;
    options.sample_size = sample;
    options.seed = 35 + sample;
    ExpectMatchesOracle(pts, assignment, 5, options);
  }
}

// Every remainder of the probe count modulo the 8 kernel lanes.
TEST(SilhouetteOracleTest, ProbeCountsOffTheLaneWidth) {
  Rng rng(37);
  for (size_t n = 1; n <= 33; ++n) {
    SCOPED_TRACE(n);
    data::Matrix pts(n, 3);
    for (double& v : pts.data()) v = rng.UniformDouble(-5.0, 5.0);
    ExpectMatchesOracle(pts, RandomAssignment(n, 3, &rng), 3);
  }
}

TEST(SilhouetteOracleTest, SingletonsAndEmptyClusters) {
  Rng rng(39);
  const data::Matrix pts = testutil::MakeBlobs(3, 25, 4, &rng);
  Assignment assignment = RandomAssignment(pts.rows(), 2, &rng);
  assignment[7] = 2;   // Singleton.
  assignment[40] = 4;  // Singleton; clusters 3 and 5 stay empty.
  ExpectMatchesOracle(pts, assignment, 6);
}

TEST(SilhouetteOracleTest, OneNonEmptyClusterIsZero) {
  Rng rng(41);
  const data::Matrix pts = testutil::MakeBlobs(2, 20, 2, &rng);
  ExpectMatchesOracle(pts, Assignment(pts.rows(), 0), 1);
  ExpectMatchesOracle(pts, Assignment(pts.rows(), 1), 3);
  EXPECT_EQ(SilhouetteScore(pts, Assignment(pts.rows(), 0), 1), 0.0);
}

TEST(SilhouetteOracleTest, DuplicateRows) {
  Rng rng(43);
  const data::Matrix distinct = testutil::MakeBlobs(2, 5, 3, &rng);
  data::Matrix pts(distinct.rows() * 7, 3);
  for (size_t i = 0; i < pts.rows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      pts.At(i, j) = distinct.At(i % distinct.rows(), j);
    }
  }
  ExpectMatchesOracle(pts, RandomAssignment(pts.rows(), 3, &rng), 3);
  ExpectMatchesOracle(pts, KMeansAssignment(pts, 2, 44), 2);
}

// Coordinates near 1e8 with unit-scale spread: every difference cancels
// most of its significand, so any reordering of the arithmetic shows.
TEST(SilhouetteOracleTest, HugeOffsets) {
  Rng rng(45);
  data::Matrix pts = testutil::MakeBlobs(3, 40, 4, &rng);
  for (size_t i = 0; i < pts.rows(); ++i) {
    for (size_t j = 0; j < pts.cols(); ++j) {
      pts.At(i, j) += (j % 2 == 0 ? 1e8 : -3e7) + rng.UniformDouble(0.0, 1e-3);
    }
  }
  ExpectMatchesOracle(pts, KMeansAssignment(pts, 3, 46), 3);
  ExpectMatchesOracle(pts, RandomAssignment(pts.rows(), 4, &rng), 4);
}

// The shape fairkm_cli and the adult-batch benchmark score: 50k Adult rows,
// the 8 min-max-scaled task attributes, k = 8, default options (2000
// sampled probes).
TEST(SilhouetteOracleTest, Adult50kDefaultOptions) {
  data::AdultOptions adult;
  adult.num_rows = 50000;
  const data::Dataset dataset = data::GenerateAdult(adult).ValueOrDie();
  data::Matrix pts = dataset.ToMatrix(data::AdultTaskNames()).ValueOrDie();
  data::MinMaxNormalize(&pts);
  ExpectMatchesOracle(pts, KMeansAssignment(pts, 8, 47), 8);
}

TEST(CentroidDeviationTest, IdenticalCentroidsZero) {
  Rng rng(9);
  data::Matrix c(3, 4);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) c.At(i, j) = rng.Normal(0, 1);
  }
  auto r = CentroidDeviation(c, c);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 0.0, 1e-12);
}

TEST(CentroidDeviationTest, PermutationInvariant) {
  data::Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(1, 0) = 5;
  data::Matrix b(2, 2);
  b.At(0, 0) = 5;  // Same centroids, swapped order.
  b.At(1, 0) = 1;
  auto r = CentroidDeviation(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 0.0, 1e-12);
}

TEST(CentroidDeviationTest, KnownDisplacement) {
  data::Matrix a(2, 1);
  a.At(0, 0) = 0;
  a.At(1, 0) = 10;
  data::Matrix b(2, 1);
  b.At(0, 0) = 1;   // 0 -> 1: squared distance 1.
  b.At(1, 0) = 12;  // 10 -> 12: squared distance 4.
  auto r = CentroidDeviation(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.ValueOrDie(), 5.0);
}

TEST(CentroidDeviationTest, ShapeMismatchesRejected) {
  data::Matrix a(2, 2), b(3, 2), c(2, 3);
  std::ignore = a;
  EXPECT_FALSE(CentroidDeviation(a, b).ok());
  EXPECT_FALSE(CentroidDeviation(a, c).ok());
}

TEST(ObjectPairDeviationTest, IdenticalClusteringsZero) {
  Assignment a = {0, 1, 2, 0, 1, 2};
  auto r = ObjectPairDeviation(a, 3, a, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

TEST(ObjectPairDeviationTest, LabelPermutationIsStillZero) {
  Assignment a = {0, 0, 1, 1};
  Assignment b = {1, 1, 0, 0};
  auto r = ObjectPairDeviation(a, 2, b, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

TEST(ObjectPairDeviationTest, CompleteDisagreement) {
  // a: {01}{23}; b: {02}{13} — every pair verdict flips except none agree...
  Assignment a = {0, 0, 1, 1};
  Assignment b = {0, 1, 0, 1};
  // Pairs together in a: (0,1), (2,3); both apart in b. Pairs together in b:
  // (0,2), (1,3); both apart in a. Disagreements = 4 of 6 pairs.
  auto r = ObjectPairDeviation(a, 2, b, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 4.0 / 6.0, 1e-12);
}

TEST(ObjectPairDeviationTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 40;
    Assignment a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{3}));
      b[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{4}));
    }
    size_t disagree = 0, total = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ++total;
        if ((a[i] == a[j]) != (b[i] == b[j])) ++disagree;
      }
    }
    auto r = ObjectPairDeviation(a, 3, b, 4);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.ValueOrDie(), static_cast<double>(disagree) / total, 1e-12);
  }
}

TEST(ObjectPairDeviationTest, SizeMismatchRejected) {
  EXPECT_FALSE(ObjectPairDeviation({0, 1}, 2, {0}, 2).ok());
}

TEST(ObjectPairDeviationTest, TinyInputs) {
  auto r = ObjectPairDeviation({0}, 1, {0}, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

}  // namespace
}  // namespace metrics
}  // namespace fairkm
