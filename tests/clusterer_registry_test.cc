// cluster::Clusterer registry tests: built-in registrations, name-keyed
// creation, equivalence with the direct method entry points, the FairKM
// adapter's warm-session reuse, and custom registration.

#include "cluster/clusterer.h"

#include <algorithm>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/zgya.h"
#include "core/fairkm.h"
#include "core/solver.h"
#include "test_util.h"
#include "testlib/worlds.h"


namespace fairkm {
namespace cluster {
namespace {

using testutil::MakeSeededWorld;
using testutil::SeededWorld;

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ClustererRegistryTest, BuiltinsAreRegistered) {
  core::EnsureFairKMClustererRegistered();
  const std::vector<std::string> names = RegisteredClusterers();
  EXPECT_TRUE(Contains(names, "kmeans"));
  EXPECT_TRUE(Contains(names, "zgya"));
  EXPECT_TRUE(Contains(names, "zgya-hard"));
  EXPECT_TRUE(Contains(names, "fairkm"));
  EXPECT_TRUE(IsClustererRegistered("kmeans"));
  EXPECT_FALSE(IsClustererRegistered("no-such-method"));
}

TEST(ClustererRegistryTest, UnknownNameListsKnownOnes) {
  auto result = CreateClusterer("no-such-method");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("kmeans"), std::string::npos);
}

TEST(ClustererRegistryTest, EmptyNameRejected) {
  EXPECT_FALSE(RegisterClusterer("", nullptr).ok());
}

TEST(ClustererRegistryTest, KMeansViaRegistryMatchesDirectCall) {
  const SeededWorld world = MakeSeededWorld(41);
  ClustererOptions options;
  options.k = 3;
  auto clusterer = CreateClusterer("kmeans", options).ValueOrDie();
  EXPECT_EQ(clusterer->name(), "kmeans");
  Rng registry_rng(7);
  const ClusteringResult via_registry =
      clusterer->Cluster(world.points, world.sensitive, &registry_rng)
          .ValueOrDie();

  KMeansOptions direct;
  direct.k = 3;
  Rng direct_rng(7);
  const ClusteringResult via_direct =
      RunKMeans(world.points, direct, &direct_rng).ValueOrDie();
  EXPECT_EQ(via_registry.assignment, via_direct.assignment);
  EXPECT_EQ(via_registry.iterations, via_direct.iterations);
}

TEST(ClustererRegistryTest, ZgyaViaRegistryMatchesDirectCall) {
  const SeededWorld world = MakeSeededWorld(42);
  const std::string attr_name = world.sensitive.categorical[0].name;
  ClustererOptions options;
  options.k = 3;
  options.attribute = attr_name;
  auto clusterer = CreateClusterer("zgya-hard", options).ValueOrDie();
  Rng registry_rng(9);
  const ClusteringResult via_registry =
      clusterer->Cluster(world.points, world.sensitive, &registry_rng)
          .ValueOrDie();

  ZgyaOptions direct;
  direct.k = 3;
  direct.mode = ZgyaOptions::Mode::kHardMoves;
  Rng direct_rng(9);
  const ZgyaResult via_direct =
      RunZgya(world.points, world.sensitive.categorical[0], direct, &direct_rng)
          .ValueOrDie();
  EXPECT_EQ(via_registry.assignment, via_direct.assignment);
  EXPECT_EQ(via_registry.lambda_used, via_direct.lambda_used);
}

TEST(ClustererRegistryTest, ZgyaWithoutAttributeNeedsSingleAttributeView) {
  const SeededWorld world = MakeSeededWorld(43);  // 2 categorical attributes.
  auto clusterer = CreateClusterer("zgya").ValueOrDie();
  Rng rng(1);
  EXPECT_FALSE(clusterer->Cluster(world.points, world.sensitive, &rng).ok());
}

TEST(ClustererRegistryTest, FairKMViaRegistryMatchesRunFairKM) {
  core::EnsureFairKMClustererRegistered();
  const SeededWorld world = MakeSeededWorld(44);
  ClustererOptions options;
  options.k = 3;
  options.lambda = 80.0;
  options.max_iterations = 10;
  auto clusterer = CreateClusterer("fairkm", options).ValueOrDie();
  EXPECT_EQ(clusterer->name(), "fairkm");
  Rng registry_rng(3);
  const ClusteringResult via_registry =
      clusterer->Cluster(world.points, world.sensitive, &registry_rng)
          .ValueOrDie();

  core::FairKMOptions direct;
  direct.k = 3;
  direct.lambda = 80.0;
  direct.max_iterations = 10;
  Rng direct_rng(3);
  const core::FairKMResult via_direct =
      testutil::RunFairKMSession(world.points, world.sensitive, direct,
                                 &direct_rng)
          .ValueOrDie();
  EXPECT_EQ(via_registry.assignment, via_direct.assignment);
  EXPECT_EQ(via_registry.lambda_used, via_direct.lambda_used);
  EXPECT_EQ(via_registry.iterations, via_direct.iterations);
  EXPECT_EQ(via_registry.sweep_seconds > 0.0, via_direct.sweep_seconds > 0.0);
}

TEST(ClustererRegistryTest, FairKMAcceptsOnlyRandomAssignmentInit) {
  // Algorithm 1 step 1 is the only start a FairKM session draws.
  core::EnsureFairKMClustererRegistered();
  const SeededWorld world = MakeSeededWorld(47);
  ClustererOptions options;
  options.k = 3;
  options.max_iterations = 5;
  options.init = KMeansInit::kKMeansPlusPlus;
  const auto refused = CreateClusterer("fairkm", options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const auto run = [&](std::optional<KMeansInit> init) {
    options.init = init;
    Rng rng(9);
    return CreateClusterer("fairkm", options)
        .ValueOrDie()
        ->Cluster(world.points, world.sensitive, &rng)
        .ValueOrDie()
        .assignment;
  };
  const Assignment unset = run(std::nullopt);
  EXPECT_EQ(unset.size(), world.points.rows());
  EXPECT_EQ(run(KMeansInit::kRandomAssignment), unset);
}

TEST(ClustererRegistryTest, FairKMAdapterWarmReuseIsBitIdentical) {
  const SeededWorld world = MakeSeededWorld(45);
  core::FairKMOptions options;
  options.k = 3;
  options.lambda = 80.0;
  auto clusterer = core::MakeFairKMClusterer(options);

  Rng first_rng(5);
  const ClusteringResult first =
      clusterer->Cluster(world.points, world.sensitive, &first_rng).ValueOrDie();
  // Second call over the SAME objects rides the warm solver inside.
  Rng second_rng(5);
  const ClusteringResult second =
      clusterer->Cluster(world.points, world.sensitive, &second_rng).ValueOrDie();
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_EQ(first.iterations, second.iterations);

  // Switching inputs transparently rebuilds the session.
  const SeededWorld other = MakeSeededWorld(46);
  Rng other_rng(5);
  const ClusteringResult rebuilt =
      clusterer->Cluster(other.points, other.sensitive, &other_rng).ValueOrDie();
  EXPECT_EQ(rebuilt.assignment.size(), other.points.rows());
}

TEST(ClustererRegistryTest, FairKMAdapterFingerprintCatchesRecycledStorage) {
  SeededWorld world = MakeSeededWorld(49);
  core::FairKMOptions options;
  options.k = 3;
  options.lambda = 80.0;
  auto clusterer = core::MakeFairKMClusterer(options);
  Rng first_rng(5);
  ASSERT_TRUE(
      clusterer->Cluster(world.points, world.sensitive, &first_rng).ok());

  // Recycling the SAME Matrix object for different contents is outside the
  // session-reuse contract, but the adapter's content fingerprint must
  // still catch it and rebuild instead of clustering stale data.
  for (size_t i = 0; i < world.points.rows(); ++i) {
    for (size_t j = 0; j < world.points.cols(); ++j) {
      world.points.Row(i)[j] = 0.5 - world.points.Row(i)[j];
    }
  }
  Rng second_rng(5);
  const ClusteringResult second =
      clusterer->Cluster(world.points, world.sensitive, &second_rng)
          .ValueOrDie();

  auto fresh = core::MakeFairKMClusterer(options);
  Rng fresh_rng(5);
  const ClusteringResult expected =
      fresh->Cluster(world.points, world.sensitive, &fresh_rng).ValueOrDie();
  EXPECT_EQ(second.assignment, expected.assignment);
}

TEST(ClustererRegistryTest, FairKMAdapterAttributeRestriction) {
  const SeededWorld world = MakeSeededWorld(47);
  const std::string attr_name = world.sensitive.categorical[1].name;
  core::FairKMOptions options;
  options.k = 3;
  options.lambda = 80.0;
  auto restricted = core::MakeFairKMClusterer(options, attr_name);
  Rng rng(6);
  const ClusteringResult via_adapter =
      restricted->Cluster(world.points, world.sensitive, &rng).ValueOrDie();

  const data::SensitiveView single =
      world.sensitive.SelectCategorical(attr_name).ValueOrDie();
  Rng direct_rng(6);
  const core::FairKMResult via_direct =
      testutil::RunFairKMSession(world.points, single, options, &direct_rng)
          .ValueOrDie();
  EXPECT_EQ(via_adapter.assignment, via_direct.assignment);

  auto missing = core::MakeFairKMClusterer(options, "not-an-attribute");
  Rng missing_rng(6);
  EXPECT_FALSE(missing->Cluster(world.points, world.sensitive, &missing_rng).ok());
}

TEST(ClustererRegistryTest, CustomRegistrationRoundTrips) {
  class Constant : public Clusterer {
   public:
    const std::string& name() const override {
      static const std::string kName = "constant";
      return kName;
    }
    Result<ClusteringResult> Cluster(const data::Matrix& points,
                                     const data::SensitiveView& sensitive,
                                     Rng* rng) override {
      (void)sensitive;
      (void)rng;
      ClusteringResult result;
      result.assignment.assign(points.rows(), 0);
      return result;
    }
  };
  ASSERT_TRUE(RegisterClusterer("constant",
                                [](const ClustererOptions&)
                                    -> Result<std::unique_ptr<Clusterer>> {
                                  return std::unique_ptr<Clusterer>(new Constant);
                                })
                  .ok());
  ASSERT_TRUE(IsClustererRegistered("constant"));
  const SeededWorld world = MakeSeededWorld(48);
  auto clusterer = CreateClusterer("constant").ValueOrDie();
  Rng rng(1);
  const ClusteringResult result =
      clusterer->Cluster(world.points, world.sensitive, &rng).ValueOrDie();
  EXPECT_EQ(result.assignment, cluster::Assignment(world.points.rows(), 0));
}

}  // namespace
}  // namespace cluster
}  // namespace fairkm
