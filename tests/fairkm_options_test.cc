// FairKMOptions::Validate is the one documented validity surface of the
// options struct: every entry point that consumes FairKMOptions calls it
// instead of scattering ad-hoc checks. This suite pins each documented
// rejection, the documented accepts (auto lambda, zero minibatch), and that
// the rejections propagate unchanged through FairKMSolver::Create.

#include "core/fairkm.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "test_util.h"

namespace fairkm {
namespace core {
namespace {

void ExpectInvalid(const FairKMOptions& options, const char* what) {
  const Status st = options.Validate();
  ASSERT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
}

TEST(FairKMOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(FairKMOptions().Validate().ok());
}

TEST(FairKMOptionsTest, PaperAndMiniBatchConfigurationsAreValid) {
  FairKMOptions options;
  options.k = 8;
  options.lambda = 60.0;
  options.max_iterations = 30;
  options.minibatch_size = 512;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FairKMOptionsTest, RejectsNonPositiveK) {
  FairKMOptions options;
  options.k = 0;
  ExpectInvalid(options, "k = 0");
  options.k = -3;
  ExpectInvalid(options, "k = -3");
}

TEST(FairKMOptionsTest, RejectsNonPositiveMaxIterations) {
  FairKMOptions options;
  options.max_iterations = 0;
  ExpectInvalid(options, "max_iterations = 0");
  options.max_iterations = -1;
  ExpectInvalid(options, "max_iterations = -1");
}

TEST(FairKMOptionsTest, RejectsNegativeMinibatchSize) {
  FairKMOptions options;
  options.minibatch_size = -1;
  ExpectInvalid(options, "minibatch_size = -1");
  // 0 is the paper behaviour (update after every move), not an error.
  options.minibatch_size = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FairKMOptionsTest, NegativeFiniteLambdaMeansAuto) {
  FairKMOptions options;
  options.lambda = -1.0;
  EXPECT_TRUE(options.Validate().ok());
  options.lambda = 0.0;  // Degenerates to move-based K-Means; still valid.
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FairKMOptionsTest, RejectsNonFiniteLambda) {
  FairKMOptions options;
  options.lambda = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(options, "lambda = NaN");
  options.lambda = std::numeric_limits<double>::infinity();
  ExpectInvalid(options, "lambda = +inf");
  options.lambda = -std::numeric_limits<double>::infinity();
  ExpectInvalid(options, "lambda = -inf");
}

TEST(FairKMOptionsTest, RejectsBadMinImprovement) {
  FairKMOptions options;
  options.min_improvement = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(options, "min_improvement = NaN");
  options.min_improvement = -1e-9;
  ExpectInvalid(options, "min_improvement < 0");
  options.min_improvement = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

// The solver (and through it every session-API entry point) must surface
// Validate's verdict verbatim rather than re-deriving its own checks.
TEST(FairKMOptionsTest, SolverCreatePropagatesValidate) {
  Rng rng(77);
  const data::Matrix points = testutil::MakeBlobs(2, 10, 3, &rng);
  const data::SensitiveView sensitive =
      testutil::MakeView({testutil::MakeCategorical(
          testutil::RandomCodes(points.rows(), 2, &rng), 2)});

  FairKMOptions bad;
  bad.k = 0;
  const auto rejected = FairKMSolver::Create(&points, &sensitive, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(), bad.Validate().message());

  FairKMOptions negative_batch;
  negative_batch.k = 2;
  negative_batch.minibatch_size = -4;
  const auto rejected2 =
      FairKMSolver::Create(&points, &sensitive, negative_batch);
  ASSERT_FALSE(rejected2.ok());
  EXPECT_EQ(rejected2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected2.status().message(), negative_batch.Validate().message());

  FairKMOptions good;
  good.k = 2;
  good.max_iterations = 3;
  EXPECT_TRUE(FairKMSolver::Create(&points, &sensitive, good).ok());
}

}  // namespace
}  // namespace core
}  // namespace fairkm
