#include "data/sensitive.h"

#include <gtest/gtest.h>

#include <limits>

namespace fairkm {
namespace data {
namespace {

Dataset MakeSample() {
  Dataset d;
  d.AddNumeric("age", {20, 30, 40, 50}).Abort();
  d.AddCategorical("gender", {0, 1, 0, 1}, {"M", "F"}).Abort();
  d.AddCategorical("race", {0, 0, 1, 2}, {"a", "b", "c"}).Abort();
  return d;
}

TEST(SensitiveViewTest, BuildsCategoricalAttributes) {
  Dataset d = MakeSample();
  auto r = MakeSensitiveView(d, {"gender", "race"});
  ASSERT_TRUE(r.ok());
  const SensitiveView& view = r.ValueOrDie();
  ASSERT_EQ(view.categorical.size(), 2u);
  EXPECT_EQ(view.categorical[0].name, "gender");
  EXPECT_EQ(view.categorical[0].cardinality, 2);
  EXPECT_EQ(view.categorical[1].cardinality, 3);
  EXPECT_DOUBLE_EQ(view.categorical[1].dataset_fractions[0], 0.5);
  EXPECT_DOUBLE_EQ(view.categorical[1].dataset_fractions[1], 0.25);
  EXPECT_EQ(view.num_rows(), 4u);
  EXPECT_FALSE(view.empty());
}

TEST(SensitiveViewTest, BuildsNumericAttributes) {
  Dataset d = MakeSample();
  auto r = MakeSensitiveView(d, {}, {"age"});
  ASSERT_TRUE(r.ok());
  const SensitiveView& view = r.ValueOrDie();
  ASSERT_EQ(view.numeric.size(), 1u);
  EXPECT_DOUBLE_EQ(view.numeric[0].dataset_mean, 35.0);
  EXPECT_EQ(view.num_rows(), 4u);
}

TEST(SensitiveViewTest, DefaultWeightsAreOne) {
  Dataset d = MakeSample();
  auto view = MakeSensitiveView(d, {"gender"}, {"age"}).ValueOrDie();
  EXPECT_DOUBLE_EQ(view.categorical[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(view.numeric[0].weight, 1.0);
}

TEST(SensitiveViewTest, ExplicitWeights) {
  Dataset d = MakeSample();
  auto r = MakeSensitiveView(d, {"gender", "race"}, {"age"}, {2.0, 3.0, 0.5});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.ValueOrDie().categorical[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(r.ValueOrDie().categorical[1].weight, 3.0);
  EXPECT_DOUBLE_EQ(r.ValueOrDie().numeric[0].weight, 0.5);
}

TEST(SensitiveViewTest, WeightCountMismatchRejected) {
  Dataset d = MakeSample();
  EXPECT_FALSE(MakeSensitiveView(d, {"gender"}, {}, {1.0, 2.0}).ok());
}

TEST(SensitiveViewTest, UnknownAttributeRejected) {
  Dataset d = MakeSample();
  EXPECT_FALSE(MakeSensitiveView(d, {"ghost"}).ok());
  EXPECT_FALSE(MakeSensitiveView(d, {}, {"ghost"}).ok());
}

TEST(SensitiveViewTest, SelectCategorical) {
  Dataset d = MakeSample();
  auto view = MakeSensitiveView(d, {"gender", "race"}).ValueOrDie();
  auto single = view.SelectCategorical("race");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.ValueOrDie().categorical.size(), 1u);
  EXPECT_EQ(single.ValueOrDie().categorical[0].name, "race");
  EXPECT_FALSE(view.SelectCategorical("ghost").ok());
}

TEST(SensitiveViewTest, EmptyView) {
  SensitiveView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.num_rows(), 0u);
}

TEST(SensitiveViewTest, ValidateChecksEveryAttribute) {
  Dataset d = MakeSample();
  const SensitiveView view =
      MakeSensitiveView(d, {"gender", "race"}, {"age"}).ValueOrDie();
  const size_t rows = view.num_rows();
  EXPECT_TRUE(view.Validate(rows).ok());
  EXPECT_FALSE(view.Validate(rows + 1).ok());

  // An empty view is consistent with any row count.
  EXPECT_TRUE(SensitiveView{}.Validate(17).ok());

  // Ragged SECOND categorical attribute: num_rows() still reports the full
  // row count (it reads only the first attribute), Validate must not.
  SensitiveView ragged_cat = view;
  ragged_cat.categorical[1].codes.pop_back();
  EXPECT_EQ(ragged_cat.num_rows(), rows);
  EXPECT_FALSE(ragged_cat.Validate(rows).ok());

  // Ragged numeric attribute.
  SensitiveView ragged_num = view;
  ragged_num.numeric[0].values.pop_back();
  EXPECT_FALSE(ragged_num.Validate(rows).ok());

  // Non-positive cardinality, short fraction table, out-of-range code.
  SensitiveView bad_card = view;
  bad_card.categorical[0].cardinality = 0;
  EXPECT_FALSE(bad_card.Validate(rows).ok());

  SensitiveView bad_fractions = view;
  bad_fractions.categorical[0].dataset_fractions.pop_back();
  EXPECT_FALSE(bad_fractions.Validate(rows).ok());

  SensitiveView bad_code = view;
  bad_code.categorical[0].codes[0] =
      static_cast<int32_t>(bad_code.categorical[0].cardinality);
  EXPECT_FALSE(bad_code.Validate(rows).ok());
}

TEST(SensitiveViewTest, ValidateRejectsNonFiniteNumericValues) {
  Dataset d = MakeSample();
  const SensitiveView view =
      MakeSensitiveView(d, {"gender"}, {"age"}).ValueOrDie();
  const size_t rows = view.num_rows();
  ASSERT_TRUE(view.Validate(rows).ok());

  SensitiveView nan_value = view;
  nan_value.numeric[0].values[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(nan_value.Validate(rows).code(), StatusCode::kInvalidArgument);

  SensitiveView inf_value = view;
  inf_value.numeric[0].values[0] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(inf_value.Validate(rows).code(), StatusCode::kInvalidArgument);

  SensitiveView bad_mean = view;
  bad_mean.numeric[0].dataset_mean = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bad_mean.Validate(rows).code(), StatusCode::kInvalidArgument);
}

// Every fairness price reads the categorical fractions, so a table that is
// not a distribution (the zeros of a view that only carried the codes, a
// NaN, a negative entry) is rejected, not trained on.
TEST(SensitiveViewTest, ValidateRejectsFractionsThatAreNotADistribution) {
  Dataset d = MakeSample();
  const SensitiveView view = MakeSensitiveView(d, {"gender"}).ValueOrDie();
  const size_t rows = view.num_rows();
  ASSERT_TRUE(view.Validate(rows).ok());

  SensitiveView zeros = view;
  zeros.categorical[0].dataset_fractions.assign(
      zeros.categorical[0].dataset_fractions.size(), 0.0);
  EXPECT_EQ(zeros.Validate(rows).code(), StatusCode::kInvalidArgument);

  SensitiveView nan_fraction = view;
  nan_fraction.categorical[0].dataset_fractions[0] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(nan_fraction.Validate(rows).code(), StatusCode::kInvalidArgument);

  // Sums to 1, but with a negative entry.
  SensitiveView negative = view;
  ASSERT_EQ(negative.categorical[0].dataset_fractions.size(), 2u);
  negative.categorical[0].dataset_fractions = {1.5, -0.5};
  EXPECT_EQ(negative.Validate(rows).code(), StatusCode::kInvalidArgument);

  SensitiveView off_by_more = view;
  off_by_more.categorical[0].dataset_fractions[0] += 1e-6;
  EXPECT_EQ(off_by_more.Validate(rows).code(), StatusCode::kInvalidArgument);

  // A view without rows has no distribution to sum to 1.
  SensitiveView no_rows = zeros;
  no_rows.categorical[0].codes.clear();
  EXPECT_TRUE(no_rows.Validate(0).ok());
}

}  // namespace
}  // namespace data
}  // namespace fairkm
