#include "preprocess/tabular_encoder.h"

#include <gtest/gtest.h>

#include <sstream>

#include "data/synthetic.h"

namespace lte::preprocess {
namespace {

data::Table TwoColumnTable(Rng* rng, int n = 600) {
  // Column 0: bimodal (GMM-friendly); column 1: smooth ramp (JKC-friendly).
  data::Table t({"bimodal", "ramp"});
  for (int i = 0; i < n; ++i) {
    const double a =
        i % 2 == 0 ? rng->Normal(0.0, 0.5) : rng->Normal(10.0, 0.5);
    const double b = static_cast<double>(i) / n * 100.0;
    EXPECT_TRUE(t.AppendRow({a, b}).ok());
  }
  return t;
}

class EncoderModeTest : public ::testing::TestWithParam<EncodingMode> {};

TEST_P(EncoderModeTest, EncodedWidthMatchesDeclaredWidth) {
  Rng rng(1);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  const std::vector<double> row = t.Row(0);
  const std::vector<double> encoded = enc.EncodeRow(row);
  EXPECT_EQ(static_cast<int64_t>(encoded.size()),
            enc.AttributeWidth(0) + enc.AttributeWidth(1));
  EXPECT_EQ(enc.ProjectedWidth({0, 1}),
            enc.AttributeWidth(0) + enc.AttributeWidth(1));
}

TEST_P(EncoderModeTest, EncodedValuesInUnitRange) {
  Rng rng(2);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  for (int64_t r = 0; r < 20; ++r) {
    for (double v : enc.EncodeRow(t.Row(r))) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, EncoderModeTest,
                         ::testing::Values(EncodingMode::kMinMaxOnly,
                                           EncodingMode::kGmmOnly,
                                           EncodingMode::kJenksOnly,
                                           EncodingMode::kCombined,
                                           EncodingMode::kAuto));

TEST(TabularEncoderTest, CombinedWidth) {
  Rng rng(3);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = EncodingMode::kCombined;
  opt.num_gmm_components = 4;
  opt.num_jenks_intervals = 3;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeWidth(0), 4 + 1 + 3 + 1);
}

TEST(TabularEncoderTest, OneHotIsExactlyOnePerModel) {
  Rng rng(4);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = EncodingMode::kGmmOnly;
  opt.num_gmm_components = 5;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::vector<double> out;
  enc.EncodeValue(0, 0.0, &out);
  ASSERT_EQ(out.size(), 6u);
  double ones = 0.0;
  for (size_t i = 0; i < 5; ++i) ones += out[i];
  EXPECT_DOUBLE_EQ(ones, 1.0);
}

TEST(TabularEncoderTest, AutoPicksGmmForPeakyAndJenksForSmooth) {
  Rng rng(5);
  const data::Table t = TwoColumnTable(&rng, 2000);
  EncoderOptions opt;
  opt.mode = EncodingMode::kAuto;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kGmmOnly);
  EXPECT_EQ(enc.AttributeMode(1), EncodingMode::kJenksOnly);
}

TEST(TabularEncoderTest, EncodePointsMatchesEncodeValueOrder) {
  Rng rng(6);
  const data::Table t = TwoColumnTable(&rng);
  TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  const std::vector<std::vector<double>> points = {{50.0}};
  std::vector<double> p;
  enc.EncodePointsInto({1}, points, &p);
  std::vector<double> direct;
  enc.EncodeValue(1, 50.0, &direct);
  EXPECT_EQ(p, direct);
}

TEST(TabularEncoderTest, NearbyValuesShareBucket) {
  Rng rng(7);
  const data::Table t = TwoColumnTable(&rng);
  // One GMM component per mode so nearby values cannot straddle an
  // intra-mode component boundary.
  EncoderOptions opt;
  opt.mode = EncodingMode::kGmmOnly;
  opt.num_gmm_components = 2;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  // Two values in the same mode of the bimodal column: identical one-hot.
  std::vector<double> a;
  std::vector<double> b;
  enc.EncodeValue(0, 0.0, &a);
  enc.EncodeValue(0, 0.1, &b);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)]);
  }
}

TEST(TabularEncoderTest, EmptyTableFails) {
  Rng rng(8);
  data::Table t({"x"});
  TabularEncoder enc;
  EXPECT_FALSE(enc.Fit(t, &rng).ok());
}

TEST(TabularEncoderTest, WorksOnSyntheticDatasets) {
  Rng rng(9);
  const data::Table sdss = data::MakeSdssLike(800, &rng);
  TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(sdss, &rng).ok());
  EXPECT_EQ(static_cast<int64_t>(enc.EncodeRow(sdss.Row(0)).size()),
            enc.ProjectedWidth({0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(CategoricalEncodingTest, OneHotOverDistinctValues) {
  Rng rng(20);
  data::Table t({"cat", "num"});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        t.AppendRow({static_cast<double>(i % 3), rng.Uniform()}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeWidth(0), 4);  // 3 categories + "other".

  std::vector<double> out;
  enc.EncodeValue(0, 1.0, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  // Exactly one bit on.
  double total = 0;
  for (double v : out) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(CategoricalEncodingTest, UnseenValueMapsToOther) {
  Rng rng(21);
  data::Table t({"cat"});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i % 2)}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::vector<double> out;
  enc.EncodeValue(0, 99.0, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 1.0);  // "other" slot.
}

TEST(CategoricalEncodingTest, MaxCategoriesKeepsMostFrequent) {
  Rng rng(22);
  data::Table t({"cat"});
  // Value 0 dominates; values 1..9 are rare.
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(t.AppendRow({0.0}).ok());
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i)}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  opt.max_categories = 2;
  opt.min_sample_rows = 600;  // Use (almost) the whole table.
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_LE(enc.AttributeWidth(0), 3);  // <= 2 categories + other.
  std::vector<double> dominant;
  enc.EncodeValue(0, 0.0, &dominant);
  EXPECT_DOUBLE_EQ(dominant.back(), 0.0);  // Dominant value is kept.
}

TEST(CategoricalEncodingTest, CarListingsEndToEnd) {
  Rng rng(23);
  const data::Table t = data::MakeCarListings(2000, &rng);
  ASSERT_EQ(t.num_columns(), 7);
  EncoderOptions opt;
  opt.categorical_attributes = {5, 6};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(5), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeMode(6), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kCombined);
  const std::vector<double> encoded = enc.EncodeRow(t.Row(0));
  EXPECT_EQ(static_cast<int64_t>(encoded.size()),
            enc.ProjectedWidth({0, 1, 2, 3, 4, 5, 6}));
}

TEST(CategoricalEncodingTest, SurvivesSerialization) {
  Rng rng(24);
  const data::Table t = data::MakeCarListings(1000, &rng);
  EncoderOptions opt;
  opt.categorical_attributes = {5, 6};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());

  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  TabularEncoder loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_EQ(loaded.AttributeMode(5), EncodingMode::kCategorical);
  for (int64_t row = 0; row < 10; ++row) {
    EXPECT_EQ(loaded.EncodeRow(t.Row(row)), enc.EncodeRow(t.Row(row)));
  }
}

}  // namespace
}  // namespace lte::preprocess
