#include "preprocess/tabular_encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include "common/math_util.h"
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

// The dense row `width` wide that is +0.0 except at `codes`.
std::vector<double> Dense(std::span<const Code> codes, int64_t width) {
  std::vector<double> dense(static_cast<size_t>(width), 0.0);
  for (const Code& c : codes) dense[static_cast<size_t>(c.index)] = c.value;
  return dense;
}

// The dense encoding of raw value x of attribute `attr`: the expansion of
// its codes.
std::vector<double> DenseValue(const TabularEncoder& enc, int64_t attr,
                               double x) {
  Code codes[TabularEncoder::kMaxAttributeCodes];
  const Code* end = enc.EncodeValueCodes(attr, x, /*offset=*/0, codes);
  return Dense({codes, end}, enc.AttributeWidth(attr));
}

// The dense encoding of a full-width row (all attributes in column order).
std::vector<double> DenseRow(const TabularEncoder& enc,
                             const std::vector<double>& row) {
  std::vector<int64_t> attrs(row.size());
  for (size_t a = 0; a < attrs.size(); ++a) attrs[a] = static_cast<int64_t>(a);
  std::vector<Code> codes;
  enc.EncodePointsCodesInto(attrs, {&row, 1}, &codes);
  return Dense(codes, enc.ProjectedWidth(attrs));
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
  const std::vector<double> encoded = DenseRow(enc, row);
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
    for (double v : DenseRow(enc, t.Row(r))) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---- Code form: EncodeValueCodes is the one encoder.
// The references below recompute the dense encoding the way EncodeValue did
// before code form — per-component log calls, one-hot pushes — and the
// comparisons are on bit patterns, so NaN and the sign of zero count.

std::vector<uint64_t> Bits(std::span<const double> v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&bits[i], &v[i], sizeof(double));
  }
  return bits;
}

int64_t ReferenceComponent(const GaussianMixture& g, double x) {
  int64_t best = 0;
  double best_lp = -std::numeric_limits<double>::max();
  for (int64_t c = 0; c < g.num_components(); ++c) {
    const GaussianComponent& k = g.components()[static_cast<size_t>(c)];
    const double lp = std::log(std::max(k.weight, 1e-12)) +
                      LogGaussianPdf(x, k.mean, k.variance);
    if (lp > best_lp) {
      best_lp = lp;
      best = c;
    }
  }
  return best;
}

double ReferenceNormalize(const GaussianMixture& g, int64_t c, double x) {
  const GaussianComponent& k = g.components()[static_cast<size_t>(c)];
  const double sigma = std::sqrt(k.variance);
  const double lo = k.mean - 3.0 * sigma;
  const double hi = k.mean + 3.0 * sigma;
  if (hi <= lo) return 0.5;
  return Clamp((x - lo) / (hi - lo), 0.0, 1.0);
}

// Numeric modes only (kCategorical is checked against hand-built one-hots).
std::vector<double> ReferenceEncode(const TabularEncoder& enc, int64_t attr,
                                    double x) {
  std::vector<double> out;
  const EncodingMode mode = enc.AttributeMode(attr);
  if (mode == EncodingMode::kMinMaxOnly) {
    out.push_back(enc.normalizer().Transform(attr, x));
    return out;
  }
  if (mode == EncodingMode::kGmmOnly || mode == EncodingMode::kCombined) {
    const GaussianMixture& g = enc.gmm(attr);
    const int64_t c = ReferenceComponent(g, x);
    for (int64_t i = 0; i < g.num_components(); ++i) {
      out.push_back(i == c ? 1.0 : 0.0);
    }
    out.push_back(ReferenceNormalize(g, c, x));
  }
  if (mode == EncodingMode::kJenksOnly || mode == EncodingMode::kCombined) {
    const JenksBreaks& j = enc.jenks(attr);
    const int64_t b = j.IntervalOf(x);
    for (int64_t i = 0; i < j.num_intervals(); ++i) {
      out.push_back(i == b ? 1.0 : 0.0);
    }
    out.push_back(j.NormalizeWithin(b, x));
  }
  return out;
}

// The dense row `width` wide that is +0.0 except at the codes, whose
// indices count from `offset`. Checks the codes ascend inside the row.
std::vector<double> Expand(std::span<const Code> codes, int64_t offset,
                           int64_t width) {
  std::vector<double> dense(static_cast<size_t>(width), 0.0);
  int64_t prev = -1;
  for (const Code& c : codes) {
    EXPECT_GT(c.index - offset, prev);
    EXPECT_LT(c.index - offset, width);
    prev = c.index - offset;
    dense[static_cast<size_t>(prev)] = c.value;
  }
  return dense;
}

// NaN, both zeros, both infinities, far outside the fitted range, the
// column's extremes, and a dense sweep across and past them.
std::vector<double> Probes(const data::Table& t, int64_t attr) {
  const double inf = std::numeric_limits<double>::infinity();
  double lo = inf;
  double hi = -inf;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    lo = std::min(lo, t.column(attr).value(r));
    hi = std::max(hi, t.column(attr).value(r));
  }
  std::vector<double> probes = {std::nan(""), 0.0, -0.0, inf, -inf};
  probes.insert(probes.end(), {lo - 1e6, hi + 1e6, lo, hi});
  const double span = hi - lo;
  for (int k = 0; k <= 400; ++k) {
    probes.push_back(lo - 0.1 * span + 1.2 * span * k / 400.0);
  }
  return probes;
}

TEST_P(EncoderModeTest, CodesExpandToTheReferenceEncoding) {
  Rng rng(30);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  for (int64_t attr = 0; attr < 2; ++attr) {
    const int64_t width = enc.AttributeWidth(attr);
    for (const double x : Probes(t, attr)) {
      Code codes[TabularEncoder::kMaxAttributeCodes];
      const Code* end = enc.EncodeValueCodes(attr, x, /*offset=*/7, codes);
      ASSERT_EQ(end - codes, enc.AttributeCodeCount(attr));
      const std::vector<double> ref = ReferenceEncode(enc, attr, x);
      EXPECT_EQ(Bits(Expand({codes, end}, 7, width)), Bits(ref))
          << "attr " << attr << " x " << x;
    }
  }
}

TEST_P(EncoderModeTest, GatheredCodesExpandToGatheredDense) {
  Rng rng(31);
  const data::Table fit = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(fit, &rng).ok());
  // Encode a table holding every probe of both columns.
  const std::vector<double> p0 = Probes(fit, 0);
  const std::vector<double> p1 = Probes(fit, 1);
  data::Table t({"bimodal", "ramp"});
  for (size_t i = 0; i < p0.size(); ++i) {
    ASSERT_TRUE(t.AppendRow({p0[i], p1[p1.size() - 1 - i]}).ok());
  }
  const std::vector<data::ColumnView> columns = {t.View(0), t.View(1)};
  for (const std::vector<int64_t>& attrs :
       std::vector<std::vector<int64_t>>{{0, 1}, {1, 0}, {1}}) {
    std::vector<data::ColumnView> views;
    for (const int64_t a : attrs) views.push_back(columns[a]);
    std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<int64_t>((i * 7) % rows.size());
    }
    rows.push_back(3);  // Duplicates are allowed.
    std::vector<Code> codes;
    enc.EncodeGatheredCodesInto(views, attrs, rows, &codes);
    std::vector<double> dense;
    enc.EncodeGatheredInto(views, attrs, rows, &dense);
    // The same tuples as raw points, through the points encoders.
    std::vector<std::vector<double>> points;
    for (const int64_t r : rows) {
      std::vector<double>& point = points.emplace_back();
      for (const int64_t a : attrs) point.push_back(t.column(a).value(r));
    }
    std::vector<Code> point_codes;
    enc.EncodePointsCodesInto(attrs, points, &point_codes);
    const int64_t per_row = enc.ProjectedCodeCount(attrs);
    const int64_t width = enc.ProjectedWidth(attrs);
    ASSERT_EQ(static_cast<int64_t>(codes.size()),
              per_row * static_cast<int64_t>(rows.size()));
    ASSERT_EQ(point_codes.size(), codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(point_codes[i].index, codes[i].index) << i;  // One layout.
    }
    const CodeRows block{codes, per_row};
    const CodeRows point_block{point_codes, per_row};
    for (size_t k = 0; k < rows.size(); ++k) {
      const auto row = static_cast<int64_t>(k);
      std::vector<double> ref;
      for (size_t j = 0; j < attrs.size(); ++j) {
        const std::vector<double> part =
            ReferenceEncode(enc, attrs[j], t.column(attrs[j]).value(rows[k]));
        ref.insert(ref.end(), part.begin(), part.end());
      }
      EXPECT_EQ(Bits(Expand(block.row(row), 0, width)), Bits(ref)) << k;
      EXPECT_EQ(Bits(std::span(dense).subspan(k * width, width)), Bits(ref))
          << k;
      EXPECT_EQ(Bits(Expand(point_block.row(row), 0, width)), Bits(ref))
          << k;
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
  const std::vector<double> out = DenseValue(enc, 0, 0.0);
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
  std::vector<Code> p;
  enc.EncodePointsCodesInto({1}, points, &p);
  Code direct[TabularEncoder::kMaxAttributeCodes];
  const Code* end = enc.EncodeValueCodes(1, 50.0, /*offset=*/0, direct);
  ASSERT_EQ(p.size(), static_cast<size_t>(end - direct));
  for (size_t k = 0; k < p.size(); ++k) {
    EXPECT_EQ(p[k].index, direct[k].index);
    EXPECT_EQ(p[k].value, direct[k].value);
  }
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
  const std::vector<double> a = DenseValue(enc, 0, 0.0);
  const std::vector<double> b = DenseValue(enc, 0, 0.1);
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
  EXPECT_EQ(static_cast<int64_t>(DenseRow(enc, sdss.Row(0)).size()),
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

  const std::vector<double> out = DenseValue(enc, 0, 1.0);
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
  const std::vector<double> out = DenseValue(enc, 0, 99.0);
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
  const std::vector<double> dominant = DenseValue(enc, 0, 0.0);
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
  const std::vector<double> encoded = DenseRow(enc, t.Row(0));
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
    EXPECT_EQ(DenseRow(loaded, t.Row(row)), DenseRow(enc, t.Row(row)));
  }
}

TEST(CategoricalEncodingTest, CodesExpandToTheOneHot) {
  Rng rng(32);
  data::Table t({"cat"});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i % 3)}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  ASSERT_EQ(enc.AttributeWidth(0), 4);
  ASSERT_EQ(enc.AttributeCodeCount(0), 1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  for (const double x : {0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 99.0, nan, inf,
                         -inf}) {
    // The known categories 0, 1 and 2 (-0.0 equals 0.0) take their own
    // slot; everything else, NaN and infinities included, slot 3 ("other").
    const bool known = x == 0.0 || x == 1.0 || x == 2.0;
    std::vector<double> expected(4, 0.0);
    expected[known ? static_cast<size_t>(x) : 3] = 1.0;
    Code code;
    ASSERT_EQ(enc.EncodeValueCodes(0, x, /*offset=*/2, &code), &code + 1);
    EXPECT_EQ(Bits(Expand({&code, 1}, 2, 4)), Bits(expected)) << x;
  }
}

// The cached per-component constants are rebuilt by Load: a reloaded
// mixture picks the component the fitted one does, and the reference's,
// across a dense sweep, and normalizes to the same bits.
TEST(TabularEncoderTest, ReloadedGmmAgreesWithFittedOnDenseSweep) {
  Rng rng(33);
  const data::Table t = TwoColumnTable(&rng);
  TabularEncoder enc;  // kCombined.
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  TabularEncoder loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  for (int64_t attr = 0; attr < 2; ++attr) {
    const GaussianMixture& fitted = enc.gmm(attr);
    const GaussianMixture& reloaded = loaded.gmm(attr);
    ASSERT_EQ(reloaded.num_components(), fitted.num_components());
    for (const double x : Probes(t, attr)) {
      const int64_t c = fitted.MostLikelyComponent(x);
      EXPECT_EQ(reloaded.MostLikelyComponent(x), c) << x;
      EXPECT_EQ(ReferenceComponent(fitted, x), c) << x;
      EXPECT_EQ(Bits(std::vector<double>{reloaded.NormalizeWithin(c, x)}),
                Bits(std::vector<double>{ReferenceNormalize(fitted, c, x)}))
          << x;
      Code a[TabularEncoder::kMaxAttributeCodes];
      Code b[TabularEncoder::kMaxAttributeCodes];
      const Code* a_end = enc.EncodeValueCodes(attr, x, 0, a);
      const Code* b_end = loaded.EncodeValueCodes(attr, x, 0, b);
      EXPECT_EQ(Bits(Expand({a, a_end}, 0, enc.AttributeWidth(attr))),
                Bits(Expand({b, b_end}, 0, loaded.AttributeWidth(attr))))
          << x;
    }
  }
}

// A record whose bucket counts disagree with its attributes' fitted models
// (num_gmm_components or num_jenks_intervals patched from 5 to 4) is
// rejected by Load: AttributeWidth sizes each attribute by those counts,
// so accepting it would encode past the attribute's width.
TEST(TabularEncoderTest, LoadRejectsBucketCountMismatch) {
  Rng rng(34);
  const data::Table t = TwoColumnTable(&rng);
  TabularEncoder enc;  // kCombined: both models per attribute.
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  const std::string bytes = buf.str();
  {
    std::stringstream in(bytes);
    BinaryReader r(&in);
    TabularEncoder loaded;
    ASSERT_TRUE(loaded.Load(&r).ok());
  }
  // The record starts with the mode, then num_gmm_components, then
  // num_jenks_intervals, 8 bytes each.
  for (const size_t offset : {size_t{8}, size_t{16}}) {
    std::string patched = bytes;
    int64_t count = 0;
    std::memcpy(&count, patched.data() + offset, sizeof(count));
    ASSERT_EQ(count, 5);
    count = 4;
    std::memcpy(patched.data() + offset, &count, sizeof(count));
    std::stringstream in(patched);
    BinaryReader r(&in);
    TabularEncoder loaded;
    const Status st = loaded.Load(&r);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "offset " << offset;
  }
}

}  // namespace
}  // namespace lte::preprocess
