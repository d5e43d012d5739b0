#include "core/optimizer_fpfn.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/meta_task.h"
#include "fpfn_reference_cells.h"
#include "geom/region.h"

namespace lte::core {
namespace {

class FpFnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 3000; ++i) {
      points.push_back({rng.Uniform(), rng.Uniform()});
    }
    MetaTaskGenOptions opt;
    opt.k_u = 40;
    opt.k_s = 10;
    opt.k_q = 20;
    generator_ = std::make_unique<MetaTaskGenerator>(opt);
    ASSERT_TRUE(generator_->Init(points, &rng).ok());
  }

  std::unique_ptr<MetaTaskGenerator> generator_;
};

TEST_F(FpFnTest, InnerIsSubsetOfOuter) {
  const SubspaceContext& ctx = generator_->context();
  std::vector<double> labels(10, 0.0);
  labels[3] = 1.0;
  labels[7] = 1.0;
  FpFnOptimizer opt(ctx, labels, FpFnOptions{});
  ASSERT_TRUE(opt.has_positive_centers());
  // Sample the unit square; every inner point must be an outer point.
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    if (opt.inner_subregion().Contains(p)) {
      EXPECT_TRUE(opt.outer_subregion().Contains(p));
    }
  }
}

TEST_F(FpFnTest, RefineKillsFarPositives) {
  const SubspaceContext& ctx = generator_->context();
  std::vector<double> labels(10, 0.0);
  labels[0] = 1.0;
  FpFnOptimizer opt(ctx, labels, FpFnOptions{});
  // A point far outside the data range cannot be in the outer subregion.
  EXPECT_DOUBLE_EQ(opt.Refine({100.0, 100.0}, 1.0), 0.0);
}

TEST_F(FpFnTest, RefineFillsInnerHoles) {
  const SubspaceContext& ctx = generator_->context();
  std::vector<double> labels(10, 0.0);
  labels[4] = 1.0;
  FpFnOptimizer opt(ctx, labels, FpFnOptions{});
  // The positive center itself lies inside the inner subregion.
  const std::vector<double>& center = ctx.centers_s[4];
  EXPECT_DOUBLE_EQ(opt.Refine(center, 0.0), 1.0);
}

TEST_F(FpFnTest, RefineKeepsConsistentPredictions) {
  const SubspaceContext& ctx = generator_->context();
  std::vector<double> labels(10, 0.0);
  labels[2] = 1.0;
  FpFnOptimizer opt(ctx, labels, FpFnOptions{});
  // Positive prediction inside the outer region is kept.
  const std::vector<double>& center = ctx.centers_s[2];
  EXPECT_DOUBLE_EQ(opt.Refine(center, 1.0), 1.0);
}

TEST_F(FpFnTest, NoPositivesLeavesPredictionsUntouched) {
  const SubspaceContext& ctx = generator_->context();
  const std::vector<double> labels(10, 0.0);
  FpFnOptimizer opt(ctx, labels, FpFnOptions{});
  EXPECT_FALSE(opt.has_positive_centers());
  EXPECT_DOUBLE_EQ(opt.Refine({0.5, 0.5}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(opt.Refine({0.5, 0.5}, 0.0), 0.0);
}

TEST_F(FpFnTest, LargerOuterFractionGrowsOuterRegion) {
  const SubspaceContext& ctx = generator_->context();
  std::vector<double> labels(10, 0.0);
  labels[5] = 1.0;
  FpFnOptions small_opt;
  small_opt.outer_fraction = 0.10;
  FpFnOptions big_opt;
  big_opt.outer_fraction = 0.60;
  FpFnOptimizer small(ctx, labels, small_opt);
  FpFnOptimizer big(ctx, labels, big_opt);
  Rng rng(7);
  int small_hits = 0;
  int big_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    if (small.outer_subregion().Contains(p)) ++small_hits;
    if (big.outer_subregion().Contains(p)) ++big_hits;
  }
  EXPECT_GE(big_hits, small_hits);
}

// The oracle for the assembled settling cells is the union certifier
// (fpfn_reference_cells.h).
using reference::ReferenceCells;

std::vector<uint8_t> CellsOf(const FpFnOptimizer& opt) {
  return {opt.cells().begin(), opt.cells().end()};
}

// Assembled cells equal the union certifier's byte for byte, for every
// positive subset tried: none, each single center, all, and random subsets,
// over the data's box and over boxes that cut through the hulls.
TEST_F(FpFnTest, AssembledCellsMatchUnionCertifier) {
  const SubspaceContext& ctx = generator_->context();
  const std::vector<geom::Box> boxes = {
      {0.0, 1.0, 0.0, 1.0}, {0.2, 0.7, 0.1, 0.9}, {-3.0, 4.0, -1.0, 2.0}};
  std::vector<std::vector<double>> subsets;
  subsets.emplace_back(10, 0.0);
  subsets.emplace_back(10, 1.0);
  for (size_t s = 0; s < 10; ++s) {
    subsets.emplace_back(10, 0.0);
    subsets.back()[s] = 1.0;
  }
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    std::vector<double> labels(10);
    for (double& y : labels) y = rng.Uniform() < 0.4 ? 1.0 : 0.0;
    subsets.push_back(std::move(labels));
  }
  int64_t with_cells = 0;
  std::vector<int64_t> seen(8, 0);  // Cells per code, so no case is vacuous.
  for (const geom::Box& box : boxes) {
    const FpFnParts parts(ctx, FpFnOptions{}, box);
    ASSERT_TRUE(parts.has_cells());
    for (const std::vector<double>& labels : subsets) {
      const FpFnOptimizer opt(parts, labels);
      const std::vector<uint8_t> expected = ReferenceCells(opt, box);
      EXPECT_EQ(CellsOf(opt), expected);
      // The context constructor builds the same parts and assembles them.
      EXPECT_EQ(CellsOf(FpFnOptimizer(ctx, labels, FpFnOptions{}, box)),
                expected);
      if (!expected.empty()) ++with_cells;
      for (const uint8_t code : expected) ++seen[code];
    }
  }
  EXPECT_EQ(with_cells, 3 * static_cast<int64_t>(subsets.size() - 1));
  // Proven out/out, in/out and in/in cells, and open cells both beside a
  // proven membership and with none.
  for (const uint8_t code : {0, 1, 3, 4, 5}) EXPECT_GT(seen[code], 0) << code;
}

// The optimizer keeps the union's hulls in ascending center order, as the
// union was built: same parts, same vertices.
TEST_F(FpFnTest, AssembledSubregionsAreThePositiveCentersHulls) {
  const SubspaceContext& ctx = generator_->context();
  const FpFnParts parts(ctx, FpFnOptions{}, std::nullopt);
  std::vector<double> labels(10, 0.0);
  labels[1] = labels[4] = labels[8] = 1.0;
  const FpFnOptimizer opt(parts, labels);
  const std::vector<int64_t> positive = {1, 4, 8};
  ASSERT_EQ(opt.outer_subregion().parts().size(), positive.size());
  ASSERT_EQ(opt.inner_subregion().parts().size(), positive.size());
  for (size_t i = 0; i < positive.size(); ++i) {
    const auto& outer = opt.outer_subregion().parts()[i].hull();
    const auto& inner = opt.inner_subregion().parts()[i].hull();
    const auto& want_outer = parts.outer(positive[i]).hull.hull();
    const auto& want_inner = parts.inner(positive[i]).hull.hull();
    ASSERT_EQ(outer.size(), want_outer.size());
    ASSERT_EQ(inner.size(), want_inner.size());
    for (size_t v = 0; v < outer.size(); ++v) {
      EXPECT_EQ(outer[v].x, want_outer[v].x);
      EXPECT_EQ(outer[v].y, want_outer[v].y);
    }
    for (size_t v = 0; v < inner.size(); ++v) {
      EXPECT_EQ(inner[v].x, want_inner[v].x);
      EXPECT_EQ(inner[v].y, want_inner[v].y);
    }
  }
  EXPECT_TRUE(opt.cells().empty());  // No box, no cells.
}

// A zero-width side maps the whole box to one column (or row) of cells;
// the assembly still matches the union certifier there.
TEST_F(FpFnTest, AssembledCellsMatchOnZeroWidthBoxSides) {
  const SubspaceContext& ctx = generator_->context();
  const std::vector<double>& c = ctx.centers_s[3];
  const std::vector<geom::Box> boxes = {{c[0], c[0], 0.0, 1.0},
                                        {0.0, 1.0, c[1], c[1]},
                                        {c[0], c[0], c[1], c[1]}};
  for (const geom::Box& box : boxes) {
    const FpFnParts parts(ctx, FpFnOptions{}, box);
    ASSERT_TRUE(parts.has_cells());
    for (const double other : {0.0, 1.0}) {
      std::vector<double> labels(10, other);
      labels[3] = 1.0;
      const FpFnOptimizer opt(parts, labels);
      ASSERT_FALSE(opt.cells().empty());
      EXPECT_EQ(CellsOf(opt), ReferenceCells(opt, box));
    }
  }
}

// Non-finite bounds, a negative width and a width whose scale overflows
// build no tables, so the assembled optimizer has no cells either, and
// Settle always defers to Locate.
TEST_F(FpFnTest, UnusableBoxesBuildNoCells) {
  const SubspaceContext& ctx = generator_->context();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<geom::Box> boxes = {{0.0, kInf, 0.0, 1.0},
                                        {-kInf, 1.0, 0.0, 1.0},
                                        {0.0, 1.0, kNan, 1.0},
                                        {0.0, 1.0, 1.0, 0.0},
                                        {0.0, 1e-320, 0.0, 1.0}};
  std::vector<double> labels(10, 1.0);
  for (const geom::Box& box : boxes) {
    const FpFnParts parts(ctx, FpFnOptions{}, box);
    EXPECT_FALSE(parts.has_cells());
    const FpFnOptimizer opt(parts, labels);
    EXPECT_TRUE(opt.cells().empty());
    EXPECT_TRUE(ReferenceCells(opt, box).empty());
    FpFnOptimizer::Membership m;
    EXPECT_FALSE(opt.Settle(std::vector<double>{0.5, 0.5}, &m));
  }
}

// A 1-D subspace gets hulls (intervals) but no cells, even with a box.
TEST(FpFnPartsTest, OneDimensionalSubspaceGetsNoCells) {
  Rng rng(8);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 1000; ++i) points.push_back({rng.Uniform()});
  MetaTaskGenOptions gen;
  gen.k_u = 20;
  gen.k_s = 6;
  gen.k_q = 10;
  MetaTaskGenerator generator(gen);
  ASSERT_TRUE(generator.Init(points, &rng).ok());
  const FpFnParts parts(generator.context(), FpFnOptions{},
                        geom::Box{0.0, 1.0, 0.0, 1.0});
  EXPECT_FALSE(parts.has_cells());
  ASSERT_EQ(parts.num_centers(), 6);
  for (int64_t s = 0; s < 6; ++s) {
    EXPECT_EQ(parts.outer(s).hull.dimension(), 1);
    EXPECT_TRUE(parts.outer(s).cells.empty());
    EXPECT_TRUE(parts.inner(s).cells.empty());
  }
  const std::vector<double> labels = {1.0, 0.0, 1.0, 0.0, 0.0, 1.0};
  const FpFnOptimizer opt(parts, labels);
  EXPECT_TRUE(opt.has_positive_centers());
  EXPECT_TRUE(opt.cells().empty());
  EXPECT_EQ(opt.outer_subregion().parts().size(), 3u);
  const std::vector<double>& center = generator.context().centers_s[2];
  EXPECT_DOUBLE_EQ(opt.Refine(center, 0.0), 1.0);
}

}  // namespace
}  // namespace lte::core
