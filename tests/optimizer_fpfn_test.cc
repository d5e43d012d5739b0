#include "core/optimizer_fpfn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/meta_task.h"
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

// The oracle for the assembled settling cells: the certifier that ran over
// each region's union of parts for every optimizer before the per-center
// parts existed, kept here verbatim in behaviour. A node keeps only the
// parts it has not yet proven to exclude it; the first part that contains
// the node settles the whole node inside, and a node with no parts left is
// outside. A one-cell node with parts left is open.
class UnionCertifier {
 public:
  UnionCertifier(const geom::Region& region, const geom::Box& box,
                 uint8_t inside, std::vector<uint8_t>* cells)
      : parts_(region.parts()),
        box_(box),
        step_x_((box.xhi - box.xlo) / static_cast<double>(kGrid)),
        step_y_((box.yhi - box.ylo) / static_cast<double>(kGrid)),
        margin_x_(1e-12 * (std::abs(box.xlo) + std::abs(box.xhi))),
        margin_y_(1e-12 * (std::abs(box.ylo) + std::abs(box.yhi))),
        inside_(inside),
        cells_(cells) {}

  void Run() {
    const size_t n = parts_.size();
    if (n == 0) return;
    size_t depth = 0;
    for (int64_t size = kGrid; size > 1; size /= 2) ++depth;
    stack_.resize(n * (depth + 2));
    std::iota(stack_.begin(), stack_.begin() + static_cast<std::ptrdiff_t>(n),
              int32_t{0});
    Visit(0, 0, kGrid, 0, n);
  }

 private:
  static constexpr int64_t kGrid = FpFnOptimizer::kSettleGrid;

  void Visit(int64_t cx, int64_t cy, int64_t size, size_t level,
             size_t count) {
    const size_t n = parts_.size();
    int32_t* candidates = stack_.data() + level * n;
    int32_t* kept = stack_.data() + (level + 1) * n;
    const geom::Box cell{
        box_.xlo + static_cast<double>(cx) * step_x_ - margin_x_,
        box_.xlo + static_cast<double>(cx + size) * step_x_ + margin_x_,
        box_.ylo + static_cast<double>(cy) * step_y_ - margin_y_,
        box_.ylo + static_cast<double>(cy + size) * step_y_ + margin_y_};
    size_t left = 0;
    for (size_t i = 0; i < count; ++i) {
      switch (parts_[static_cast<size_t>(candidates[i])].Relate(cell)) {
        case geom::BoxRelation::kInside:
          std::swap(candidates[0], candidates[i]);
          Fill(cx, cy, size, inside_);
          return;
        case geom::BoxRelation::kOpen:
          kept[left++] = candidates[i];
          break;
        case geom::BoxRelation::kOutside:
          break;
      }
    }
    if (left == 0) return;
    if (size == 1) {
      Fill(cx, cy, 1, FpFnOptimizer::kOpenCell);
      return;
    }
    const int64_t half = size / 2;
    Visit(cx, cy, half, level + 1, left);
    Visit(cx + half, cy, half, level + 1, left);
    Visit(cx, cy + half, half, level + 1, left);
    Visit(cx + half, cy + half, half, level + 1, left);
  }

  void Fill(int64_t cx, int64_t cy, int64_t size, uint8_t code) {
    for (int64_t y = cy; y < cy + size; ++y) {
      for (int64_t x = cx; x < cx + size; ++x) {
        (*cells_)[static_cast<size_t>(y * kGrid + x)] |= code;
      }
    }
  }

  const std::vector<geom::ConvexRegion>& parts_;
  const geom::Box box_;
  const double step_x_;
  const double step_y_;
  const double margin_x_;
  const double margin_y_;
  const uint8_t inside_;
  std::vector<uint8_t>* cells_;
  std::vector<int32_t> stack_;
};

// The cell codes the union certifier gives `opt`'s subregions over `box`:
// empty without positive centers, over a 1-D subspace, or over a box with a
// non-finite or negative width or scale.
std::vector<uint8_t> ReferenceCells(const FpFnOptimizer& opt,
                                    std::optional<geom::Box> box) {
  if (!opt.has_positive_centers() || !box.has_value() ||
      opt.outer_subregion().parts().front().dimension() != 2) {
    return {};
  }
  const double width_x = box->xhi - box->xlo;
  const double width_y = box->yhi - box->ylo;
  if (!std::isfinite(width_x) || !std::isfinite(width_y) || width_x < 0.0 ||
      width_y < 0.0) {
    return {};
  }
  const auto grid = static_cast<double>(FpFnOptimizer::kSettleGrid);
  if (!std::isfinite(width_x > 0.0 ? grid / width_x : 0.0) ||
      !std::isfinite(width_y > 0.0 ? grid / width_y : 0.0)) {
    return {};
  }
  std::vector<uint8_t> cells(
      static_cast<size_t>(FpFnOptimizer::kSettleGrid *
                          FpFnOptimizer::kSettleGrid),
      0);
  UnionCertifier(opt.outer_subregion(), *box, FpFnOptimizer::kOuterBit,
                 &cells)
      .Run();
  UnionCertifier(opt.inner_subregion(), *box, FpFnOptimizer::kInnerBit,
                 &cells)
      .Run();
  return cells;
}

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
