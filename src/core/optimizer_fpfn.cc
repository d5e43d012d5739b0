#include "core/optimizer_fpfn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace lte::core {
namespace {

constexpr int64_t kGrid = FpFnOptimizer::kSettleGrid;
constexpr size_t kNumCells = static_cast<size_t>(kGrid * kGrid);
static_assert((kGrid & (kGrid - 1)) == 0, "the quadtree halves the grid");

// The convex hull of C^s center `s` and its `n_expand` nearest C^u centers.
geom::ConvexRegion CenterHull(const SubspaceContext& context, int64_t s,
                              int64_t n_expand) {
  std::vector<std::vector<double>> group;
  group.push_back(context.centers_s[static_cast<size_t>(s)]);
  for (int64_t u : context.proximity_s.NearestCols(s, n_expand)) {
    group.push_back(context.centers_u[static_cast<size_t>(u)]);
  }
  return geom::ConvexRegion::HullOf(group);
}

// Widening of a cell rectangle, relative to the box's coordinate magnitude.
// A row's cell index comes from `(x - xlo) * scale`, and the certified cell
// edges from `xlo + c * step`; both round off by a few ulps of
// |xlo| + |xhi|, so a row can sit that far past the cell it is filed under.
// 1e-12 covers that many times over and is still far below any cell width.
constexpr double kCellMargin = 1e-12;

// Certifies one convex part over the settling grid of a box with a
// quadtree: a node the part contains is inside, a node it excludes is
// outside, and only a node it leaves open is split; a one-cell node left
// open stays open.
class PartCertifier {
 public:
  explicit PartCertifier(const geom::Box& box)
      : box_(box),
        step_x_((box.xhi - box.xlo) / static_cast<double>(kGrid)),
        step_y_((box.yhi - box.ylo) / static_cast<double>(kGrid)),
        margin_x_(kCellMargin * (std::abs(box.xlo) + std::abs(box.xhi))),
        margin_y_(kCellMargin * (std::abs(box.ylo) + std::abs(box.yhi))) {}

  /// Returns the part's verdict over every cell.
  std::vector<uint8_t> Run(const geom::ConvexRegion& part) const {
    std::vector<uint8_t> cells(kNumCells, 0);
    Visit(part, 0, 0, kGrid, &cells);
    return cells;
  }

 private:
  void Visit(const geom::ConvexRegion& part, int64_t cx, int64_t cy,
             int64_t size, std::vector<uint8_t>* cells) const {
    const geom::Box node{
        box_.xlo + static_cast<double>(cx) * step_x_ - margin_x_,
        box_.xlo + static_cast<double>(cx + size) * step_x_ + margin_x_,
        box_.ylo + static_cast<double>(cy) * step_y_ - margin_y_,
        box_.ylo + static_cast<double>(cy + size) * step_y_ + margin_y_};
    switch (part.Relate(node)) {
      case geom::BoxRelation::kInside:
        for (int64_t y = cy; y < cy + size; ++y) {
          std::fill_n(cells->begin() + y * kGrid + cx, size,
                      FpFnParts::kPartInside);
        }
        return;
      case geom::BoxRelation::kOutside:
        return;
      case geom::BoxRelation::kOpen:
        break;
    }
    if (size == 1) {
      (*cells)[static_cast<size_t>(cy * kGrid + cx)] = FpFnParts::kPartOpen;
      return;
    }
    const int64_t half = size / 2;
    Visit(part, cx, cy, half, cells);
    Visit(part, cx + half, cy, half, cells);
    Visit(part, cx, cy + half, half, cells);
    Visit(part, cx + half, cy + half, half, cells);
  }

  const geom::Box box_;
  const double step_x_;
  const double step_y_;
  const double margin_x_;
  const double margin_y_;
};

// Adds one region's verdicts to the cell codes: `bit` where some of its
// parts' `tables` contains the cell, else kOpenCell where some leaves it
// open.
void CombineTables(const std::vector<const uint8_t*>& tables, uint8_t bit,
                   std::vector<uint8_t>* cells) {
  std::array<uint8_t, kNumCells> any{};
  for (const uint8_t* table : tables) {
    for (size_t c = 0; c < kNumCells; ++c) any[c] |= table[c];
  }
  for (size_t c = 0; c < kNumCells; ++c) {
    if ((any[c] & FpFnParts::kPartInside) != 0) {
      (*cells)[c] |= bit;
    } else if (any[c] != 0) {
      (*cells)[c] |= FpFnOptimizer::kOpenCell;
    }
  }
}

}  // namespace

FpFnParts::FpFnParts(const SubspaceContext& context,
                     const FpFnOptions& options,
                     std::optional<geom::Box> value_box) {
  const auto k_u = static_cast<double>(context.proximity_u.num_rows());
  const int64_t n_sup =
      std::max<int64_t>(1, static_cast<int64_t>(options.outer_fraction * k_u));
  const int64_t n_sub =
      std::max<int64_t>(1, static_cast<int64_t>(options.inner_fraction * k_u));
  const int64_t k_s = context.proximity_s.num_rows();
  for (int64_t s = 0; s < k_s; ++s) {
    outer_.push_back({CenterHull(context, s, n_sup), {}});
    inner_.push_back({CenterHull(context, s, n_sub), {}});
  }
  if (outer_.empty() || outer_.front().hull.dimension() != 2 ||
      !value_box.has_value()) {
    return;
  }
  const geom::Box& box = *value_box;
  const double width_x = box.xhi - box.xlo;
  const double width_y = box.yhi - box.ylo;
  if (!std::isfinite(width_x) || !std::isfinite(width_y) || width_x < 0.0 ||
      width_y < 0.0) {
    return;
  }
  // A zero-width side maps every in-box value to cell 0 (its only value).
  const auto grid = static_cast<double>(kGrid);
  const double scale_x = width_x > 0.0 ? grid / width_x : 0.0;
  const double scale_y = width_y > 0.0 ? grid / width_y : 0.0;
  if (!std::isfinite(scale_x) || !std::isfinite(scale_y)) return;
  has_cells_ = true;
  box_ = box;
  scale_x_ = scale_x;
  scale_y_ = scale_y;
  const PartCertifier certifier(box);
  for (size_t s = 0; s < outer_.size(); ++s) {
    outer_[s].cells = certifier.Run(outer_[s].hull);
    inner_[s].cells = certifier.Run(inner_[s].hull);
  }
}

// Exact against certifying each region's union directly: a union's walk
// tests a part at a node only while that part was open at every ancestor,
// so a cell is inside the union iff some part's own walk finds it inside,
// and open iff none does and some part's walk reaches it open.
FpFnOptimizer::FpFnOptimizer(const FpFnParts& parts,
                             const std::vector<double>& center_labels) {
  LTE_CHECK_EQ(static_cast<int64_t>(center_labels.size()),
               parts.num_centers());
  std::vector<const uint8_t*> outer_tables;
  std::vector<const uint8_t*> inner_tables;
  for (int64_t s = 0; s < parts.num_centers(); ++s) {
    if (center_labels[static_cast<size_t>(s)] <= 0.5) continue;
    has_positive_ = true;
    outer_.AddPart(parts.outer(s).hull);
    inner_.AddPart(parts.inner(s).hull);
    outer_tables.push_back(parts.outer(s).cells.data());
    inner_tables.push_back(parts.inner(s).cells.data());
  }
  if (!has_positive_ || !parts.has_cells()) return;
  box_ = parts.box();
  scale_x_ = parts.scale_x();
  scale_y_ = parts.scale_y();
  cells_.assign(kNumCells, 0);
  CombineTables(outer_tables, kOuterBit, &cells_);
  CombineTables(inner_tables, kInnerBit, &cells_);
}

FpFnOptimizer::FpFnOptimizer(const SubspaceContext& context,
                             const std::vector<double>& center_labels,
                             const FpFnOptions& options,
                             std::optional<geom::Box> value_box)
    : FpFnOptimizer(FpFnParts(context, options, value_box), center_labels) {}

void FpFnOptimizer::DecideAll(std::span<const Membership> where,
                              std::span<const double> band_probs,
                              std::span<double> verdicts) {
  LTE_CHECK_EQ(where.size(), verdicts.size());
  size_t next = 0;
  for (size_t k = 0; k < where.size(); ++k) {
    // A decided row's verdict is the same for any probability; it reads none.
    double prob = 0.0;
    if (!where[k].decided()) {
      LTE_CHECK_LT(next, band_probs.size());
      prob = band_probs[next++];
    }
    verdicts[k] = Decide(where[k], prob);
  }
  LTE_CHECK_EQ(next, band_probs.size());
}

double FpFnOptimizer::Refine(const std::vector<double>& point,
                             double prediction) const {
  // With no positive labels there is nothing to anchor the subregions on;
  // leave the classifier's verdict untouched.
  if (!has_positive_) return prediction;
  return Decide(Locate(point), prediction);
}

}  // namespace lte::core
