#include "core/optimizer_fpfn.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace lte::core {
namespace {

// Union of convex hulls over each positive center's `n_expand`-NN group.
geom::Region BuildSubregion(const SubspaceContext& context,
                            const std::vector<double>& center_labels,
                            int64_t n_expand) {
  geom::Region region;
  for (int64_t s = 0; s < context.proximity_s.num_rows(); ++s) {
    if (center_labels[static_cast<size_t>(s)] <= 0.5) continue;
    std::vector<std::vector<double>> group;
    group.push_back(context.centers_s[static_cast<size_t>(s)]);
    for (int64_t u : context.proximity_s.NearestCols(s, n_expand)) {
      group.push_back(context.centers_u[static_cast<size_t>(u)]);
    }
    region.AddPart(geom::ConvexRegion::HullOf(group));
  }
  return region;
}

// Widening of a cell rectangle, relative to the box's coordinate magnitude.
// A row's cell index comes from `(x - xlo) * scale`, and the certified cell
// edges from `xlo + c * step`; both round off by a few ulps of
// |xlo| + |xhi|, so a row can sit that far past the cell it is filed under.
// 1e-12 covers that many times over and is still far below any cell width.
constexpr double kCellMargin = 1e-12;

// Certifies one region over the settling grid with a culling quadtree. A
// node keeps only the parts it has not yet proven to exclude it; the first
// part that contains the node settles the whole node inside, and a node with
// no parts left is outside. A one-cell node with parts left is open. The
// surviving part lists live in one stack, a slice per quadtree level, so the
// walk allocates nothing per node.
class CellCertifier {
 public:
  /// Sets `inside` in the code of every cell `region` contains and `open`
  /// in that of every cell it leaves unproven, over the kSettleGrid grid of
  /// `box`.
  CellCertifier(const geom::Region& region, const geom::Box& box,
                uint8_t inside, uint8_t open, std::vector<uint8_t>* cells)
      : parts_(region.parts()),
        box_(box),
        step_x_((box.xhi - box.xlo) / static_cast<double>(kGrid)),
        step_y_((box.yhi - box.ylo) / static_cast<double>(kGrid)),
        margin_x_(kCellMargin * (std::abs(box.xlo) + std::abs(box.xhi))),
        margin_y_(kCellMargin * (std::abs(box.ylo) + std::abs(box.yhi))),
        inside_(inside),
        open_(open),
        cells_(cells) {}

  void Run() {
    const size_t n = parts_.size();
    if (n == 0) return;  // An empty region excludes every cell.
    // A node at depth d reads its parts from slice d and writes the ones it
    // keeps to slice d + 1; the one-cell leaves sit at depth log2(G).
    size_t depth = 0;
    for (int64_t size = kGrid; size > 1; size /= 2) ++depth;
    stack_.resize(n * (depth + 2));
    std::iota(stack_.begin(), stack_.begin() + static_cast<std::ptrdiff_t>(n),
              int32_t{0});
    Visit(0, 0, kGrid, 0, n);
  }

 private:
  static constexpr int64_t kGrid = FpFnOptimizer::kSettleGrid;
  static_assert((kGrid & (kGrid - 1)) == 0, "the quadtree halves the grid");

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
          // Siblings share this list and likely lie in the same part:
          // let them try it first.
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
    if (left == 0) return;  // Outside: the region's bit stays clear.
    if (size == 1) {
      Fill(cx, cy, 1, open_);
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
  const uint8_t open_;
  std::vector<uint8_t>* cells_;
  std::vector<int32_t> stack_;
};

}  // namespace

FpFnOptimizer::FpFnOptimizer(const SubspaceContext& context,
                             const std::vector<double>& center_labels,
                             const FpFnOptions& options,
                             std::optional<geom::Box> value_box) {
  LTE_CHECK_EQ(static_cast<int64_t>(center_labels.size()),
               context.proximity_s.num_rows());
  const auto k_u = static_cast<double>(context.proximity_u.num_rows());
  const int64_t n_sup =
      std::max<int64_t>(1, static_cast<int64_t>(options.outer_fraction * k_u));
  const int64_t n_sub =
      std::max<int64_t>(1, static_cast<int64_t>(options.inner_fraction * k_u));
  for (double label : center_labels) {
    if (label > 0.5) {
      has_positive_ = true;
      break;
    }
  }
  outer_ = BuildSubregion(context, center_labels, n_sup);
  inner_ = BuildSubregion(context, center_labels, n_sub);
  if (has_positive_ && value_box.has_value() &&
      outer_.parts().front().dimension() == 2) {
    BuildCells(*value_box);
  }
}

void FpFnOptimizer::BuildCells(const geom::Box& box) {
  const double width_x = box.xhi - box.xlo;
  const double width_y = box.yhi - box.ylo;
  if (!std::isfinite(width_x) || !std::isfinite(width_y) || width_x < 0.0 ||
      width_y < 0.0) {
    return;
  }
  // A zero-width side maps every in-box value to cell 0 (its only value).
  const auto grid = static_cast<double>(kSettleGrid);
  const double scale_x = width_x > 0.0 ? grid / width_x : 0.0;
  const double scale_y = width_y > 0.0 ? grid / width_y : 0.0;
  if (!std::isfinite(scale_x) || !std::isfinite(scale_y)) return;
  box_ = box;
  scale_x_ = scale_x;
  scale_y_ = scale_y;
  cells_.assign(static_cast<size_t>(kSettleGrid * kSettleGrid), 0);
  CellCertifier(outer_, box, kOuterBit, kOpenCell, &cells_).Run();
  CellCertifier(inner_, box, kInnerBit, kOpenCell, &cells_).Run();
}

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
