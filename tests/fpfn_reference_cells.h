#ifndef LTE_TESTS_FPFN_REFERENCE_CELLS_H_
#define LTE_TESTS_FPFN_REFERENCE_CELLS_H_

// Test oracle for the FP/FN optimizer's settling cells, shared by
// optimizer_fpfn_test (cell codes) and scan_differential_test (located-row
// counts). It certifies each subregion's union of parts directly, as every
// optimizer did before the per-center parts existed, so it reads neither the
// parts' tables nor the optimizer's assembled cells.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/optimizer_fpfn.h"
#include "geom/region.h"

namespace lte::core::reference {

// A node keeps only the parts it has not yet proven to exclude it; the
// first part that contains the node settles the whole node inside, and a
// node with no parts left is outside. A one-cell node with parts left is
// open.
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
inline std::vector<uint8_t> ReferenceCells(const FpFnOptimizer& opt,
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

// Whether `cells` (ReferenceCells over `box`) prove the membership of 2-D
// point `p`: false for an open cell, a point outside the box (NaN
// included) and empty cells. A point's cell is the truncation of
// `(x - xlo) * (G / width)`, clamped to the last cell; a zero-width side
// maps to cell 0.
inline bool ReferenceSettles(const std::vector<uint8_t>& cells,
                             const geom::Box& box,
                             std::span<const double> p) {
  if (cells.empty()) return false;
  const double x = p[0];
  const double y = p[1];
  if (!(x >= box.xlo && x <= box.xhi && y >= box.ylo && y <= box.yhi)) {
    return false;
  }
  constexpr int64_t kGrid = FpFnOptimizer::kSettleGrid;
  const auto cell_of = [](double v, double lo, double hi) {
    const double scale =
        hi > lo ? static_cast<double>(kGrid) / (hi - lo) : 0.0;
    return std::min(kGrid - 1, static_cast<int64_t>((v - lo) * scale));
  };
  const int64_t cx = cell_of(x, box.xlo, box.xhi);
  const int64_t cy = cell_of(y, box.ylo, box.yhi);
  return (cells[static_cast<size_t>(cy * kGrid + cx)] &
          FpFnOptimizer::kOpenCell) == 0;
}

}  // namespace lte::core::reference

#endif  // LTE_TESTS_FPFN_REFERENCE_CELLS_H_
