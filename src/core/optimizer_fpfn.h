#ifndef LTE_CORE_OPTIMIZER_FPFN_H_
#define LTE_CORE_OPTIMIZER_FPFN_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/meta_task.h"
#include "geom/region.h"

namespace lte::core {

/// Expansion extents of the few-shot prediction optimizer (paper Section
/// VII-B). N_sup / N_sub are fractions of k_u; the paper's defaults are 30%
/// and 10%.
struct FpFnOptions {
  double outer_fraction = 0.30;
  double inner_fraction = 0.10;
};

/// Heuristic refinement of few-shot predictions (the Meta* variant).
///
/// From the positively labelled C^s centers it builds:
///  * an *outer-subregion* — the union of large convex hulls over each
///    positive center's N_sup nearest C^u centers — conceived to be a
///    superset of the real UIS: predictions outside it are revised from
///    positive to negative (kills far-away false positives);
///  * an *inner-subregion* — the same construction with the much smaller
///    N_sub ("conservative expansion") — conceived to be a subset of the
///    UIS: predictions inside it are revised from negative to positive
///    (fills small false-negative holes).
///
/// Refine is written as one decision rule over the point's membership in the
/// two subregions: `Decide(Locate(p), prediction)`. Whenever
/// outer(p) == inner(p) the verdict is that shared value whatever the
/// classifier says, so the block scan settles such rows before it encodes or
/// forwards them (DESIGN.md §2b). No containment between the subregions is
/// assumed: near a boundary a point can be inside the inner subregion yet
/// outside the outer one, and the rule still reproduces Refine exactly.
///
/// Over a 2-D subspace with a value box, construction also certifies a fixed
/// kSettleGrid x kSettleGrid grid of cells over the box: a cell whose every
/// point provably has one membership records it, so `Settle` answers most
/// rows from their cell instead of running both hull tests (DESIGN.md §2b,
/// "Cell settling"). Locate and Refine never read the cells.
class FpFnOptimizer {
 public:
  /// A raw point's membership in the outer and inner subregions.
  struct Membership {
    bool outer = false;
    bool inner = false;
    /// True when the classifier's prediction cannot change the verdict.
    bool decided() const { return outer == inner; }
  };

  /// The membership that leaves the verdict to the classifier unchanged
  /// (`Decide(kPassThrough, p) == (p > 0.5)`): what scoring uses where no
  /// subregions apply.
  static constexpr Membership kPassThrough{true, false};

  /// Grid cells per axis of the settling table. Fixed: G = 64 proves more
  /// rows but doubles the build, which every session restore pays
  /// (EXPERIMENTS.md, "Cell settling").
  static constexpr int64_t kSettleGrid = 32;

  /// `center_labels` are the user's 0/1 labels of the k_s C^s centers.
  /// `value_box` is the raw [min, max] box of a 2-D subspace (x = its first
  /// attribute); with one, and with finite bounds, the settling cells are
  /// built over it. Without, Settle always defers to Locate.
  FpFnOptimizer(const SubspaceContext& context,
                const std::vector<double>& center_labels,
                const FpFnOptions& options,
                std::optional<geom::Box> value_box = std::nullopt);

  /// Where a raw subspace point lies. Requires has_positive_centers().
  Membership Locate(std::span<const double> point) const {
    return {outer_.Contains(point), inner_.Contains(point)};
  }

  /// If the cell of 2-D raw point `point` proves its membership, writes it
  /// to `*m` (equal to `Locate(point)`) and returns true. Returns false for
  /// a point in an open cell or outside the value box (NaN included), and
  /// always without cells. Requires has_positive_centers().
  bool Settle(std::span<const double> point, Membership* m) const {
    if (cells_.empty()) return false;
    const double x = point[0];
    const double y = point[1];
    if (!(x >= box_.xlo && x <= box_.xhi && y >= box_.ylo && y <= box_.yhi)) {
      return false;
    }
    const int64_t cx = std::min(
        kSettleGrid - 1, static_cast<int64_t>((x - box_.xlo) * scale_x_));
    const int64_t cy = std::min(
        kSettleGrid - 1, static_cast<int64_t>((y - box_.ylo) * scale_y_));
    const uint8_t cell = cells_[static_cast<size_t>(cy * kSettleGrid + cx)];
    if ((cell & kOpenCell) != 0) return false;
    *m = {(cell & kOuterBit) != 0, (cell & kInnerBit) != 0};
    return true;
  }

  /// The Meta* decision rule: a positive prediction (> 0.5) keeps the point
  /// iff the outer subregion contains it (FP repair), a negative one iff the
  /// inner subregion does (FN repair).
  static double Decide(Membership m, double prediction) {
    return (prediction > 0.5 ? m.outer : m.inner) ? 1.0 : 0.0;
  }

  /// Decide over a block: `verdicts[k] = Decide(where[k], p)`, where p is
  /// the next unread entry of `band_probs` for an undecided row (the band
  /// rows' probabilities in row order) and irrelevant for a decided one.
  /// `band_probs` must hold exactly one entry per undecided row.
  static void DecideAll(std::span<const Membership> where,
                        std::span<const double> band_probs,
                        std::span<double> verdicts);

  /// Returns the refined 0/1 prediction for a raw subspace point.
  double Refine(const std::vector<double>& point, double prediction) const;

  const geom::Region& outer_subregion() const { return outer_; }
  const geom::Region& inner_subregion() const { return inner_; }
  bool has_positive_centers() const { return has_positive_; }

 private:
  /// A cell's code: kOpenCell set when either region leaves it unproven,
  /// else its proven membership as kOuterBit | kInnerBit.
  static constexpr uint8_t kOuterBit = 1;
  static constexpr uint8_t kInnerBit = 2;
  static constexpr uint8_t kOpenCell = 4;

  void BuildCells(const geom::Box& box);

  geom::Region outer_;
  geom::Region inner_;
  bool has_positive_ = false;
  /// Settling table, row-major by cy (empty = none): cell (cx, cy) holds the
  /// points whose `(x - box_.xlo) * scale_x_` truncates to cx (clamped to
  /// the last cell), and likewise for y.
  geom::Box box_;
  double scale_x_ = 0.0;
  double scale_y_ = 0.0;
  std::vector<uint8_t> cells_;
};

}  // namespace lte::core

#endif  // LTE_CORE_OPTIMIZER_FPFN_H_
