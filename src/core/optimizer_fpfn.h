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

class FpFnParts;

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
/// Every hull depends only on the clustering, so the model builds them once
/// per subspace as `FpFnParts`, each with its single-part verdict over a
/// fixed kSettleGrid x kSettleGrid grid of cells over the subspace's value
/// box, and an optimizer is assembled from the parts of its positive
/// centers. A cell whose every point provably has one membership records it,
/// so `Settle` answers most rows from their cell instead of running both
/// hull tests (DESIGN.md §2b, "Cell settling"). Locate and Refine never read
/// the cells.
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
  /// rows but doubles the per-epoch parts build and quadruples the cells a
  /// session start or restore combines (EXPERIMENTS.md, "Cell settling").
  static constexpr int64_t kSettleGrid = 32;

  /// A cell's code in `cells()`: kOpenCell set when either region leaves it
  /// unproven, else its proven membership as kOuterBit | kInnerBit.
  static constexpr uint8_t kOuterBit = 1;
  static constexpr uint8_t kInnerBit = 2;
  static constexpr uint8_t kOpenCell = 4;

  /// Assembles the optimizer for `center_labels`, the user's 0/1 labels of
  /// the k_s C^s centers, from its subspace's `parts`. Each subregion is the
  /// union of the positive centers' hulls in ascending center order. A
  /// cell's region bit is set when some positive part contains the cell;
  /// otherwise kOpenCell is set when some positive part leaves it open.
  FpFnOptimizer(const FpFnParts& parts,
                const std::vector<double>& center_labels);

  /// Builds the parts of `context` and assembles from them. `value_box` is
  /// the raw [min, max] box of a 2-D subspace (x = its first attribute);
  /// with one, and with finite bounds, the settling cells are built over
  /// it. Without, Settle always defers to Locate.
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

  /// The settling table's cell codes, row-major by cy (cell (cx, cy) at
  /// cy * kSettleGrid + cx); empty without cells.
  std::span<const uint8_t> cells() const { return cells_; }

 private:
  geom::Region outer_;
  geom::Region inner_;
  bool has_positive_ = false;
  /// Settling table (empty = none): cell (cx, cy) holds the points whose
  /// `(x - box_.xlo) * scale_x_` truncates to cx (clamped to the last
  /// cell), and likewise for y.
  geom::Box box_;
  double scale_x_ = 0.0;
  double scale_y_ = 0.0;
  std::vector<uint8_t> cells_;
};

/// The user-independent building blocks of one subspace's FP/FN
/// subregions: for each of the k_s C^s centers, its outer hull (the center
/// and its N_sup nearest C^u centers) and its inner hull (N_sub), each with
/// its own verdict over the settling grid. A pure function of the
/// clustering context, the options and the value box, so the model builds it
/// once per subspace in Pretrain and Load and never serializes it.
class FpFnParts {
 public:
  /// A part's verdict over one settling cell: 0 when the part excludes the
  /// whole cell, kPartInside when it contains it, kPartOpen when unproven.
  static constexpr uint8_t kPartInside = 1;
  static constexpr uint8_t kPartOpen = 2;

  /// One convex hull and its settling table (kSettleGrid² verdicts,
  /// row-major by cy; empty without cells).
  struct Part {
    geom::ConvexRegion hull;
    std::vector<uint8_t> cells;
  };

  FpFnParts() = default;

  /// `value_box` as for `FpFnOptimizer`'s context constructor: the tables
  /// are built only over a 2-D subspace whose box has finite bounds.
  FpFnParts(const SubspaceContext& context, const FpFnOptions& options,
            std::optional<geom::Box> value_box);

  int64_t num_centers() const { return static_cast<int64_t>(outer_.size()); }
  /// The parts of C^s center `s`, in [0, num_centers()).
  const Part& outer(int64_t s) const { return outer_[static_cast<size_t>(s)]; }
  const Part& inner(int64_t s) const { return inner_[static_cast<size_t>(s)]; }

  /// True when every part carries a settling table over `box()`.
  bool has_cells() const { return has_cells_; }
  const geom::Box& box() const { return box_; }
  /// Cells per unit of x and of y (0 along a zero-width side).
  double scale_x() const { return scale_x_; }
  double scale_y() const { return scale_y_; }

 private:
  std::vector<Part> outer_;
  std::vector<Part> inner_;
  bool has_cells_ = false;
  geom::Box box_;
  double scale_x_ = 0.0;
  double scale_y_ = 0.0;
};

}  // namespace lte::core

#endif  // LTE_CORE_OPTIMIZER_FPFN_H_
