#ifndef LTE_CORE_OPTIMIZER_FPFN_H_
#define LTE_CORE_OPTIMIZER_FPFN_H_

#include <cstdint>
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

  /// `center_labels` are the user's 0/1 labels of the k_s C^s centers.
  FpFnOptimizer(const SubspaceContext& context,
                const std::vector<double>& center_labels,
                const FpFnOptions& options);

  /// Where a raw subspace point lies. Requires has_positive_centers().
  Membership Locate(std::span<const double> point) const {
    return {outer_.Contains(point), inner_.Contains(point)};
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
  geom::Region outer_;
  geom::Region inner_;
  bool has_positive_ = false;
};

}  // namespace lte::core

#endif  // LTE_CORE_OPTIMIZER_FPFN_H_
