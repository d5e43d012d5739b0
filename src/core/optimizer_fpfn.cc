#include "core/optimizer_fpfn.h"

#include <algorithm>

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

}  // namespace

FpFnOptimizer::FpFnOptimizer(const SubspaceContext& context,
                             const std::vector<double>& center_labels,
                             const FpFnOptions& options) {
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
