#ifndef LTE_PREPROCESS_GMM_H_
#define LTE_PREPROCESS_GMM_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"

namespace lte::preprocess {

/// One component of a univariate Gaussian mixture.
struct GaussianComponent {
  double weight = 0.0;
  double mean = 0.0;
  double variance = 1.0;
};

/// Univariate Gaussian mixture model fitted with EM.
///
/// The tabular encoder (paper Section VII-A, Algorithm 3) fits one GMM per
/// numeric attribute on a sampled value set; the encoding of a value is the
/// one-hot of its maximum-likelihood component plus the value normalized
/// within that component's effective range (mean ± 3σ).
class GaussianMixture {
 public:
  GaussianMixture() = default;

  /// Fits `num_components` components to `values` by EM (quantile-based
  /// initialization). Fails when values.size() < num_components or
  /// num_components <= 0.
  Status Fit(const std::vector<double>& values, int64_t num_components,
             Rng* rng, int64_t max_iterations = 100);

  int64_t num_components() const {
    return static_cast<int64_t>(components_.size());
  }
  const std::vector<GaussianComponent>& components() const {
    return components_;
  }

  /// Index of the component maximizing the posterior responsibility of x.
  /// Reads per-component constants cached by Fit and Load, so it makes no
  /// `log` call; each is the expression `LogGaussianPdf` evaluates, so the
  /// log-densities compared are the same bits.
  int64_t MostLikelyComponent(double x) const;

  /// x normalized to [0, 1] within component `c`'s effective range
  /// [mean - 3σ, mean + 3σ] (clamped; the range is cached by Fit and Load).
  double NormalizeWithin(int64_t c, double x) const;

  /// Mean per-point log-likelihood of `values` under the fitted mixture.
  double MeanLogLikelihood(const std::vector<double>& values) const;

  /// Serialization (model persistence).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  /// What MostLikelyComponent and NormalizeWithin read per component.
  struct Cached {
    double mean = 0.0;
    double log_weight = 0.0;  // log(max(weight, 1e-12)).
    double log_norm = 0.0;    // log(2π · var), var as below.
    double variance = 1.0;    // max(variance, 1e-12).
    double lo = 0.0;          // mean - 3σ.
    double hi = 0.0;          // mean + 3σ.
  };

  /// Rebuilds `cached_` from `components_`.
  void CacheConstants();

  /// log(weight_c · N(x; mean_c, var_c)), from the cached constants.
  static double LogJoint(const Cached& k, double x) {
    const double d = x - k.mean;
    return k.log_weight + -0.5 * (k.log_norm + d * d / k.variance);
  }

  std::vector<GaussianComponent> components_;
  std::vector<Cached> cached_;  // One per component.
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_GMM_H_
