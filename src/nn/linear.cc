#include "nn/linear.h"

#include <algorithm>

#include "common/check.h"

namespace lte::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng)
    : weights_(out_features, in_features),
      bias_(static_cast<size_t>(out_features), 0.0),
      grad_weights_(out_features, in_features),
      grad_bias_(static_cast<size_t>(out_features), 0.0) {
  weights_.InitKaiming(rng, in_features);
}

std::vector<double> Linear::Forward(const std::vector<double>& x) const {
  std::vector<double> y = weights_.MatVec(x);
  for (size_t i = 0; i < y.size(); ++i) y[i] += bias_[i];
  return y;
}

void Linear::BackwardBatch(std::span<const double> x,
                           std::span<const int64_t> rows,
                           std::span<const double> grad_out,
                           std::span<double> grad_in) {
  const int64_t in_w = in_features();
  const int64_t out_w = out_features();
  LTE_CHECK_EQ(static_cast<int64_t>(grad_out.size()) % out_w, 0);
  const int64_t count = static_cast<int64_t>(grad_out.size()) / out_w;
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()) % in_w, 0);
  const int64_t x_rows = static_cast<int64_t>(x.size()) / in_w;
  if (rows.empty()) {
    LTE_CHECK_EQ(x_rows, count);
  } else {
    LTE_CHECK_EQ(static_cast<int64_t>(rows.size()), count);
    for (const int64_t r : rows) LTE_CHECK(r >= 0 && r < x_rows);
  }
  const auto row = [&](int64_t n) {
    return x.data() + (rows.empty() ? n : rows[static_cast<size_t>(n)]) * in_w;
  };
  const double* g = grad_out.data();
  // dW: output row o outer, batch rows inner. Each dW[o][c] still sums its
  // per-row terms in batch order, while dW's row o stays in L1 across the
  // batch.
  double* gw = grad_weights_.mutable_data()->data();
  for (int64_t o = 0; o < out_w; ++o) {
    double* dst = gw + o * in_w;
    for (int64_t n = 0; n < count; ++n) {
      const double go = g[n * out_w + o];
      if (go == 0.0) continue;
      const double* xn = row(n);
      for (int64_t c = 0; c < in_w; ++c) dst[c] += go * xn[c];
    }
  }
  for (int64_t n = 0; n < count; ++n) {
    for (int64_t o = 0; o < out_w; ++o) {
      grad_bias_[static_cast<size_t>(o)] += g[n * out_w + o];
    }
  }
  if (grad_in.empty()) return;
  LTE_CHECK_EQ(static_cast<int64_t>(grad_in.size()), count * in_w);
  const double* w = weights_.data().data();
  for (int64_t n = 0; n < count; ++n) {
    double* gi = grad_in.data() + n * in_w;
    std::fill(gi, gi + in_w, 0.0);
    for (int64_t o = 0; o < out_w; ++o) {
      const double go = g[n * out_w + o];
      if (go == 0.0) continue;
      const double* wo = w + o * in_w;
      for (int64_t c = 0; c < in_w; ++c) gi[c] += wo[c] * go;
    }
  }
}

void Linear::ZeroGrad() {
  grad_weights_.Fill(0.0);
  for (double& g : grad_bias_) g = 0.0;
}

int64_t Linear::ParameterCount() const {
  return weights_.size() + static_cast<int64_t>(bias_.size());
}

void Linear::AppendParameters(std::vector<double>* out) const {
  out->insert(out->end(), weights_.data().begin(), weights_.data().end());
  out->insert(out->end(), bias_.begin(), bias_.end());
}

void Linear::LoadParameters(const std::vector<double>& data, size_t* offset) {
  LTE_CHECK_LE(*offset + static_cast<size_t>(ParameterCount()), data.size());
  std::vector<double>* w = weights_.mutable_data();
  std::copy(data.begin() + static_cast<long>(*offset),
            data.begin() + static_cast<long>(*offset) + weights_.size(),
            w->begin());
  *offset += static_cast<size_t>(weights_.size());
  std::copy(data.begin() + static_cast<long>(*offset),
            data.begin() + static_cast<long>(*offset) +
                static_cast<long>(bias_.size()),
            bias_.begin());
  *offset += bias_.size();
}

void Linear::AppendGradients(std::vector<double>* out) const {
  out->insert(out->end(), grad_weights_.data().begin(),
              grad_weights_.data().end());
  out->insert(out->end(), grad_bias_.begin(), grad_bias_.end());
}

void Linear::ApplyGradients(double lr) {
  weights_.AddScaled(grad_weights_, -lr);
  for (size_t i = 0; i < bias_.size(); ++i) bias_[i] -= lr * grad_bias_[i];
}

}  // namespace lte::nn
