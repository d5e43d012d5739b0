#include "nn/linear.h"

#include <algorithm>

#include "common/check.h"
#include "nn/batch_layer.h"

namespace lte::nn {
namespace {

int64_t BatchCount(std::span<const double> grad_out, int64_t out_w) {
  LTE_CHECK_EQ(static_cast<int64_t>(grad_out.size()) % out_w, 0);
  return static_cast<int64_t>(grad_out.size()) / out_w;
}

}  // namespace

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
                           std::span<const double> grad_out,
                           std::span<double> grad_in,
                           std::span<const double> head,
                           std::span<double> grad_head) {
  const auto head_w = static_cast<int64_t>(head.size());
  const int64_t in_w = in_features() - head_w;
  const int64_t out_w = out_features();
  const int64_t count = BatchCount(grad_out, out_w);
  LTE_CHECK_GE(in_w, 0);
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()), count * in_w);
  if (!grad_in.empty()) {
    LTE_CHECK_EQ(static_cast<int64_t>(grad_in.size()), count * in_w);
  }
  if (!grad_head.empty()) {
    LTE_CHECK_EQ(static_cast<int64_t>(grad_head.size()), head_w);
  }
  BackwardBatchLayer(weights_.data().data(), out_w,
                     PrefixedRows{head.data(), head_w, x.data(), in_w},
                     grad_out.data(), count,
                     LayerGradients{grad_weights_.mutable_data()->data(),
                                    grad_bias_.data(),
                                    grad_in.empty() ? nullptr : grad_in.data(),
                                    grad_head.empty() ? nullptr
                                                      : grad_head.data()});
}

void Linear::BackwardCodes(CodeRows x, std::span<const int64_t> rows,
                           std::span<const double> grad_out,
                           std::vector<double>* dense) {
  const int64_t in_w = in_features();
  const int64_t count = BatchCount(grad_out, out_features());
  CheckCodeRows(x, rows, count, in_w);
  dense->assign(static_cast<size_t>(count * in_w), 0.0);
  for (int64_t n = 0; n < count; ++n) {
    double* row = dense->data() + n * in_w;
    for (const Code& c :
         x.row(rows.empty() ? n : rows[static_cast<size_t>(n)])) {
      row[c.index] = c.value;
    }
  }
  BackwardBatch(*dense, grad_out, {});
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
