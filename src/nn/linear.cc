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

// dW += g_n x_n^T and db += g_n for each row n of `g`. dW's output row o is
// outer and the batch rows inner, so each dW[o][c] still sums its per-row
// terms in batch order while dW's row o stays in L1 across the batch. A zero
// g_n[o] adds nothing, as Matrix::AddOuter skips it. `add_row(n, go, dst)`
// adds go times row n's inputs into dW's row `dst`.
template <typename AddRow>
void Accumulate(std::span<const double> g, Matrix* gw, std::vector<double>* gb,
                AddRow add_row) {
  const auto out_w = static_cast<int64_t>(gb->size());
  const int64_t count = static_cast<int64_t>(g.size()) / out_w;
  for (int64_t o = 0; o < out_w; ++o) {
    double* dst = gw->mutable_data()->data() + o * gw->cols();
    for (int64_t n = 0; n < count; ++n) {
      const double go = g[static_cast<size_t>(n * out_w + o)];
      if (go != 0.0) add_row(n, go, dst);
    }
  }
  for (int64_t n = 0; n < count; ++n) {
    for (int64_t o = 0; o < out_w; ++o) {
      (*gb)[static_cast<size_t>(o)] += g[static_cast<size_t>(n * out_w + o)];
    }
  }
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
                           std::span<double> grad_in) {
  const int64_t in_w = in_features();
  const int64_t out_w = out_features();
  const int64_t count = BatchCount(grad_out, out_w);
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()), count * in_w);
  Accumulate(grad_out, &grad_weights_, &grad_bias_,
             [&](int64_t n, double go, double* dst) {
               const double* xn = x.data() + n * in_w;
               for (int64_t c = 0; c < in_w; ++c) dst[c] += go * xn[c];
             });
  if (grad_in.empty()) return;
  LTE_CHECK_EQ(static_cast<int64_t>(grad_in.size()), count * in_w);
  const double* g = grad_out.data();
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

void Linear::BackwardCodes(CodeRows x, std::span<const int64_t> rows,
                           std::span<const double> grad_out) {
  CheckCodeRows(x, rows, BatchCount(grad_out, out_features()), in_features());
  Accumulate(grad_out, &grad_weights_, &grad_bias_,
             [&](int64_t n, double go, double* dst) {
               for (const Code& c :
                    x.row(rows.empty() ? n : rows[static_cast<size_t>(n)])) {
                 dst[c.index] += go * c.value;
               }
             });
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
