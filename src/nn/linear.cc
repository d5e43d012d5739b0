#include "nn/linear.h"

#include <algorithm>

#include "common/check.h"
#include "nn/batch_layer.h"
#include "nn/dispatch.h"

namespace lte::nn {
namespace {

int64_t BatchCount(std::span<const double> grad_out, int64_t out_w) {
  LTE_CHECK_EQ(static_cast<int64_t>(grad_out.size()) % out_w, 0);
  return static_cast<int64_t>(grad_out.size()) / out_w;
}

// Adds go times dense row n into dW's row `dst`.
struct DenseInputs {
  const double* x;
  int64_t in_w;

  LTE_ALWAYS_INLINE void AddRow(int64_t n, double go, double* dst) const {
    const double* xn = x + n * in_w;
    for (int64_t c = 0; c < in_w; ++c) dst[c] += go * xn[c];
  }
};

// Adds go times code row n (row rows[n] when `rows` is not empty) into dW's
// row `dst`, at its codes only.
struct CodeInputs {
  CodeRows x;
  std::span<const int64_t> rows;

  LTE_ALWAYS_INLINE void AddRow(int64_t n, double go, double* dst) const {
    const Code* row =
        x.codes.data() +
        (rows.empty() ? n : rows[static_cast<size_t>(n)]) * x.per_row;
    for (int64_t k = 0; k < x.per_row; ++k) {
      dst[row[k].index] += go * row[k].value;
    }
  }
};

// One batch backward: `count` rows of output gradients `g`, the layer's
// out_w x in_w weights `w` and accumulators, and the input gradients `gin`
// (count x in_w), or null.
struct Step {
  const double* g;
  int64_t count;
  int64_t in_w;
  int64_t out_w;
  const double* w;
  double* gw;
  double* gb;
  double* gin;
};

// The backward body (nn/dispatch.h). dW += g_n x_n^T and db += g_n for each
// row n: dW's output row o is outer and the batch rows inner, so each
// dW[o][c] still sums its per-row terms in batch order while dW's row o
// stays in L1 across the batch. A zero g_n[o] adds nothing, as
// Matrix::AddOuter skips it. Then, when `gin` is set, gin_n = W^T g_n in
// TransposeMatVec's order and zero skips.
template <typename Inputs>
LTE_ALWAYS_INLINE void Backward(const Inputs& inputs, const Step& s) {
  for (int64_t o = 0; o < s.out_w; ++o) {
    double* dst = s.gw + o * s.in_w;
    for (int64_t n = 0; n < s.count; ++n) {
      const double go = s.g[n * s.out_w + o];
      if (go != 0.0) inputs.AddRow(n, go, dst);
    }
  }
  for (int64_t n = 0; n < s.count; ++n) {
    for (int64_t o = 0; o < s.out_w; ++o) s.gb[o] += s.g[n * s.out_w + o];
  }
  if (s.gin == nullptr) return;
  for (int64_t n = 0; n < s.count; ++n) {
    double* gi = s.gin + n * s.in_w;
    std::fill(gi, gi + s.in_w, 0.0);
    for (int64_t o = 0; o < s.out_w; ++o) {
      const double go = s.g[n * s.out_w + o];
      if (go == 0.0) continue;
      const double* wo = s.w + o * s.in_w;
      for (int64_t c = 0; c < s.in_w; ++c) gi[c] += wo[c] * go;
    }
  }
}

template <typename Inputs>
LTE_TARGET_AVX2 void BackwardAvx2(const Inputs& inputs, const Step& s) {
  Backward(inputs, s);
}

// One dispatch per layer call.
template <typename Inputs>
void Dispatch(const Inputs& inputs, const Step& s) {
  if (UseAvx2Bodies()) {
    BackwardAvx2(inputs, s);
  } else {
    Backward(inputs, s);
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
  if (!grad_in.empty()) {
    LTE_CHECK_EQ(static_cast<int64_t>(grad_in.size()), count * in_w);
  }
  const Step step{grad_out.data(), count, in_w, out_w, weights_.data().data(),
                  grad_weights_.mutable_data()->data(), grad_bias_.data(),
                  grad_in.empty() ? nullptr : grad_in.data()};
  Dispatch(DenseInputs{x.data(), in_w}, step);
}

void Linear::BackwardCodes(CodeRows x, std::span<const int64_t> rows,
                           std::span<const double> grad_out) {
  const int64_t in_w = in_features();
  const int64_t out_w = out_features();
  const int64_t count = BatchCount(grad_out, out_w);
  CheckCodeRows(x, rows, count, in_w);
  const Step step{grad_out.data(), count, in_w, out_w, weights_.data().data(),
                  grad_weights_.mutable_data()->data(), grad_bias_.data(),
                  /*gin=*/nullptr};
  Dispatch(CodeInputs{x, rows}, step);
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
