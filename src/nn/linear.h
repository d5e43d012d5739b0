#ifndef LTE_NN_LINEAR_H_
#define LTE_NN_LINEAR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/codes.h"
#include "common/rng.h"
#include "nn/matrix.h"

namespace lte::nn {

/// A fully connected layer y = W x + b with manual gradients.
///
/// Gradients accumulate into `grad_weights`/`grad_bias` until ZeroGrad();
/// callers decide when to step (the meta-trainer performs both local (θ) and
/// global (φ) updates from these accumulators).
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_features, int64_t out_features, Rng* rng);

  int64_t in_features() const { return weights_.cols(); }
  int64_t out_features() const { return weights_.rows(); }

  /// y = W x + b.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// Batch backward over the rows of `grad_out` (gradients w.r.t. the layer
  /// output) and of `x` (the inputs, row-major), on the batch backward
  /// kernel (BackwardBatchLayer): for each row in order, dW += g_n x_n^T,
  /// skipping the zero entries of g_n as Matrix::AddOuter does, and db +=
  /// g_n, the addition sequence of backpropagating the rows one at a time.
  /// A non-empty `grad_in` receives the input gradients W^T g_n, in
  /// Matrix::TransposeMatVec's order and zero skips. With a `head`, row n's
  /// input is [head; x_n]: `x` holds only the inputs after the shared head,
  /// `grad_in` only their gradients, and a non-empty `grad_head` has each
  /// row's head gradient added to it in row order.
  void BackwardBatch(std::span<const double> x,
                     std::span<const double> grad_out,
                     std::span<double> grad_in,
                     std::span<const double> head = {},
                     std::span<double> grad_head = {});

  /// BackwardBatch over code rows (row n is code row `rows[n]` of `x`, or
  /// row n) without the input gradient: the rows are expanded into
  /// `*dense` (a scratch, count x in_features()) as the dense rows they
  /// encode, +0.0 at every input without a code, and backpropagated as
  /// those, so the result is the dense rows' for any gradient.
  void BackwardCodes(CodeRows x, std::span<const int64_t> rows,
                     std::span<const double> grad_out,
                     std::vector<double>* dense);

  void ZeroGrad();

  /// Number of scalar parameters (weights + bias).
  int64_t ParameterCount() const;

  /// Appends parameters (row-major weights, then bias) to *out.
  void AppendParameters(std::vector<double>* out) const;

  /// Reads ParameterCount() values from data[*offset], advancing *offset.
  void LoadParameters(const std::vector<double>& data, size_t* offset);

  /// Appends accumulated gradients in the same layout as AppendParameters.
  void AppendGradients(std::vector<double>* out) const;

  /// In-place SGD step: params -= lr * grads (accumulators unchanged).
  void ApplyGradients(double lr);

  const Matrix& weights() const { return weights_; }
  const std::vector<double>& bias() const { return bias_; }
  const Matrix& grad_weights() const { return grad_weights_; }
  const std::vector<double>& grad_bias() const { return grad_bias_; }

 private:
  Matrix weights_;                 // out x in.
  std::vector<double> bias_;       // out.
  Matrix grad_weights_;            // Same shape as weights_.
  std::vector<double> grad_bias_;  // Same shape as bias_.
};

}  // namespace lte::nn

#endif  // LTE_NN_LINEAR_H_
