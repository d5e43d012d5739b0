#ifndef LTE_NN_MLP_H_
#define LTE_NN_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "nn/linear.h"

namespace lte::nn {

/// A multi-layer perceptron: Linear -> ReLU -> ... -> Linear (no activation
/// on the final layer; callers apply sigmoid / BCE-with-logits as needed).
///
/// Serves as each of the three building blocks of the UIS classifier (paper
/// Section VI-A): the UIS feature embedding block f_R, the data tuple
/// embedding block f_tau, and the classification block f_clf. The flattened
/// parameter interface (GetParameters / SetParameters) is what lets the
/// meta-trainer copy φ -> θ per task and lets the UIS-feature memory store
/// parameter-shaped rows (|θ_R| columns).
class Mlp {
 public:
  Mlp() = default;

  /// `layer_sizes` = {in, hidden..., out}; must have >= 2 entries.
  Mlp(const std::vector<int64_t>& layer_sizes, Rng* rng);

  int64_t in_features() const;
  int64_t out_features() const;
  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }

  /// Intermediate state captured by Forward for use by Backward.
  struct Cache {
    /// inputs[i] is the input to layer i (post-activation of layer i-1).
    std::vector<std::vector<double>> inputs;
    /// pre_activations[i] is layer i's linear output (pre-ReLU).
    std::vector<std::vector<double>> pre_activations;
  };

  /// Forward pass; fills *cache when non-null.
  std::vector<double> Forward(const std::vector<double>& x,
                              Cache* cache = nullptr) const;

  /// Reusable ping-pong activation buffers for ForwardBatchInto. Capacities
  /// reach a steady state after the first block, so batched inference
  /// allocates nothing per call.
  struct BatchScratch {
    std::vector<double> a;
    std::vector<double> b;
  };

  /// Batch inference forward for the columnar serving path: `x` holds
  /// row-major inputs of in_features() doubles each; writes `count`
  /// row-major outputs of out_features() doubles into `*out` (resized).
  /// Captures no cache (inference only, no Backward). Each row's output is
  /// bit-identical to Forward on that row — every output element accumulates
  /// its dot product in the same order, adds the bias last, and applies the
  /// same ReLU — so batching rows never changes results.
  ///
  /// `rows` selects the inputs by index: output n is the forward of row
  /// `rows[n]` of `x`, read in place by the first layer, so a caller can
  /// forward any subset of a shared encoded block without copying it out.
  /// Empty (default) = the first `count` rows of `x`, which then holds
  /// exactly `count` rows.
  ///
  /// `first_layer_prefix` supports inputs whose leading features are the
  /// same for every row in the batch (e.g. a per-user embedding
  /// concatenated before per-tuple features): pass the shared head's
  /// partial dot products from ComputeFirstLayerPrefix and rows of `x` that
  /// carry only the remaining in_features() - head_width per-row features.
  /// The first layer then resumes each accumulation from the shared prefix
  /// — the exact running sum Forward reaches after the head's terms — so
  /// outputs stay bit-identical while the head is neither copied per row
  /// nor re-multiplied per row. Empty (default) = rows carry all features.
  /// Not combinable with `rows` (the head width is implied by `x.size()`
  /// over `count`).
  void ForwardBatchInto(std::span<const double> x, int64_t count,
                        BatchScratch* scratch, std::vector<double>* out,
                        std::span<const double> first_layer_prefix = {},
                        std::span<const int64_t> rows = {}) const;

  /// Partial first-layer dot products of a shared input head:
  /// (*prefix)[o] = sum_{c < head.size()} weights0[o][c] * head[c],
  /// accumulated in ascending c — the running-sum prefix Forward's first
  /// layer reaches after `head.size()` terms. Feed to ForwardBatchInto.
  void ComputeFirstLayerPrefix(std::span<const double> head,
                               std::vector<double>* prefix) const;

  /// Backpropagates grad_out (gradient w.r.t. the final linear output),
  /// accumulating layer gradients; returns the gradient w.r.t. the input.
  std::vector<double> Backward(const Cache& cache,
                               const std::vector<double>& grad_out);

  void ZeroGrad();

  /// SGD step on the accumulated gradients.
  void ApplyGradients(double lr);

  int64_t ParameterCount() const;
  std::vector<double> GetParameters() const;
  void SetParameters(const std::vector<double>& params);
  std::vector<double> GetGradients() const;

  /// Layer widths {in, hidden..., out} (the constructor argument).
  std::vector<int64_t> LayerSizes() const;

  /// Serialization: layer sizes + flattened parameters.
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace lte::nn

#endif  // LTE_NN_MLP_H_
