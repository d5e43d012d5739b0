#ifndef LTE_NN_MLP_H_
#define LTE_NN_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/codes.h"
#include "common/rng.h"
#include "nn/batch_layer.h"
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

  /// Forward pass for one input.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// Buffers of the batch forwards: every layer's weights packed by input
  /// (PackWeights), which is what ForwardBatchInto and ForwardCodesInto read,
  /// and ping-pong activations. Capacities reach a steady state after the
  /// first block, so batched inference allocates nothing per call.
  struct BatchScratch {
    std::vector<PackedLayer> packed;
    std::vector<double> a;
    std::vector<double> b;
  };

  /// Packs every layer's weights by input into `scratch->packed`. Call it
  /// once before a run of batch forwards, and again after the weights
  /// change: the forwards read the packed copy. Returns false when some
  /// first-layer weight is not finite; ForwardCodesInto is then exact only
  /// on full-width code rows, which callers widen their rows to.
  bool PackWeights(BatchScratch* scratch) const;

  /// Batch inference forward for the columnar serving path: `x` holds
  /// row-major inputs of in_features() doubles each; writes `count`
  /// row-major outputs of out_features() doubles into `*out` (resized).
  /// Reads the weights PackWeights left in `*scratch`. Keeps no activations
  /// (inference only; see ForwardTrain). Each row's output is bit-identical
  /// to Forward on that row — every output element accumulates its dot
  /// product in the same order, adds the bias last, and applies the same
  /// ReLU (ForwardBatchLayer) — so batching rows never changes results.
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
  /// The head width is implied by `x.size()` over `count`.
  void ForwardBatchInto(std::span<const double> x, int64_t count,
                        BatchScratch* scratch, std::vector<double>* out,
                        std::span<const double> first_layer_prefix = {}) const;

  /// Code-form counterpart of ForwardBatchInto for inputs that are mostly
  /// zeros: input n is code row `rows[n]` of `x` (empty `rows` = row n, and
  /// `x` then holds exactly `count` rows), i.e. the dense row that is zero
  /// except at its codes. The first layer is a gather-add over the packed
  /// weights: output o starts at +0.0 and adds W[o][index] · value over the
  /// row's codes in ascending index, then adds the bias and applies the ReLU
  /// as ForwardBatchInto does; every later layer is ForwardBatchInto's. When
  /// the first layer's weights are finite (PackWeights returned true) each
  /// output is bit-identical to ForwardBatchInto on the dense row: the dense
  /// chain also starts at +0.0 and only adds w · (+0.0) = ±0 for the inputs
  /// that have no code, and a sum that starts at +0.0 never becomes −0.0
  /// (x + (−x) is +0.0 under round-to-nearest), so adding ±0 to it changes
  /// no bit. A full-width code row (every input, ascending) runs exactly the
  /// dense chain's terms, so it is bit-identical for any weights. Code
  /// indices and `rows` are LTE_CHECKed.
  void ForwardCodesInto(CodeRows x, int64_t count, BatchScratch* scratch,
                        std::vector<double>* out,
                        std::span<const int64_t> rows = {}) const;

  /// Partial first-layer dot products of a shared input head:
  /// (*prefix)[o] = sum_{c < head.size()} weights0[o][c] * head[c],
  /// accumulated in ascending c — the running-sum prefix Forward's first
  /// layer reaches after `head.size()` terms. Feed to ForwardBatchInto.
  void ComputeFirstLayerPrefix(std::span<const double> head,
                               std::vector<double>* prefix) const;

  /// Buffers of one batch training step: ForwardTrain keeps every layer's
  /// output here for BackwardBatch, which passes its gradients between
  /// layers through `grad` and `grad_next`. Capacities reach a steady state
  /// after the first step, so a training loop that reuses one scratch
  /// allocates nothing per step.
  struct TrainScratch {
    /// The layer ForwardTrain is running, its weights packed by input.
    PackedLayer packed;
    /// outputs[i]: count x out width of layer i, ReLU applied on every
    /// layer but the last.
    std::vector<std::vector<double>> outputs;
    std::vector<double> grad;
    std::vector<double> grad_next;
    /// The batch input of the last ForwardTrain; BackwardBatch reads it
    /// again, so it must outlive the step.
    std::span<const double> x;
    std::span<const int64_t> rows;
  };

  /// Training forward over a batch, with every row bit-identical to
  /// Forward: output n is the forward of row `rows[n]` of `x` (row-major,
  /// in_features() doubles per row), read in place by the first layer;
  /// empty `rows` = the first `count` rows, and `x` then holds exactly
  /// `count` rows. Runs each layer through ForwardBatchLayer on its current
  /// weights, packed into `*scratch` as the layer runs; a single row runs
  /// Forward's own row-major product instead, as packing would cost as much
  /// as the row. Keeps each layer's output in `*scratch` for BackwardBatch
  /// and returns the final one (count x out_features()).
  std::span<const double> ForwardTrain(
      std::span<const double> x, int64_t count, TrainScratch* scratch,
      std::span<const int64_t> rows = {}) const;

  /// Backpropagates the batch of the last ForwardTrain on `*scratch`.
  /// `grad_out` holds count x out_features() gradients w.r.t. the final
  /// linear output. Accumulates every layer's gradients row by row in batch
  /// order (Linear::BackwardBatch), so each accumulator receives exactly the
  /// addition sequence of backpropagating the rows one at a time. When
  /// `grad_in` is non-null it receives count x in_features() input
  /// gradients; null skips the first layer's input gradient altogether.
  void BackwardBatch(std::span<const double> grad_out, TrainScratch* scratch,
                     std::vector<double>* grad_in = nullptr);

  void ZeroGrad();

  /// SGD step on the accumulated gradients.
  void ApplyGradients(double lr);

  int64_t ParameterCount() const;
  std::vector<double> GetParameters() const;
  void SetParameters(const std::vector<double>& params);
  std::vector<double> GetGradients() const;

  /// dst[i] += GetGradients()[i], without the copy.
  void AddGradientsTo(std::span<double> dst) const;

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
