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

  /// Batch inference forward over dense rows (f_clf's, whose inputs are
  /// activations): `x` holds row-major inputs; writes `count` row-major
  /// outputs into `*out` (resized) from the weights PackWeights left in
  /// `*scratch`. Each row's output is bit-identical to Forward on that row
  /// (ForwardBatchLayer). With `first_layer_prefix` (ComputeFirstLayerPrefix
  /// of a head every row shares), rows of `x` carry only the features after
  /// the head, whose width `x.size()` over `count` implies, and the first
  /// layer resumes each sum from the prefix: the running sum Forward
  /// reaches after the head's terms.
  void ForwardBatchInto(std::span<const double> x, int64_t count,
                        BatchScratch* scratch, std::vector<double>* out,
                        std::span<const double> first_layer_prefix = {}) const;

  /// The same over code rows (f_tau's encoded tuples): input n is code row
  /// `rows[n]` of `x`, or row n when `rows` is empty. The first layer is a
  /// gather-add over each row's codes; with finite first-layer weights
  /// (PackWeights returned true), or on full-width code rows, each output
  /// is bit-identical to ForwardBatchInto on the dense row, by the
  /// signed-zero argument of DESIGN.md §2b.
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
    /// The batch input of the last ForwardTrain, dense `x` or `codes` named
    /// by `rows`; BackwardBatch reads it again, so it must outlive the step.
    std::span<const double> x;
    CodeRows codes;
    std::span<const int64_t> rows;
    std::vector<Code> wide;  // `codes` widened (WidenCodeRows), if need be.
    std::vector<double> dense;  // The code rows as dense rows (backward).
  };

  /// Training forward over `count` dense rows (`x` row-major), each output
  /// bit-identical to Forward: every layer runs ForwardBatchLayer on its
  /// current weights, packed as it runs (a single row runs Forward's own
  /// product). Keeps each layer's output in `*scratch` for BackwardBatch and
  /// returns the final one (count x out_features()).
  std::span<const double> ForwardTrain(std::span<const double> x,
                                       int64_t count,
                                       TrainScratch* scratch) const;

  /// The same over code rows (f_tau's encoded tuples): output n is the
  /// forward of code row `rows[n]` of `x`, or of row n when `rows` is empty.
  /// The first layer is ForwardCodesInto's gather-add, on rows widened
  /// first (WidenCodeRows) when a first-layer weight is not finite, so each
  /// output is bit-identical to Forward on the dense row.
  std::span<const double> ForwardTrain(
      CodeRows x, int64_t count, TrainScratch* scratch,
      std::span<const int64_t> rows = {}) const;

  /// Backpropagates the batch of the last ForwardTrain on `*scratch`.
  /// `grad_out` holds count x out_features() gradients w.r.t. the final
  /// linear output. Accumulates every layer's gradients row by row in batch
  /// order (Linear::BackwardBatch, or BackwardCodes on the dense rows after
  /// a code-row forward), so each accumulator receives exactly the addition
  /// sequence of backpropagating the rows one at a time. A non-null
  /// `grad_in` (dense rows only) receives count x in_features() input
  /// gradients.
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
