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

  /// Buffers of the batch forwards and of BackwardBatch. Pack fills
  /// `packed`; each forward records its input and keeps every layer's
  /// output here, and BackwardBatch passes its gradients between layers
  /// through `grad` and `grad_next`. Capacities reach a steady state after
  /// the first batch, so a loop that reuses one scratch allocates nothing
  /// per call.
  struct Scratch {
    /// Every layer's weights by input, as Pack left them.
    std::vector<PackedLayer> packed;
    /// Pack's verdict: every first-layer weight is finite.
    bool first_finite = false;
    /// Pack's shared head of every dense row, and the first layer's
    /// running sums over it.
    std::span<const double> head;
    std::vector<double> prefix;
    /// outputs[i]: count x out width of layer i, ReLU applied on every
    /// layer but the last.
    std::vector<std::vector<double>> outputs;
    std::vector<double> grad;
    std::vector<double> grad_next;
    /// The batch input of the last forward, dense `x` or `codes` named by
    /// `rows`; BackwardBatch reads it again, so it must outlive the step.
    std::span<const double> x;
    CodeRows codes;
    std::span<const int64_t> rows;
    std::vector<Code> wide;  // `codes` widened (WidenCodeRows), if need be.
    std::vector<double> dense;  // The code rows as dense rows (backward).
  };

  /// Packs every layer's weights by input into `*scratch`, for the batch
  /// forwards to read. Call it before a run of forwards, and again after
  /// the weights change. With a `head`, every dense row of those forwards
  /// starts with these shared inputs and carries only the ones after
  /// them: the first layer's sums over the head are taken once here, in
  /// ascending input order, and each row resumes from them. `head` must
  /// outlive the forwards and their BackwardBatch. Returns whether every
  /// first-layer weight is finite; the code-row forward widens its rows
  /// when one is not.
  bool Pack(Scratch* scratch, std::span<const double> head = {}) const;

  /// Reserves `*scratch`'s layer outputs for forwards of up to `rows`
  /// rows, so that none of them allocates.
  void ReserveOutputs(Scratch* scratch, int64_t rows) const;

  /// Batch forward over `count` dense rows (`x` row-major, each row the
  /// inputs after Pack's head), each output bit-identical to Forward on
  /// [head; row]: a layer runs ForwardBatchLayer on the packed weights, or
  /// Forward's own row-major product on a single row, which needs no pack
  /// (DESIGN.md §2g). Keeps each layer's output in `*scratch` for
  /// BackwardBatch and returns the last (count x out_features()).
  std::span<const double> ForwardBatch(std::span<const double> x,
                                       int64_t count, Scratch* scratch) const;

  /// The same over code rows (f_tau's encoded tuples): output n is the
  /// forward of code row `rows[n]` of `x`, or of row n when `rows` is
  /// empty. The first layer is a gather-add over each row's codes, on rows
  /// widened first (WidenCodeRows) when Pack found a non-finite first-layer
  /// weight, so each output is bit-identical to Forward on the dense row
  /// (the signed-zero argument of DESIGN.md §2b). Needs a Pack without a
  /// head.
  std::span<const double> ForwardBatch(
      CodeRows x, int64_t count, Scratch* scratch,
      std::span<const int64_t> rows = {}) const;

  /// Backpropagates the batch of the last forward on `*scratch`.
  /// `grad_out` holds count x out_features() gradients w.r.t. the final
  /// linear output. Accumulates every layer's gradients row by row in batch
  /// order (Linear::BackwardBatch, or BackwardCodes on the dense rows after
  /// a code-row forward), so each accumulator receives exactly the addition
  /// sequence of backpropagating the rows one at a time. A non-null
  /// `grad_in` (dense rows only) receives the rows' count x (in_features()
  /// - head width) input gradients, and a non-empty `grad_head` (head
  /// width) has each row's head gradient added to it in row order.
  void BackwardBatch(std::span<const double> grad_out, Scratch* scratch,
                     std::vector<double>* grad_in = nullptr,
                     std::span<double> grad_head = {});

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
