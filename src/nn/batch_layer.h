#ifndef LTE_NN_BATCH_LAYER_H_
#define LTE_NN_BATCH_LAYER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/codes.h"

namespace lte::nn {

/// One dense layer's weights laid out by input for ForwardBatchLayer: row c
/// holds input c's weight to every output, stride() doubles apart (the out
/// width rounded up to a multiple of 4, zero padded), so the kernel reads
/// two or four adjacent outputs' weights with one 16- or 32-byte load. The
/// bias, if any, is padded the same way.
class PackedLayer {
 public:
  /// Packs the `out` x `in` weights W[o][c] = w[o * w_stride + c] and, when
  /// `bias` is non-null, `out` biases. Returns whether every weight is
  /// finite (the bias is not checked), read in the same pass.
  bool Pack(const double* w, int64_t w_stride, int64_t in, int64_t out,
            const double* bias);

  int64_t in() const { return in_; }
  int64_t out() const { return out_; }
  int64_t stride() const { return stride_; }
  /// in() rows of stride() weights: wt()[c * stride() + o] = W[o][c].
  const std::vector<double>& wt() const { return wt_; }
  /// stride() biases, or empty for a layer without one.
  const std::vector<double>& bias() const { return bias_; }

 private:
  int64_t in_ = 0;
  int64_t out_ = 0;
  int64_t stride_ = 0;
  std::vector<double> wt_;
  std::vector<double> bias_;
};

/// Dense batch input of ForwardBatchLayer: input row r is the `width`
/// doubles at x + r * width, and its value c feeds layer input `skip` + c
/// (rows that lack a shared head of `skip` inputs).
struct DenseRows {
  const double* x = nullptr;
  int64_t width = 0;
  int64_t skip = 0;
};

/// The batch layer kernel: forwards `count` rows of `x` through `layer` into
/// `dst` (count x layer.out(), row-major). Output o of a row starts at +0.0,
/// or at init[o] when `init` is non-null (the running sum over inputs every
/// row shares, e.g. the skipped head), adds W[o][c] * x[c] in ascending
/// input order, then the bias (if the layer has one), then the ReLU
/// s > 0 ? s : 0 when `relu` is set: the operation sequence of
/// Linear::Forward on that row, so each output is bit-identical to it. `x`
/// must hold `count` rows (callers check; the kernel sees only the pointer).
///
/// The kernel is output-major: a row keeps a chunk of outputs in six vector
/// accumulators and, per input, adds that input's packed weights for the
/// chunk times its value. The vector width is KernelWidth() (nn/dispatch.h),
/// picked once per call: 4 doubles with AVX2 (24 outputs per chunk), else 2
/// (SSE2, the x86-64 baseline, or generic vectors elsewhere; 12 outputs).
/// Both widths give the same bits. A layer narrower than a chunk keeps
/// several rows in flight, so a 24 -> 1 logit layer still runs six
/// independent chains.
void ForwardBatchLayer(const PackedLayer& layer, DenseRows x, int64_t count,
                       const double* init, bool relu, double* dst);

/// The same kernel over code-form rows: row n is code row `rows[n]` of `x`
/// (row n when `rows` is empty), the dense row that is zero except at its
/// codes, whose terms are W[o][index] * value over the codes in stored
/// (ascending index) order, starting at +0.0. With finite weights this is
/// bit-identical to the dense row's chain; Mlp::ForwardBatch widens its
/// code rows first (WidenCodeRows) when a weight is not.
void ForwardBatchLayer(const PackedLayer& layer, CodeRows x,
                       std::span<const int64_t> rows, int64_t count, bool relu,
                       double* dst);

/// Dense batch input of BackwardBatchLayer: input row n is the `head_width`
/// values at `head`, which every row shares (none when head_width is 0),
/// then the `width` values at x + n * width.
struct PrefixedRows {
  const double* head = nullptr;
  int64_t head_width = 0;
  const double* x = nullptr;
  int64_t width = 0;
};

/// What BackwardBatchLayer accumulates into or writes.
struct LayerGradients {
  /// out x in, row-major: dW, added to.
  double* weights = nullptr;
  /// out: db, added to; null for a layer without a bias.
  double* bias = nullptr;
  /// count x width: the input gradients of the rows' own inputs, written;
  /// or null.
  double* rows = nullptr;
  /// head_width: the head's input gradient, to which each row's is added
  /// in row order; or null.
  double* head = nullptr;
};

/// The batch backward kernel of one dense layer y = W x (+ b): the `out` x
/// in weights `w` (row-major, in = x.head_width + x.width), `count` rows of
/// output gradients `g` (count x out, row-major) and the rows' inputs `x`.
/// For each row n in order, dW[o][c] += g_n[o] * x_n[c] for every o with
/// g_n[o] != 0 (Matrix::AddOuter's order and zero skip) and db[o] +=
/// g_n[o]; each input gradient c of row n starts at +0.0 and adds
/// W[o][c] * g_n[o] in ascending o over the nonzero g_n[o]
/// (TransposeMatVec's order and zero skip). Every accumulator thus
/// receives the addition sequence of backpropagating the rows one at a
/// time.
///
/// Register-blocked like ForwardBatchLayer, with the same chunks and
/// widths: a chunk of a dW row stays in six vector accumulators across
/// the whole batch, and a chunk of an input-gradient row across all
/// outputs; a narrower last chunk keeps several rows in flight. The zero
/// skip stays a scalar branch per (o, n), so a skipped term never enters a
/// sum (inf * 0 would be NaN). Both widths give the same bits.
void BackwardBatchLayer(const double* w, int64_t out, PrefixedRows x,
                        const double* g, int64_t count,
                        const LayerGradients& grads);

/// LTE_CHECKs a code-form batch of `count` rows, all of `x` or the rows
/// `rows` names: each row in range, each code index in [0, width).
void CheckCodeRows(CodeRows x, std::span<const int64_t> rows, int64_t count,
                   int64_t width);

/// The exact fallback of the code-form forward for non-finite weights:
/// writes the batch's rows to `*wide` as full-width code rows
/// (input c of `width` holds the row's value or +0.0) and returns them.
/// Their terms are exactly the dense rows', 0 * inf = NaN included.
CodeRows WidenCodeRows(CodeRows x, std::span<const int64_t> rows,
                       int64_t count, int64_t width, std::vector<Code>* wide);

}  // namespace lte::nn

#endif  // LTE_NN_BATCH_LAYER_H_
