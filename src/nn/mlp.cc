#include "nn/mlp.h"

#include <string>

#include "common/check.h"
#include "nn/activations.h"

namespace lte::nn {
namespace {

// Returns whether every weight of `l` is finite.
bool PackLayer(const Linear& l, PackedLayer* packed) {
  return packed->Pack(l.weights().data().data(), l.in_features(),
                      l.in_features(), l.out_features(), l.bias().data());
}

// The packed weights must be these layers' (Pack on this Mlp).
void CheckPacked(std::span<const Linear> layers,
                 std::span<const PackedLayer> packed) {
  LTE_CHECK_MSG(packed.size() == layers.size(),
                "batch forward: weights not packed (call Pack)");
  for (size_t i = 0; i < layers.size(); ++i) {
    LTE_CHECK_EQ(packed[i].in(), layers[i].in_features());
    LTE_CHECK_EQ(packed[i].out(), layers[i].out_features());
  }
}

// The batch forward over the input `*scratch` records (dense `x` after the
// packed head, or `codes` named by `rows`), keeping each layer's output;
// returns the last.
std::span<const double> ForwardLayers(std::span<const Linear> layers,
                                      int64_t count, Mlp::Scratch* scratch) {
  scratch->outputs.resize(layers.size());
  const double* in = scratch->x.data();
  for (size_t i = 0; i < layers.size(); ++i) {
    const Linear& l = layers[i];
    const bool relu = i + 1 < layers.size();
    std::vector<double>& dst = scratch->outputs[i];
    dst.resize(static_cast<size_t>(count * l.out_features()));
    // Dense rows skip the shared head in the first layer, whose sums start
    // from the prefix Pack took over it.
    const auto skip =
        i == 0 ? static_cast<int64_t>(scratch->head.size()) : int64_t{0};
    const double* init = skip > 0 ? scratch->prefix.data() : nullptr;
    if (i == 0 && scratch->codes.per_row > 0) {
      ForwardBatchLayer(scratch->packed.front(), scratch->codes,
                        scratch->rows, count, relu, dst.data());
    } else if (count == 1) {
      // A single row (f_R's, every step) runs Linear::Forward's own
      // row-major product: packing the weights by input would cost as much
      // as the row itself.
      DotRows(l.weights().data().data() + skip, l.in_features(),
              l.out_features(),
              std::span<const double>(
                  in, static_cast<size_t>(l.in_features() - skip)),
              init, dst.data());
      for (int64_t o = 0; o < l.out_features(); ++o) {
        const double v = dst[static_cast<size_t>(o)] +
                         l.bias()[static_cast<size_t>(o)];
        dst[static_cast<size_t>(o)] = relu ? (v > 0.0 ? v : 0.0) : v;
      }
    } else {
      ForwardBatchLayer(scratch->packed[i],
                        DenseRows{in, l.in_features() - skip, skip}, count,
                        init, relu, dst.data());
    }
    in = dst.data();
  }
  return scratch->outputs.back();
}

}  // namespace

Mlp::Mlp(const std::vector<int64_t>& layer_sizes, Rng* rng) {
  LTE_CHECK_GE(layer_sizes.size(), 2u);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1], rng);
  }
}

int64_t Mlp::in_features() const {
  LTE_CHECK(!layers_.empty());
  return layers_.front().in_features();
}

int64_t Mlp::out_features() const {
  LTE_CHECK(!layers_.empty());
  return layers_.back().out_features();
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  LTE_CHECK(!layers_.empty());
  std::vector<double> h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    std::vector<double> z = layers_[i].Forward(h);
    // No activation after the final layer.
    h = (i + 1 < layers_.size()) ? Relu(z) : std::move(z);
  }
  return h;
}

bool Mlp::Pack(Scratch* scratch, std::span<const double> head) const {
  LTE_CHECK(!layers_.empty());
  const Linear& first = layers_.front();
  LTE_CHECK_LT(static_cast<int64_t>(head.size()), first.in_features());
  scratch->packed.resize(layers_.size());
  scratch->first_finite = PackLayer(first, &scratch->packed.front());
  for (size_t i = 1; i < layers_.size(); ++i) {
    PackLayer(layers_[i], &scratch->packed[i]);
  }
  scratch->head = head;
  if (!head.empty()) {
    scratch->prefix.resize(static_cast<size_t>(first.out_features()));
    DotRows(first.weights().data().data(), first.in_features(),
            first.out_features(), head, nullptr, scratch->prefix.data());
  }
  return scratch->first_finite;
}

void Mlp::ReserveOutputs(Scratch* scratch, int64_t rows) const {
  scratch->outputs.resize(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    scratch->outputs[i].reserve(
        static_cast<size_t>(rows * layers_[i].out_features()));
  }
}

std::span<const double> Mlp::ForwardBatch(std::span<const double> x,
                                          int64_t count,
                                          Scratch* scratch) const {
  LTE_CHECK(!layers_.empty());
  LTE_CHECK_GE(count, 0);
  LTE_CHECK_MSG(
      count == 0 || x.size() % static_cast<size_t>(count) == 0,
      ("batch forward: x.size()=" + std::to_string(x.size()) +
       " is not a multiple of count=" + std::to_string(count) +
       " — ragged batch input")
          .c_str());
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()),
               count * (in_features() -
                        static_cast<int64_t>(scratch->head.size())));
  if (count > 1) CheckPacked(layers_, scratch->packed);
  scratch->x = x;
  scratch->codes = {};
  scratch->rows = {};
  return ForwardLayers(layers_, count, scratch);
}

std::span<const double> Mlp::ForwardBatch(CodeRows x, int64_t count,
                                          Scratch* scratch,
                                          std::span<const int64_t> rows) const {
  LTE_CHECK(!layers_.empty());
  LTE_CHECK(count >= 0 && x.per_row > 0);  // The kernel checks the rest.
  LTE_CHECK(scratch->head.empty());
  CheckPacked(layers_, scratch->packed);
  if (!scratch->first_finite) {
    x = WidenCodeRows(x, rows, count, in_features(), &scratch->wide);
    rows = {};
  }
  scratch->x = {};
  scratch->codes = x;
  scratch->rows = rows;
  return ForwardLayers(layers_, count, scratch);
}

void Mlp::BackwardBatch(std::span<const double> grad_out, Scratch* scratch,
                        std::vector<double>* grad_in,
                        std::span<double> grad_head) {
  LTE_CHECK_EQ(scratch->outputs.size(), layers_.size());
  LTE_CHECK_EQ(grad_out.size(), scratch->outputs.back().size());
  const bool codes = scratch->codes.per_row > 0;
  LTE_CHECK_MSG(!codes || grad_in == nullptr,
                "code rows have no input gradient");
  std::span<const double> g = grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    Linear& layer = layers_[i];
    const int64_t count =
        static_cast<int64_t>(g.size()) / layer.out_features();
    if (i == 0 && codes) {
      layer.BackwardCodes(scratch->codes, scratch->rows, g, &scratch->dense);
      break;
    }
    // Layer i's input gradient feeds layer i - 1; the first layer's goes to
    // the caller, or is skipped.
    std::vector<double>* dst =
        i > 0 ? (g.data() == scratch->grad.data() ? &scratch->grad_next
                                                  : &scratch->grad)
              : grad_in;
    const auto skip =
        i == 0 ? static_cast<int64_t>(scratch->head.size()) : int64_t{0};
    std::span<double> gin;
    if (dst != nullptr) {
      dst->resize(static_cast<size_t>(count * (layer.in_features() - skip)));
      gin = *dst;
    }
    if (i == 0) {
      layer.BackwardBatch(scratch->x, g, gin, scratch->head, grad_head);
      break;
    }
    const std::vector<double>& below = scratch->outputs[i - 1];
    layer.BackwardBatch(below, g, gin);
    // ReLU backward through layer i - 1's output: its mask (output > 0) is
    // the mask of the pre-activation (pre-activation > 0).
    for (size_t k = 0; k < gin.size(); ++k) {
      if (!(below[k] > 0.0)) gin[k] = 0.0;
    }
    g = gin;
  }
}

void Mlp::ZeroGrad() {
  for (Linear& l : layers_) l.ZeroGrad();
}

void Mlp::ApplyGradients(double lr) {
  for (Linear& l : layers_) l.ApplyGradients(lr);
}

int64_t Mlp::ParameterCount() const {
  int64_t n = 0;
  for (const Linear& l : layers_) n += l.ParameterCount();
  return n;
}

std::vector<double> Mlp::GetParameters() const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(ParameterCount()));
  for (const Linear& l : layers_) l.AppendParameters(&out);
  return out;
}

void Mlp::SetParameters(const std::vector<double>& params) {
  LTE_CHECK_EQ(static_cast<int64_t>(params.size()), ParameterCount());
  size_t offset = 0;
  for (Linear& l : layers_) l.LoadParameters(params, &offset);
}

std::vector<int64_t> Mlp::LayerSizes() const {
  std::vector<int64_t> sizes;
  if (layers_.empty()) return sizes;
  sizes.push_back(layers_.front().in_features());
  for (const Linear& l : layers_) sizes.push_back(l.out_features());
  return sizes;
}

void Mlp::Save(BinaryWriter* writer) const {
  writer->WriteI64Vector(LayerSizes());
  writer->WriteDoubleVector(GetParameters());
}

Status Mlp::Load(BinaryReader* reader) {
  std::vector<int64_t> sizes;
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&sizes));
  if (sizes.size() < 2) return Status::IoError("mlp load: bad layer sizes");
  for (int64_t s : sizes) {
    if (s <= 0) return Status::IoError("mlp load: non-positive layer size");
  }
  std::vector<double> params;
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&params));
  // The sizes must imply exactly the parameters read (overflow-checked),
  // before any layer is built, so corrupt sizes cannot allocate.
  uint64_t count = 0;
  bool overflow = false;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    uint64_t layer = 0;  // (in + 1) x out: weights plus biases.
    overflow |= __builtin_mul_overflow(static_cast<uint64_t>(sizes[i]) + 1,
                                       sizes[i + 1], &layer) ||
                __builtin_add_overflow(count, layer, &count);
  }
  if (overflow || count != params.size()) {
    return Status::IoError("mlp load: parameter count mismatch");
  }
  Rng scratch(0);  // Parameters are overwritten below.
  Mlp rebuilt(sizes, &scratch);
  rebuilt.SetParameters(params);
  *this = std::move(rebuilt);
  return Status::OK();
}

std::vector<double> Mlp::GetGradients() const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(ParameterCount()));
  for (const Linear& l : layers_) l.AppendGradients(&out);
  return out;
}

void Mlp::AddGradientsTo(std::span<double> dst) const {
  LTE_CHECK_EQ(static_cast<int64_t>(dst.size()), ParameterCount());
  size_t offset = 0;
  for (const Linear& l : layers_) {
    for (const double g : l.grad_weights().data()) dst[offset++] += g;
    for (const double g : l.grad_bias()) dst[offset++] += g;
  }
}

}  // namespace lte::nn
