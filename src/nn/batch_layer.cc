#include "nn/batch_layer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "nn/dispatch.h"

namespace lte::nn {
namespace {

// Two doubles: one SSE2 register on x86-64. PackedLayer::Pack moves pairs.
typedef double V2 __attribute__((vector_size(16)));
typedef int64_t I2 __attribute__((vector_size(16)));

V2 Load(const double* p) {
  V2 v = {0.0, 0.0};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

// The kernel's vector of W doubles: one SSE2 register at W = 2, one AVX2
// register at W = 4 (generic vectors elsewhere). Each lane is one output's
// accumulator, and lane-wise +, * and > are the scalar IEEE operations, so
// a lane runs exactly the scalar chain at either width.
template <int W>
struct Lanes;
template <>
struct Lanes<2> {
  typedef double V __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  typedef double V __attribute__((vector_size(32)));
};
template <int W>
using Vec = typename Lanes<W>::V;

// Accumulators per output chunk: six vectors, which leaves room for the six
// weight vectors and the broadcast input in the sixteen SSE2 or AVX2
// registers. A chunk is 12 outputs at width 2 and 24 at width 4.
constexpr int kChunkVecs = 6;

// PackedLayer's stride is a multiple of the widest width.
constexpr int64_t kStrideAlign = 4;

// Terms of dense rows: term k of a row is (input skip + k, x[k]).
struct DenseTerms {
  DenseRows x;

  LTE_ALWAYS_INLINE int64_t per_row() const { return x.width; }
  LTE_ALWAYS_INLINE const double* row(int64_t n) const {
    return x.x + n * x.width;
  }
  LTE_ALWAYS_INLINE int64_t index(const double* /*row*/, int64_t k) const {
    return x.skip + k;
  }
  LTE_ALWAYS_INLINE double value(const double* row, int64_t k) const {
    return row[k];
  }
};

// Terms of code rows: term k of a row is its k-th code.
struct CodeTerms {
  CodeRows x;
  std::span<const int64_t> rows;

  LTE_ALWAYS_INLINE int64_t per_row() const { return x.per_row; }
  LTE_ALWAYS_INLINE const Code* row(int64_t n) const {
    return x.codes.data() +
           (rows.empty() ? n : rows[static_cast<size_t>(n)]) * x.per_row;
  }
  LTE_ALWAYS_INLINE int64_t index(const Code* row, int64_t k) const {
    return row[k].index;
  }
  LTE_ALWAYS_INLINE double value(const Code* row, int64_t k) const {
    return row[k].value;
  }
};

// What every row of one output chunk [o0, o0 + W * V) shares.
template <int W, int V>
struct Chunk {
  const double* wt;  // The packed weights of output o0.
  int64_t stride;
  Vec<W> start[V];   // +0.0, or the init values.
  Vec<W> bias[V];
  bool has_bias;
  bool relu;
  int64_t width;     // Outputs to store: min(W * V, out - o0).
  int64_t out;       // Row stride of dst.
  double* dst;       // Output o0 of row 0.
};

template <int W, int V>
LTE_ALWAYS_INLINE void MakeChunk(const PackedLayer& layer, int64_t o0,
                                 const double* init, bool relu, double* dst,
                                 Chunk<W, V>* chunk) {
  const int64_t out = layer.out();
  const double* bias = layer.bias().empty() ? nullptr : layer.bias().data();
  chunk->wt = layer.wt().data() + o0;
  chunk->stride = layer.stride();
  for (int v = 0; v < V; ++v) {
    Vec<W> start = {};
    Vec<W> b = {};
    for (int l = 0; l < W; ++l) {
      const int64_t o = o0 + W * v + l;
      if (init != nullptr && o < out) start[l] = init[o];
      if (bias != nullptr && o < out) b[l] = bias[o];
    }
    chunk->start[v] = start;
    chunk->bias[v] = b;
  }
  chunk->has_bias = bias != nullptr;
  chunk->relu = relu;
  chunk->width = std::min<int64_t>(W * V, out - o0);
  chunk->out = out;
  chunk->dst = dst + o0;
}

// Rows [n0, n0 + R) of one chunk: R * V accumulators, vector values with
// compile-time indices, which the compiler keeps in registers for the whole
// input loop. Each lane's chain is the one ForwardBatchLayer documents.
template <int W, int V, int R, typename Terms>
LTE_ALWAYS_INLINE void Tile(const Chunk<W, V>& chunk, const Terms& terms,
                            int64_t n0) {
  Vec<W> acc[R][V];
  decltype(terms.row(0)) row[R];
  for (int r = 0; r < R; ++r) {
    row[r] = terms.row(n0 + r);
    for (int v = 0; v < V; ++v) acc[r][v] = chunk.start[v];
  }
  const int64_t per_row = terms.per_row();
  for (int64_t k = 0; k < per_row; ++k) {
    for (int r = 0; r < R; ++r) {
      const double* w = chunk.wt + terms.index(row[r], k) * chunk.stride;
      const double x = terms.value(row[r], k);
      for (int v = 0; v < V; ++v) {
        Vec<W> wv;
        std::memcpy(&wv, w + W * v, sizeof(wv));
        acc[r][v] += wv * x;
      }
    }
  }
  const Vec<W> zero = {};
  for (int r = 0; r < R; ++r) {
    double* d = chunk.dst + (n0 + r) * chunk.out;
    for (int v = 0; v < V; ++v) {
      Vec<W> s = acc[r][v];
      if (chunk.has_bias) s += chunk.bias[v];
      if (chunk.relu) {
        // s > 0 ? s : +0.0 per lane (a NaN or -0.0 lane becomes +0.0).
        const auto positive = s > zero;
        s = reinterpret_cast<Vec<W>>(
            reinterpret_cast<decltype(positive)>(s) & positive);
      }
      const int64_t o = W * v;
      if (o + W <= chunk.width) {
        std::memcpy(d + o, &s, sizeof(s));
      } else {
        for (int l = 0; l < W; ++l) {
          if (o + l < chunk.width) d[o + l] = s[l];
        }
      }
    }
  }
}

// Outputs [o0, o0 + W * V) of every row: R rows at a time, then the rest
// one by one.
template <int W, int V, int R, typename Terms>
LTE_ALWAYS_INLINE void Rows(const PackedLayer& layer, const Terms& terms,
                            int64_t count, int64_t o0, const double* init,
                            bool relu, double* dst) {
  Chunk<W, V> chunk;
  MakeChunk<W, V>(layer, o0, init, relu, dst, &chunk);
  int64_t n = 0;
  for (; n + R <= count; n += R) Tile<W, V, R>(chunk, terms, n);
  for (; n < count; ++n) Tile<W, V, 1>(chunk, terms, n);
}

// The kernel at width W: full chunks of W * kChunkVecs outputs, then the
// last, narrower chunk, which keeps about six accumulators in flight by
// taking several rows at once.
template <int W, typename Terms>
LTE_ALWAYS_INLINE void Forward(const PackedLayer& layer, const Terms& terms,
                               int64_t count, const double* init, bool relu,
                               double* dst) {
  const int64_t chunk = W * kChunkVecs;
  const int64_t full = layer.out() - layer.out() % chunk;
  for (int64_t o0 = 0; o0 < full; o0 += chunk) {
    Rows<W, kChunkVecs, 1>(layer, terms, count, o0, init, relu, dst);
  }
  switch ((layer.out() - full + W - 1) / W) {
    case 0:
      break;
    case 1:
      Rows<W, 1, 6>(layer, terms, count, full, init, relu, dst);
      break;
    case 2:
      Rows<W, 2, 3>(layer, terms, count, full, init, relu, dst);
      break;
    case 3:
      Rows<W, 3, 2>(layer, terms, count, full, init, relu, dst);
      break;
    case 4:
      Rows<W, 4, 1>(layer, terms, count, full, init, relu, dst);
      break;
    case 5:
      Rows<W, 5, 1>(layer, terms, count, full, init, relu, dst);
      break;
    default:
      Rows<W, 6, 1>(layer, terms, count, full, init, relu, dst);
      break;
  }
}

template <typename Terms>
LTE_TARGET_AVX2 void ForwardAvx2(const PackedLayer& layer, const Terms& terms,
                                 int64_t count, const double* init, bool relu,
                                 double* dst) {
  Forward<4>(layer, terms, count, init, relu, dst);
}

// One dispatch per layer call.
template <typename Terms>
void Dispatch(const PackedLayer& layer, const Terms& terms, int64_t count,
              const double* init, bool relu, double* dst) {
  if (UseAvx2Bodies()) {
    ForwardAvx2(layer, terms, count, init, relu, dst);
  } else {
    Forward<2>(layer, terms, count, init, relu, dst);
  }
}

}  // namespace

bool PackedLayer::Pack(const double* w, int64_t w_stride, int64_t in,
                       int64_t out, const double* bias) {
  LTE_CHECK_GT(in, 0);
  LTE_CHECK_GT(out, 0);
  in_ = in;
  out_ = out;
  stride_ = (out + kStrideAlign - 1) / kStrideAlign * kStrideAlign;
  wt_.resize(static_cast<size_t>(in * stride_));
  // Two outputs by two inputs at a time: two 16-byte loads from the weight
  // rows, two 16-byte stores of packed pairs. An odd last output is paired
  // with a zero; the padding outputs are zeros. w - w is +-0.0 for a finite
  // weight and NaN otherwise, so `nan` gains exponent bits only from a
  // non-finite weight.
  I2 nan = {0, 0};
  for (int64_t o = 0; o < stride_; o += 2) {
    double* d = wt_.data() + o;
    if (o >= out) {
      for (int64_t c = 0; c < in; ++c) Store(d + c * stride_, V2{0.0, 0.0});
      continue;
    }
    const double* w0 = w + o * w_stride;
    if (o + 1 == out) {
      for (int64_t c = 0; c < in; ++c) {
        const V2 a = {w0[c], 0.0};
        nan |= reinterpret_cast<I2>(a - a);
        Store(d + c * stride_, a);
      }
      continue;
    }
    const double* w1 = w0 + w_stride;
    int64_t c = 0;
    for (; c + 2 <= in; c += 2) {
      const V2 a = Load(w0 + c);
      const V2 b = Load(w1 + c);
      nan |= reinterpret_cast<I2>(a - a) | reinterpret_cast<I2>(b - b);
      Store(d + c * stride_, V2{a[0], b[0]});
      Store(d + (c + 1) * stride_, V2{a[1], b[1]});
    }
    if (c < in) {
      const V2 a = {w0[c], w1[c]};
      nan |= reinterpret_cast<I2>(a - a);
      Store(d + c * stride_, a);
    }
  }
  if (bias == nullptr) {
    bias_.clear();
  } else {
    bias_.assign(bias, bias + out);
    bias_.resize(static_cast<size_t>(stride_), 0.0);
  }
  return ((nan[0] | nan[1]) & std::numeric_limits<int64_t>::max()) == 0;
}

void ForwardBatchLayer(const PackedLayer& layer, DenseRows x, int64_t count,
                       const double* init, bool relu, double* dst) {
  LTE_CHECK_EQ(x.skip + x.width, layer.in());
  LTE_CHECK(x.skip == 0 || init != nullptr);
  Dispatch(layer, DenseTerms{x}, count, init, relu, dst);
}

void ForwardBatchLayer(const PackedLayer& layer, CodeRows x,
                       std::span<const int64_t> rows, int64_t count, bool relu,
                       double* dst) {
  CheckCodeRows(x, rows, count, layer.in());
  Dispatch(layer, CodeTerms{x, rows}, count, /*init=*/nullptr, relu, dst);
}

void CheckCodeRows(CodeRows x, std::span<const int64_t> rows, int64_t count,
                   int64_t width) {
  LTE_CHECK_GT(x.per_row, 0);
  LTE_CHECK_EQ(static_cast<int64_t>(x.codes.size()) % x.per_row, 0);
  LTE_CHECK_EQ(rows.empty() ? x.num_rows() : static_cast<int64_t>(rows.size()),
               count);
  for (int64_t n = 0; n < count; ++n) {
    const int64_t r = rows.empty() ? n : rows[static_cast<size_t>(n)];
    LTE_CHECK(r >= 0 && r < x.num_rows());
    for (const Code& c : x.row(r)) LTE_CHECK(c.index >= 0 && c.index < width);
  }
}

CodeRows WidenCodeRows(CodeRows x, std::span<const int64_t> rows,
                       int64_t count, int64_t width, std::vector<Code>* wide) {
  CheckCodeRows(x, rows, count, width);
  wide->resize(static_cast<size_t>(count * width));
  for (int64_t n = 0; n < count; ++n) {
    Code* row = wide->data() + n * width;
    for (int64_t c = 0; c < width; ++c) row[c] = {c, 0.0};
    for (const Code& c :
         x.row(rows.empty() ? n : rows[static_cast<size_t>(n)])) {
      row[c.index].value = c.value;
    }
  }
  return CodeRows{*wide, width};
}

}  // namespace lte::nn
