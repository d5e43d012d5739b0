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
// U is the same vector at any address (as GCC's own __m256d_u): loads and
// stores through it move a register straight to or from memory.
template <>
struct Lanes<2> {
  typedef double V __attribute__((vector_size(16)));
  typedef double U __attribute__((vector_size(16), may_alias, aligned(8)));
};
template <>
struct Lanes<4> {
  typedef double V __attribute__((vector_size(32)));
  typedef double U __attribute__((vector_size(32), may_alias, aligned(8)));
};
template <int W>
using Vec = typename Lanes<W>::V;
template <int W>
using Unaligned = typename Lanes<W>::U;

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

// Lanes [0, lanes) of *v from p, the rest +0.0: the last vector of a
// chunk may cover fewer than W columns, and the memory after them is
// another row's, or past the buffer. Two lanes move as one 16-byte access
// both ways, so that a partial store forwards to the next partial load of
// the same lanes. Through Unaligned, never memcpy: a memcpy out of an
// accumulator array lets the compiler keep the array on the stack.
template <int W>
LTE_ALWAYS_INLINE void LoadLanes(const double* p, int64_t lanes, Vec<W>* v) {
  if (lanes >= W) {
    *v = *reinterpret_cast<const Unaligned<W>*>(p);
  } else if constexpr (W == 2) {
    *v = Vec<W>{p[0], 0.0};
  } else if (lanes == 1) {
    *v = Vec<W>{p[0], 0.0, 0.0, 0.0};
  } else {
    const Vec<2> low = *reinterpret_cast<const Unaligned<2>*>(p);
    *v = Vec<W>{low[0], low[1], lanes == 3 ? p[2] : 0.0, 0.0};
  }
}

template <int W>
LTE_ALWAYS_INLINE void StoreLanes(double* p, int64_t lanes, const Vec<W>& v) {
  if (lanes >= W) {
    *reinterpret_cast<Unaligned<W>*>(p) = v;
  } else if constexpr (W == 2) {
    p[0] = v[0];
  } else if (lanes == 1) {
    p[0] = v[0];
  } else {
    *reinterpret_cast<Unaligned<2>*>(p) = Vec<2>{v[0], v[1]};
    if (lanes == 3) p[2] = v[2];
  }
}

// One side of the backward over a segment of columns: accumulator row r
// holds, per column c, a chain over the steps k in ascending order that
// adds src(k)[c] * coef(r, k) and skips a zero coefficient.
//   dW:  rows o, steps n, coef g_n[o], src(n) input row n's segment (the
//        same head for every n), starting from dW's values.
//   gin: rows n, steps o, coef g_n[o], src(o) W's row o's segment,
//        starting from +0.0; the rows' segment is stored, the head's is
//        added into one shared row, row after row (`sum`).
struct Side {
  const double* coef;  // coef(r, k) = coef[r * coef_r + k * coef_k].
  int64_t coef_r;
  int64_t coef_k;
  int64_t steps;
  const double* src;   // src(k) = src + k * src_k.
  int64_t src_k;
  double* dst;         // Row r at dst + r * dst_r, or at dst with `sum`.
  int64_t dst_r;
  bool from_zero;
  bool sum;
};

// Rows [r0, r0 + R) of the columns [c0, c0 + W * V), the last vector
// `last` lanes wide: R * V accumulators that stay in registers for all the
// steps.
template <int W, int V, int R>
LTE_ALWAYS_INLINE void BackTile(const Side& s, int64_t r0, int64_t c0,
                                int64_t last) {
  Vec<W> acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = Vec<W>{};
      if (!s.from_zero) {
        LoadLanes<W>(s.dst + (r0 + r) * s.dst_r + c0 + W * v,
                     v + 1 < V ? W : last, &acc[r][v]);
      }
    }
  }
  for (int64_t k = 0; k < s.steps; ++k) {
    const double* src = s.src + k * s.src_k + c0;
    for (int r = 0; r < R; ++r) {
      const double c = s.coef[(r0 + r) * s.coef_r + k * s.coef_k];
      if (c == 0.0) continue;
      for (int v = 0; v < V; ++v) {
        Vec<W> x;
        LoadLanes<W>(src + W * v, v + 1 < V ? W : last, &x);
        acc[r][v] += x * c;
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    double* d = s.dst + (s.sum ? 0 : (r0 + r) * s.dst_r) + c0;
    for (int v = 0; v < V; ++v) {
      const int64_t lanes = v + 1 < V ? W : last;
      if (s.sum) {
        Vec<W> t;
        LoadLanes<W>(d + W * v, lanes, &t);
        t += acc[r][v];
        StoreLanes<W>(d + W * v, lanes, t);
      } else {
        StoreLanes<W>(d + W * v, lanes, acc[r][v]);
      }
    }
  }
}

// Every row of one column chunk: R rows at a time, then the rest one by
// one.
template <int W, int V, int R>
LTE_ALWAYS_INLINE void BackRows(const Side& s, int64_t rows, int64_t c0,
                                int64_t last) {
  int64_t r = 0;
  for (; r + R <= rows; r += R) BackTile<W, V, R>(s, r, c0, last);
  for (; r < rows; ++r) BackTile<W, V, 1>(s, r, c0, last);
}

// A side over `width` columns: full chunks of W * kChunkVecs columns, then
// the last, narrower chunk with several rows in flight, as Forward takes
// them.
template <int W>
LTE_ALWAYS_INLINE void BackSide(const Side& s, int64_t rows, int64_t width) {
  const int64_t chunk = W * kChunkVecs;
  const int64_t full = width - width % chunk;
  for (int64_t c0 = 0; c0 < full; c0 += chunk) {
    BackRows<W, kChunkVecs, 1>(s, rows, c0, W);
  }
  const int64_t vecs = (width - full + W - 1) / W;
  const int64_t last = width - full - W * (vecs - 1);
  switch (vecs) {
    case 0:
      break;
    case 1:
      BackRows<W, 1, 6>(s, rows, full, last);
      break;
    case 2:
      BackRows<W, 2, 3>(s, rows, full, last);
      break;
    case 3:
      BackRows<W, 3, 2>(s, rows, full, last);
      break;
    case 4:
      BackRows<W, 4, 1>(s, rows, full, last);
      break;
    case 5:
      BackRows<W, 5, 1>(s, rows, full, last);
      break;
    default:
      BackRows<W, 6, 1>(s, rows, full, last);
      break;
  }
}

// The backward body at width W (nn/dispatch.h): dW over the head's and the
// rows' columns, db, then the input gradients of the head and the rows.
template <int W>
LTE_ALWAYS_INLINE void Backward(const double* w, int64_t out,
                                const PrefixedRows& x, const double* g,
                                int64_t count, const LayerGradients& grads) {
  const int64_t in = x.head_width + x.width;
  Side dw{.coef = g, .coef_r = 1, .coef_k = out, .steps = count,
          .src = x.head, .src_k = 0, .dst = grads.weights, .dst_r = in,
          .from_zero = false, .sum = false};
  BackSide<W>(dw, out, x.head_width);
  dw.src = x.x;
  dw.src_k = x.width;
  dw.dst = grads.weights + x.head_width;
  BackSide<W>(dw, out, x.width);
  if (grads.bias != nullptr) {
    for (int64_t n = 0; n < count; ++n) {
      for (int64_t o = 0; o < out; ++o) grads.bias[o] += g[n * out + o];
    }
  }
  Side gin{.coef = g, .coef_r = out, .coef_k = 1, .steps = out, .src = w,
           .src_k = in, .dst = grads.head, .dst_r = 0, .from_zero = true,
           .sum = true};
  if (grads.head != nullptr) BackSide<W>(gin, count, x.head_width);
  if (grads.rows != nullptr) {
    gin.src = w + x.head_width;
    gin.dst = grads.rows;
    gin.dst_r = x.width;
    gin.sum = false;
    BackSide<W>(gin, count, x.width);
  }
}

LTE_TARGET_AVX2 void BackwardAvx2(const double* w, int64_t out,
                                  const PrefixedRows& x, const double* g,
                                  int64_t count, const LayerGradients& grads) {
  Backward<4>(w, out, x, g, count, grads);
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

void BackwardBatchLayer(const double* w, int64_t out, PrefixedRows x,
                        const double* g, int64_t count,
                        const LayerGradients& grads) {
  LTE_CHECK_GT(out, 0);
  LTE_CHECK_GE(count, 0);
  LTE_CHECK(x.head_width >= 0 && x.width >= 0);
  LTE_CHECK(x.head_width == 0 || x.head != nullptr);
  // One dispatch per layer call.
  if (UseAvx2Bodies()) {
    BackwardAvx2(w, out, x, g, count, grads);
  } else {
    Backward<2>(w, out, x, g, count, grads);
  }
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
