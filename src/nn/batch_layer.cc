#include "nn/batch_layer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace lte::nn {
namespace {

// Two doubles: one SSE2 register on x86-64. Each lane is one output's
// accumulator, and lane-wise +, * and > are the scalar IEEE operations, so
// a lane runs exactly the scalar chain.
typedef double V2 __attribute__((vector_size(16)));

V2 Load(const double* p) {
  V2 v = {0.0, 0.0};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

// Outputs per accumulator chunk: six V2 registers, which leaves room for the
// six weight vectors and the broadcast input in SSE2's sixteen.
constexpr int kChunkVecs = 6;

// Terms of dense rows: term k of a row is (input skip + k, x[k]).
struct DenseTerms {
  DenseRows x;

  int64_t per_row() const { return x.width; }
  const double* row(int64_t n) const { return x.x + n * x.width; }
  int64_t index(const double* /*row*/, int64_t k) const { return x.skip + k; }
  double value(const double* row, int64_t k) const { return row[k]; }
};

// Terms of code rows: term k of a row is its k-th code.
struct CodeTerms {
  CodeRows x;
  std::span<const int64_t> rows;

  int64_t per_row() const { return x.per_row; }
  const Code* row(int64_t n) const {
    return x.row(rows.empty() ? n : rows[static_cast<size_t>(n)]).data();
  }
  int64_t index(const Code* row, int64_t k) const { return row[k].index; }
  double value(const Code* row, int64_t k) const { return row[k].value; }
};

// What every row of one output chunk [o0, o0 + 2V) shares.
template <int V>
struct Chunk {
  const double* wt;  // The packed weights of output o0.
  int64_t stride;
  V2 start[V];       // +0.0, or the init values.
  V2 bias[V];
  bool has_bias;
  bool relu;
  int64_t width;     // Outputs to store: min(2V, out - o0).
  int64_t out;       // Row stride of dst.
  double* dst;       // Output o0 of row 0.
};

template <int V>
Chunk<V> MakeChunk(const PackedLayer& layer, int64_t o0, const double* init,
                   bool relu, double* dst) {
  const int64_t out = layer.out();
  const double* bias = layer.bias().data();
  Chunk<V> chunk;
  chunk.wt = layer.wt().data() + o0;
  chunk.stride = layer.stride();
  for (int v = 0; v < V; ++v) {
    const int64_t o = o0 + 2 * v;
    const auto at = [&](const double* p, int64_t i) {
      return p != nullptr && i < out ? p[i] : 0.0;
    };
    chunk.start[v] = V2{at(init, o), at(init, o + 1)};
    chunk.bias[v] = V2{at(bias, o), at(bias, o + 1)};
  }
  chunk.has_bias = !layer.bias().empty();
  chunk.relu = relu;
  chunk.width = std::min<int64_t>(2 * V, out - o0);
  chunk.out = out;
  chunk.dst = dst + o0;
  return chunk;
}

// Rows [n0, n0 + R) of one chunk: R * V accumulators, V2 values with
// compile-time indices, which the compiler keeps in registers for the whole
// input loop. Each lane's chain is the one ForwardBatchLayer documents.
template <int V, int R, typename Terms>
inline __attribute__((always_inline)) void Tile(const Chunk<V>& chunk,
                                                const Terms& terms,
                                                int64_t n0) {
  V2 acc[R][V];
  decltype(terms.row(0)) row[R];
  for (int r = 0; r < R; ++r) {
    row[r] = terms.row(n0 + r);
    for (int v = 0; v < V; ++v) acc[r][v] = chunk.start[v];
  }
  const int64_t per_row = terms.per_row();
  for (int64_t k = 0; k < per_row; ++k) {
    for (int r = 0; r < R; ++r) {
      const double* w = chunk.wt + terms.index(row[r], k) * chunk.stride;
      const double xv = terms.value(row[r], k);
      const V2 x = {xv, xv};
      for (int v = 0; v < V; ++v) acc[r][v] += Load(w + 2 * v) * x;
    }
  }
  const V2 zero = {0.0, 0.0};
  for (int r = 0; r < R; ++r) {
    double* d = chunk.dst + (n0 + r) * chunk.out;
    for (int v = 0; v < V; ++v) {
      V2 s = acc[r][v];
      if (chunk.has_bias) s = s + chunk.bias[v];
      if (chunk.relu) {
        // s > 0 ? s : +0.0 per lane (a NaN or -0.0 lane becomes +0.0).
        const auto positive = s > zero;
        s = reinterpret_cast<V2>(reinterpret_cast<decltype(positive)>(s) &
                                 positive);
      }
      if (2 * v + 1 < chunk.width) {
        Store(d + 2 * v, s);
      } else if (2 * v < chunk.width) {
        d[2 * v] = s[0];
      }
    }
  }
}

// Outputs [o0, o0 + 2V) of every row: R rows at a time, then the rest one
// by one.
template <int V, int R, typename Terms>
void Rows(const PackedLayer& layer, const Terms& terms, int64_t count,
          int64_t o0, const double* init, bool relu, double* dst) {
  const Chunk<V> chunk = MakeChunk<V>(layer, o0, init, relu, dst);
  int64_t n = 0;
  for (; n + R <= count; n += R) Tile<V, R>(chunk, terms, n);
  for (; n < count; ++n) Tile<V, 1>(chunk, terms, n);
}

template <typename Terms>
void Forward(const PackedLayer& layer, const Terms& terms, int64_t count,
             const double* init, bool relu, double* dst) {
  const int64_t chunk = 2 * kChunkVecs;
  const int64_t full = layer.out() - layer.out() % chunk;
  for (int64_t o0 = 0; o0 < full; o0 += chunk) {
    Rows<kChunkVecs, 1>(layer, terms, count, o0, init, relu, dst);
  }
  // The last, narrower chunk keeps about six accumulators in flight by
  // taking several rows at once.
  switch ((layer.out() - full + 1) / 2) {
    case 0:
      break;
    case 1:
      Rows<1, 6>(layer, terms, count, full, init, relu, dst);
      break;
    case 2:
      Rows<2, 3>(layer, terms, count, full, init, relu, dst);
      break;
    case 3:
      Rows<3, 2>(layer, terms, count, full, init, relu, dst);
      break;
    case 4:
      Rows<4, 1>(layer, terms, count, full, init, relu, dst);
      break;
    case 5:
      Rows<5, 1>(layer, terms, count, full, init, relu, dst);
      break;
    default:
      Rows<6, 1>(layer, terms, count, full, init, relu, dst);
      break;
  }
}

}  // namespace

void PackedLayer::Pack(const double* w, int64_t w_stride, int64_t in,
                       int64_t out, const double* bias) {
  LTE_CHECK_GT(in, 0);
  LTE_CHECK_GT(out, 0);
  in_ = in;
  out_ = out;
  stride_ = out + out % 2;
  wt_.resize(static_cast<size_t>(in * stride_));
  // Two outputs by two inputs at a time: two 16-byte loads from the weight
  // rows, two 16-byte stores of packed pairs. An odd last output is paired
  // with a zero.
  for (int64_t o = 0; o < out; o += 2) {
    const double* w0 = w + o * w_stride;
    double* d = wt_.data() + o;
    if (o + 1 == out) {
      for (int64_t c = 0; c < in; ++c) Store(d + c * stride_, V2{w0[c], 0.0});
      continue;
    }
    const double* w1 = w0 + w_stride;
    int64_t c = 0;
    for (; c + 2 <= in; c += 2) {
      const V2 a = Load(w0 + c);
      const V2 b = Load(w1 + c);
      Store(d + c * stride_, V2{a[0], b[0]});
      Store(d + (c + 1) * stride_, V2{a[1], b[1]});
    }
    if (c < in) Store(d + c * stride_, V2{w0[c], w1[c]});
  }
  if (bias == nullptr) {
    bias_.clear();
  } else {
    bias_.assign(bias, bias + out);
    bias_.resize(static_cast<size_t>(stride_), 0.0);
  }
}

void ForwardBatchLayer(const PackedLayer& layer, DenseRows x, int64_t count,
                       const double* init, bool relu, double* dst) {
  LTE_CHECK_EQ(x.skip + x.width, layer.in());
  LTE_CHECK(x.skip == 0 || init != nullptr);
  Forward(layer, DenseTerms{x}, count, init, relu, dst);
}

void ForwardBatchLayer(const PackedLayer& layer, CodeRows x,
                       std::span<const int64_t> rows, int64_t count, bool relu,
                       double* dst) {
  CheckCodeRows(x, rows, count, layer.in());
  Forward(layer, CodeTerms{x, rows}, count, /*init=*/nullptr, relu, dst);
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
