#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/batch_layer.h"
#include "nn/dispatch.h"
#include "nn/loss.h"

namespace lte::nn {
namespace {

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(1);
  Mlp mlp({4, 8, 2}, &rng);
  EXPECT_EQ(mlp.num_layers(), 2);
  EXPECT_EQ(mlp.in_features(), 4);
  EXPECT_EQ(mlp.out_features(), 2);
  EXPECT_EQ(mlp.ParameterCount(), (4 * 8 + 8) + (8 * 2 + 2));
  EXPECT_EQ(mlp.Forward({1, 2, 3, 4}).size(), 2u);
}

TEST(MlpTest, ParameterRoundTrip) {
  Rng rng(2);
  Mlp mlp({3, 5, 1}, &rng);
  const std::vector<double> params = mlp.GetParameters();
  EXPECT_EQ(static_cast<int64_t>(params.size()), mlp.ParameterCount());
  const std::vector<double> y1 = mlp.Forward({0.1, 0.2, 0.3});
  mlp.SetParameters(params);
  const std::vector<double> y2 = mlp.Forward({0.1, 0.2, 0.3});
  EXPECT_EQ(y1, y2);
}

TEST(MlpTest, CopySemanticsAreDeep) {
  Rng rng(3);
  Mlp a({2, 4, 1}, &rng);
  Mlp b = a;
  std::vector<double> params = b.GetParameters();
  for (double& p : params) p += 1.0;
  b.SetParameters(params);
  EXPECT_NE(a.Forward({1.0, 1.0})[0], b.Forward({1.0, 1.0})[0]);
}

// Full-network gradient check: loss = BCE(logit, 1) on a 2-hidden-layer MLP.
TEST(MlpTest, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Mlp mlp({3, 6, 4, 1}, &rng);
  const std::vector<double> x = {0.5, -0.3, 0.8};
  const double label = 1.0;

  auto loss_at = [&](const std::vector<double>& params) {
    mlp.SetParameters(params);
    return BceWithLogits(mlp.Forward(x)[0], label);
  };

  const std::vector<double> params = mlp.GetParameters();
  Mlp::Scratch scratch;
  const double logit = mlp.ForwardBatch(x, 1, &scratch)[0];
  mlp.ZeroGrad();
  const std::vector<double> grad_out = {BceWithLogitsGrad(logit, label)};
  mlp.BackwardBatch(grad_out, &scratch);
  const std::vector<double> analytic = mlp.GetGradients();

  const double eps = 1e-6;
  for (size_t i = 0; i < params.size(); i += 7) {  // Spot-check every 7th.
    std::vector<double> p = params;
    p[i] += eps;
    const double up = loss_at(p);
    p[i] -= 2 * eps;
    const double down = loss_at(p);
    EXPECT_NEAR(analytic[i], (up - down) / (2 * eps), 1e-5) << "param " << i;
  }
  mlp.SetParameters(params);
}

TEST(MlpTest, BackwardReturnsInputGradient) {
  Rng rng(5);
  Mlp mlp({2, 3, 1}, &rng);
  const std::vector<double> x = {0.4, -0.6};
  Mlp::Scratch scratch;
  mlp.ForwardBatch(x, 1, &scratch);
  mlp.ZeroGrad();
  const std::vector<double> grad_out = {1.0};
  std::vector<double> gin;
  mlp.BackwardBatch(grad_out, &scratch, &gin);
  ASSERT_EQ(gin.size(), 2u);

  // Finite-difference check of the input gradient.
  const double eps = 1e-6;
  for (size_t i = 0; i < 2; ++i) {
    std::vector<double> xp = x;
    xp[i] += eps;
    const double up = mlp.Forward(xp)[0];
    xp[i] -= 2 * eps;
    const double down = mlp.Forward(xp)[0];
    EXPECT_NEAR(gin[i], (up - down) / (2 * eps), 1e-5);
  }
}

TEST(MlpTest, TrainsToFitXor) {
  Rng rng(6);
  Mlp mlp({2, 16, 1}, &rng);
  const std::vector<std::vector<double>> xs = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<double> ys = {0, 1, 1, 0};
  const std::vector<double> packed = {0, 0, 0, 1, 1, 0, 1, 1};
  Mlp::Scratch scratch;
  std::vector<double> grad_out(4);
  for (int epoch = 0; epoch < 3000; ++epoch) {
    mlp.ZeroGrad();
    mlp.Pack(&scratch);
    const std::span<const double> logits =
        mlp.ForwardBatch(packed, 4, &scratch);
    for (size_t i = 0; i < xs.size(); ++i) {
      grad_out[i] = BceWithLogitsGrad(logits[i], ys[i]) / 4.0;
    }
    mlp.BackwardBatch(grad_out, &scratch);
    mlp.ApplyGradients(0.5);
  }
  for (size_t i = 0; i < xs.size(); ++i) {
    const double p = Sigmoid(mlp.Forward(xs[i])[0]);
    EXPECT_NEAR(p, ys[i], 0.2) << "sample " << i;
  }
}

std::vector<uint64_t> Bits(std::span<const double> v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&bits[i], &v[i], sizeof(double));
  }
  return bits;
}

// Code-form rows laid out like two kCombined attributes with three buckets
// each: inputs [0, 3) one-hot, 3 value, [4, 7) one-hot, 7 value — four
// codes per row. Row n's values cycle through +0.0 and -0.0 besides random
// ones, so zero-valued codes are covered.
constexpr int64_t kCodeWidth = 8;
std::vector<Code> RandomCodeRows(Rng* rng, int64_t count) {
  std::vector<Code> codes;
  for (int64_t n = 0; n < count; ++n) {
    const double v0 = n % 5 == 0 ? 0.0 : rng->Uniform();
    const double v1 = n % 7 == 0 ? -0.0 : rng->Uniform();
    codes.push_back({rng->UniformInt(3), 1.0});
    codes.push_back({3, v0});
    codes.push_back({4 + rng->UniformInt(3), 1.0});
    codes.push_back({7, v1});
  }
  return codes;
}

std::vector<double> ExpandRows(const std::vector<Code>& codes) {
  std::vector<double> dense(codes.size() / 4 * kCodeWidth, 0.0);
  for (size_t k = 0; k < codes.size(); ++k) {
    dense[k / 4 * kCodeWidth + static_cast<size_t>(codes[k].index)] =
        codes[k].value;
  }
  return dense;
}

// Code-row input of the batch forward: each indexed row's output is
// bit-identical to Forward on the dense row it expands to, whatever the
// order, repeats and count of the indices — including ragged tile tails, a
// single row, and a first-layer weight of -0.0 and one of +inf (which widens
// the rows).
TEST(MlpTest, IndexedBatchMatchesPerRowForward) {
  Rng rng(7);
  for (const double odd : {-0.0, std::numeric_limits<double>::infinity()}) {
    Mlp mlp({kCodeWidth, 16, 8, 1}, &rng);
    std::vector<double> params = mlp.GetParameters();
    params[1] = odd;  // W[0][1]: a one-hot slot.
    mlp.SetParameters(params);
    Mlp::Scratch scratch;
    mlp.Pack(&scratch);
    const int64_t x_rows = 40;
    const std::vector<Code> codes = RandomCodeRows(&rng, x_rows);
    const std::vector<double> x = ExpandRows(codes);
    const CodeRows block{codes, 4};
    const std::span<const double> all =
        mlp.ForwardBatch(block, x_rows, &scratch);
    const std::vector<double> in_order(all.begin(), all.end());
    for (const int64_t count : {1, 7, 8, 9, 33}) {
      std::vector<int64_t> rows;
      for (int64_t n = 0; n < count; ++n) {
        rows.push_back((n * 13 + 5) % 29);  // Count 33 repeats rows.
      }
      const std::span<const double> got =
          mlp.ForwardBatch(block, count, &scratch, rows);
      ASSERT_EQ(got.size(), static_cast<size_t>(count));
      for (int64_t n = 0; n < count; ++n) {
        const int64_t r = rows[static_cast<size_t>(n)];
        const std::vector<double> row(x.begin() + r * kCodeWidth,
                                      x.begin() + (r + 1) * kCodeWidth);
        const double want = mlp.Forward(row)[0];
        EXPECT_EQ(Bits({&got[static_cast<size_t>(n)], 1}), Bits({&want, 1}))
            << "odd=" << odd << " count=" << count << " n=" << n;
        EXPECT_EQ(Bits({&got[static_cast<size_t>(n)], 1}),
                  Bits({&in_order[static_cast<size_t>(r)], 1}));
      }
    }
  }
}

// The gather-add first layer is bit-identical to the dense batch forward
// on the expanded rows, with a -0.0 and an exactly-zero first-layer weight
// and zero-valued codes, for a ReLU first layer and for a lone linear layer
// (whose outputs keep the sign of a zero sum) — for all rows in order and
// for indexed rows against the dense rows they name, across tile tails.
TEST(MlpTest, CodeFormForwardMatchesDenseBitForBit) {
  Rng rng(13);
  for (const std::vector<int64_t>& sizes :
       std::vector<std::vector<int64_t>>{{kCodeWidth, 6, 3}, {kCodeWidth, 4}}) {
    Mlp mlp(sizes, &rng);
    std::vector<double> params = mlp.GetParameters();
    const int64_t out_w = sizes[1];
    // Output 0: every term a zero (-0.0 times 1.0 on both one-hots, negative
    // weights times the values), zero bias.
    for (int64_t c = 0; c < kCodeWidth; ++c) {
      params[static_cast<size_t>(c)] = c == 3 || c == 7 ? -1.0 : -0.0;
    }
    params[static_cast<size_t>(kCodeWidth * out_w)] = 0.0;  // Bias 0.
    params[static_cast<size_t>(kCodeWidth + 1)] = 0.0;      // W[1][1].
    mlp.SetParameters(params);
    Mlp::Scratch scratch;
    ASSERT_TRUE(mlp.Pack(&scratch));

    const int64_t x_rows = 40;
    std::vector<Code> codes = RandomCodeRows(&rng, x_rows);
    codes[1].value = 0.0;  // Row 0: output 0 sums zeros only.
    codes[3].value = 0.0;
    const std::vector<double> x = ExpandRows(codes);
    const CodeRows block{codes, 4};
    const std::span<const double> dense_out =
        mlp.ForwardBatch(x, x_rows, &scratch);
    const std::vector<double> dense(dense_out.begin(), dense_out.end());
    std::span<const double> got = mlp.ForwardBatch(block, x_rows, &scratch);
    EXPECT_EQ(Bits(got), Bits(dense));
    if (sizes.size() == 2) {
      EXPECT_EQ(Bits({&got[0], 1}), Bits(std::vector<double>{0.0}));
    }
    const int64_t out = sizes.back();
    for (const int64_t count : {1, 7, 8, 9, 33}) {
      std::vector<int64_t> rows;
      std::vector<double> want;
      for (int64_t n = 0; n < count; ++n) {
        rows.push_back((n * 13 + 5) % x_rows);
        want.insert(want.end(), dense.begin() + rows.back() * out,
                    dense.begin() + (rows.back() + 1) * out);
      }
      got = mlp.ForwardBatch(block, count, &scratch, rows);
      EXPECT_EQ(Bits(got), Bits(want)) << "count=" << count;
    }
  }
}

// Pack lays the first layer out by input (row c holds input c's
// weight to every output) and flags a non-finite first-layer weight.
TEST(MlpTest, TransposeFirstLayerFlagsNonFiniteWeights) {
  Rng rng(14);
  Mlp mlp({3, 2, 1}, &rng);
  Mlp::Scratch scratch;
  ASSERT_TRUE(mlp.Pack(&scratch));
  const std::vector<double>& wt = scratch.packed.front().wt();
  const std::vector<double> w = mlp.GetParameters();
  ASSERT_EQ(wt.size(), 12u);
  for (int64_t o = 0; o < 2; ++o) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(wt[static_cast<size_t>(c * 4 + o)],
                w[static_cast<size_t>(o * 3 + c)]);
    }
  }
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> params = w;
    params[4] = bad;
    mlp.SetParameters(params);
    EXPECT_FALSE(mlp.Pack(&scratch));
  }
  // A non-finite weight past the first layer does not matter to it.
  std::vector<double> params = w;
  params.back() = std::numeric_limits<double>::infinity();
  mlp.SetParameters(params);
  EXPECT_TRUE(mlp.Pack(&scratch));
}

// Bitwise equality, except that any two NaNs match: which NaN payload an
// operation with two NaN operands returns depends on the operand order the
// compiler picks, in the reference as in the kernel.
bool SameBitsOrBothNan(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return Bits(std::vector<double>{a}) == Bits(std::vector<double>{b});
}

// A random value in [-2, 2], or one of the awkward ones: +-0.0, and with
// `non_finite` also +-inf and NaN.
double AwkwardValue(Rng* rng, bool non_finite) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng->UniformInt(non_finite ? 12 : 8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 8:
      return inf;
    case 9:
      return -inf;
    case 10:
      return std::numeric_limits<double>::quiet_NaN();
    default:
      return rng->Uniform(-2.0, 2.0);
  }
}

// One layer with awkward weights and biases, as an Mlp so its parameters
// can be set.
Mlp AwkwardLayer(int64_t in, int64_t out, bool non_finite, Rng* rng) {
  Mlp mlp({in, out}, rng);
  std::vector<double> params = mlp.GetParameters();
  for (double& p : params) p = AwkwardValue(rng, non_finite);
  mlp.SetParameters(params);
  return mlp;
}

// Linear::Forward on one row, with or without the bias, then the ReLU.
std::vector<double> ReferenceRow(const Linear& layer,
                                 const std::vector<double>& x, bool bias,
                                 bool relu) {
  std::vector<double> y =
      bias ? layer.Forward(x) : layer.weights().MatVec(x);
  return relu ? Relu(y) : y;
}

// The batch layer kernel against per-row Linear::Forward, bit for bit, at
// both vector widths the host runs: every chunk shape (widths below, at and
// around the 12- and 24-output chunks, every tail of 1-3 outputs past a
// multiple of 4, and the narrow multi-row tiles), row counts around the row
// tiles, a shared head resumed from its prefix, layers with and without a
// bias, signed zeros, and +-inf and NaN in weights and inputs.
TEST(BatchLayerTest, DenseRowsMatchPerRowLinearForward) {
  for (const int width : {2, 4}) {
    if (width > KernelWidth()) continue;  // No AVX2 body here.
    ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    Rng rng(21);
    const int64_t widths[] = {1, 2, 3, 4, 5, 12, 13, 23, 24, 25, 32};
    for (const int64_t in : widths) {
      for (const int64_t out : widths) {
        for (const bool non_finite : {false, true}) {
          const Mlp mlp = AwkwardLayer(in, out, non_finite, &rng);
          const Linear& layer = mlp.layers().front();
          for (const bool bias : {true, false}) {
            PackedLayer packed;
            packed.Pack(layer.weights().data().data(), in, in, out,
                        bias ? layer.bias().data() : nullptr);
            for (const int64_t count : {0, 1, 7, 8, 9, 130}) {
              const bool relu = (in + out + count) % 2 == 0;
              // A shared head covers the first half of the inputs.
              const int64_t skip = count % 2 == 1 ? in / 2 : 0;
              std::vector<double> head(static_cast<size_t>(skip));
              for (double& v : head) v = AwkwardValue(&rng, non_finite);
              std::vector<double> prefix(static_cast<size_t>(out));
              DotRows(layer.weights().data().data(), in, out, head, nullptr,
                      prefix.data());
              std::vector<double> x(static_cast<size_t>(count * (in - skip)));
              for (double& v : x) v = AwkwardValue(&rng, non_finite);
              std::vector<double> got(static_cast<size_t>(count * out));
              ForwardBatchLayer(packed, DenseRows{x.data(), in - skip, skip},
                                count, skip > 0 ? prefix.data() : nullptr, relu,
                                got.data());
              for (int64_t n = 0; n < count; ++n) {
                std::vector<double> full = head;
                full.insert(full.end(), x.begin() + n * (in - skip),
                            x.begin() + (n + 1) * (in - skip));
                const std::vector<double> want =
                    ReferenceRow(layer, full, bias, relu);
                for (int64_t o = 0; o < out; ++o) {
                  ASSERT_TRUE(SameBitsOrBothNan(
                      got[static_cast<size_t>(n * out + o)],
                      want[static_cast<size_t>(o)]))
                      << "in=" << in << " out=" << out << " count=" << count
                      << " n=" << n << " o=" << o << " bias=" << bias
                      << " relu=" << relu << " skip=" << skip << ": "
                      << got[static_cast<size_t>(n * out + o)] << " vs "
                      << want[static_cast<size_t>(o)];
                }
              }
            }
          }
        }
      }
    }
  }
}

// The kernel over code rows against Linear::Forward on the expanded rows, at
// both widths: exact for finite weights, with zero-valued, +-inf and NaN
// code values.
TEST(BatchLayerTest, CodeRowsMatchPerRowLinearForward) {
  for (const int width : {2, 4}) {
    if (width > KernelWidth()) continue;  // No AVX2 body here.
    ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    Rng rng(22);
    for (const int64_t in : {1, 5, 13, 24}) {
      for (const int64_t out : {1, 2, 3, 4, 5, 12, 13, 23, 24, 25, 32}) {
        const Mlp mlp = AwkwardLayer(in, out, /*non_finite=*/false, &rng);
        const Linear& layer = mlp.layers().front();
        PackedLayer packed;
        packed.Pack(layer.weights().data().data(), in, in, out,
                    layer.bias().data());
        const int64_t per_row = std::min<int64_t>(in, 3);
        for (const int64_t count : {0, 1, 7, 8, 9, 130}) {
          const bool relu = count % 2 == 0;
          std::vector<Code> codes;
          for (int64_t n = 0; n < count; ++n) {
            // per_row distinct ascending indices: every in/per_row-th input
            // from a random start.
            const int64_t first = rng.UniformInt(in - (per_row - 1) *
                                                        (in / per_row));
            for (int64_t k = 0; k < per_row; ++k) {
              codes.push_back({first + k * (in / per_row),
                               AwkwardValue(&rng, /*non_finite=*/true)});
            }
          }
          std::vector<int64_t> rows;
          if (count % 3 == 1) {
            for (int64_t n = 0; n < count; ++n) rows.push_back((n * 5) % count);
          }
          std::vector<double> got(static_cast<size_t>(count * out));
          ForwardBatchLayer(packed, CodeRows{codes, per_row}, rows, count, relu,
                            got.data());
          for (int64_t n = 0; n < count; ++n) {
            const int64_t r = rows.empty() ? n : rows[static_cast<size_t>(n)];
            std::vector<double> full(static_cast<size_t>(in), 0.0);
            for (int64_t k = 0; k < per_row; ++k) {
              const Code& c = codes[static_cast<size_t>(r * per_row + k)];
              full[static_cast<size_t>(c.index)] = c.value;
            }
            const std::vector<double> want =
                ReferenceRow(layer, full, /*bias=*/true, relu);
            for (int64_t o = 0; o < out; ++o) {
              ASSERT_TRUE(SameBitsOrBothNan(
                  got[static_cast<size_t>(n * out + o)],
                  want[static_cast<size_t>(o)]))
                  << "in=" << in << " out=" << out << " count=" << count
                  << " n=" << n << " o=" << o;
            }
          }
        }
      }
    }
  }
}

// The backward kernel over prefixed rows [head; x_n] (M_cp's layout)
// against the per-row reference at both widths: dW from AddOuter on the
// full rows, the rows' input gradients from TransposeMatVec, and the head's
// added into its accumulator row by row. Head and row widths put the
// boundary between them inside and at the edge of a vector and cross the
// chunks; inputs hold +-0.0, +-inf and NaN, gradients +-0.0.
TEST(BatchLayerTest, BackwardPrefixedRowsMatchPerRowReference) {
  for (const int width : {2, 4}) {
    if (width > KernelWidth()) continue;  // No AVX2 body here.
    ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    Rng rng(23);
    for (const int64_t head_w : {1, 4, 13, 24, 25}) {
      for (const int64_t row_w : {1, 5, 24, 26}) {
        for (const int64_t out : {1, 4, 13, 24}) {
          for (const int64_t count : {1, 5, 60}) {
            const int64_t in = head_w + row_w;
            const Mlp mlp = AwkwardLayer(in, out, /*non_finite=*/false, &rng);
            const Linear& layer = mlp.layers().front();
            std::vector<double> head(static_cast<size_t>(head_w));
            for (double& v : head) v = AwkwardValue(&rng, true);
            std::vector<double> x(static_cast<size_t>(count * row_w));
            for (double& v : x) v = AwkwardValue(&rng, true);
            std::vector<double> g(static_cast<size_t>(count * out));
            for (double& v : g) v = AwkwardValue(&rng, false);
            Matrix gw(out, in);
            gw.Fill(0.5);
            Matrix ref_gw = gw;
            std::vector<double> g_head(static_cast<size_t>(head_w), 0.25);
            std::vector<double> ref_head = g_head;
            std::vector<double> gin(static_cast<size_t>(count * row_w));
            BackwardBatchLayer(
                layer.weights().data().data(), out,
                PrefixedRows{head.data(), head_w, x.data(), row_w}, g.data(),
                count,
                LayerGradients{gw.mutable_data()->data(), nullptr, gin.data(),
                               g_head.data()});
            std::vector<double> ref_gin;
            for (int64_t n = 0; n < count; ++n) {
              std::vector<double> full = head;
              full.insert(full.end(), x.begin() + n * row_w,
                          x.begin() + (n + 1) * row_w);
              const std::vector<double> gn(g.begin() + n * out,
                                           g.begin() + (n + 1) * out);
              ref_gw.AddOuter(gn, full);
              const std::vector<double> gin_n =
                  layer.weights().TransposeMatVec(gn);
              for (int64_t c = 0; c < head_w; ++c) {
                ref_head[static_cast<size_t>(c)] +=
                    gin_n[static_cast<size_t>(c)];
              }
              ref_gin.insert(ref_gin.end(), gin_n.begin() + head_w,
                             gin_n.end());
            }
            const auto expect_same = [&](std::span<const double> got,
                                         std::span<const double> want,
                                         const char* what) {
              ASSERT_EQ(got.size(), want.size());
              for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_TRUE(SameBitsOrBothNan(got[i], want[i]))
                    << what << "[" << i << "] head=" << head_w
                    << " row=" << row_w << " out=" << out
                    << " count=" << count << ": " << got[i] << " vs "
                    << want[i];
              }
            };
            expect_same(gw.data(), ref_gw.data(), "dW");
            expect_same(gin, ref_gin, "gin");
            expect_same(g_head, ref_head, "head gradient");
          }
        }
      }
    }
  }
}

// The dispatched width is the CPU's: 4 exactly when it has AVX2.
TEST(BatchLayerTest, KernelWidthIsFourExactlyWithAvx2) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(KernelWidth() == 4, __builtin_cpu_supports("avx2") != 0);
#endif
  EXPECT_TRUE(KernelWidth() == 2 || KernelWidth() == 4);
}

// Satellite bugfix: a ragged batch (x.size() not a multiple of count) used
// to silently floor-divide into a wrong head width; it must now die with a
// message naming both sizes.
TEST(MlpDeathTest, BatchForwardRejectsRaggedInput) {
  Rng rng(11);
  Mlp mlp({4, 6, 1}, &rng);
  Mlp::Scratch scratch;
  const std::vector<double> ragged(11, 0.5);  // 11 % 3 != 0.
  EXPECT_DEATH(mlp.ForwardBatch(ragged, 3, &scratch),
               "x\\.size\\(\\)=11.*count=3");
}

TEST(MlpDeathTest, IndexedBatchRejectsOutOfRangeRow) {
  Rng rng(12);
  Mlp mlp({4, 6, 1}, &rng);
  Mlp::Scratch scratch;
  mlp.Pack(&scratch);
  const std::vector<Code> x = {{0, 0.5}, {3, 1.0}};  // Two rows.
  const std::vector<int64_t> rows = {1, 2};
  EXPECT_DEATH(mlp.ForwardBatch(CodeRows{x, 1}, 2, &scratch, rows),
               "r < x\\.num_rows\\(\\)");
  const std::vector<Code> wide_index = {{0, 0.5}, {4, 1.0}};
  EXPECT_DEATH(mlp.ForwardBatch(CodeRows{wide_index, 1}, 2, &scratch),
               "c\\.index < width");
}

}  // namespace
}  // namespace lte::nn
