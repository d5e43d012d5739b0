#include "nn/linear.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "nn/dispatch.h"

namespace lte::nn {
namespace {

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  // Overwrite parameters to known values via the flat interface.
  // Layout: weights row-major (out x in), then bias.
  std::vector<double> params = {1, 2,   // W row 0
                                3, 4,   // W row 1
                                0.5, -0.5};
  size_t offset = 0;
  layer.LoadParameters(params, &offset);
  EXPECT_EQ(offset, params.size());
  const std::vector<double> y = layer.Forward({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 6.5);
}

TEST(LinearTest, ParameterRoundTrip) {
  Rng rng(2);
  Linear layer(3, 4, &rng);
  EXPECT_EQ(layer.ParameterCount(), 3 * 4 + 4);
  std::vector<double> params;
  layer.AppendParameters(&params);
  EXPECT_EQ(params.size(), 16u);
  // Round-trip through LoadParameters.
  size_t offset = 0;
  layer.LoadParameters(params, &offset);
  std::vector<double> params2;
  layer.AppendParameters(&params2);
  EXPECT_EQ(params, params2);
}

TEST(LinearTest, BackwardGradInIsWTransposeG) {
  Rng rng(3);
  Linear layer(2, 2, &rng);
  std::vector<double> params = {1, 2, 3, 4, 0, 0};
  size_t offset = 0;
  layer.LoadParameters(params, &offset);
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> g = {1.0, 1.0};
  std::vector<double> gin(2);
  layer.BackwardBatch(x, g, gin);
  // W^T g = [1+3, 2+4].
  EXPECT_DOUBLE_EQ(gin[0], 4.0);
  EXPECT_DOUBLE_EQ(gin[1], 6.0);
}

TEST(LinearTest, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Linear layer(3, 2, &rng);
  const std::vector<double> x = {0.3, -0.7, 1.2};
  // Scalar objective: sum of outputs. dL/dy = (1, 1).
  auto objective = [&]() {
    const std::vector<double> y = layer.Forward(x);
    return y[0] + y[1];
  };
  layer.ZeroGrad();
  const std::vector<double> g = {1.0, 1.0};
  layer.BackwardBatch(x, g, {});
  std::vector<double> analytic;
  layer.AppendGradients(&analytic);

  std::vector<double> params;
  layer.AppendParameters(&params);
  const double eps = 1e-6;
  for (size_t i = 0; i < params.size(); ++i) {
    std::vector<double> p = params;
    p[i] += eps;
    size_t off = 0;
    layer.LoadParameters(p, &off);
    const double up = objective();
    p[i] -= 2 * eps;
    off = 0;
    layer.LoadParameters(p, &off);
    const double down = objective();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5) << "param " << i;
    off = 0;
    layer.LoadParameters(params, &off);
  }
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(5);
  Linear layer(1, 1, &rng);
  layer.ZeroGrad();
  const std::vector<double> x = {2.0};
  const std::vector<double> g = {1.0};
  layer.BackwardBatch(x, g, {});
  layer.BackwardBatch(x, g, {});
  std::vector<double> grads;
  layer.AppendGradients(&grads);
  EXPECT_DOUBLE_EQ(grads[0], 4.0);  // dW accumulated twice.
  EXPECT_DOUBLE_EQ(grads[1], 2.0);  // db accumulated twice.
}

TEST(LinearTest, ApplyGradientsIsSgdStep) {
  Rng rng(6);
  Linear layer(1, 1, &rng);
  std::vector<double> params = {2.0, 1.0};
  size_t off = 0;
  layer.LoadParameters(params, &off);
  layer.ZeroGrad();
  const std::vector<double> one = {1.0};
  layer.BackwardBatch(one, one, {});  // dW = 1, db = 1.
  layer.ApplyGradients(0.1);
  std::vector<double> updated;
  layer.AppendParameters(&updated);
  EXPECT_DOUBLE_EQ(updated[0], 1.9);
  EXPECT_DOUBLE_EQ(updated[1], 0.9);
}

// A batch accumulates its rows in order and writes one input gradient per
// row. The code-form backward, over indexed code rows with a repeat and a
// zero-valued code, accumulates the same bits as the dense rows they expand
// to, one at a time. Both dispatched bodies the host runs are checked.
TEST(LinearTest, BackwardBatchMatchesRowByRow) {
  for (const int width : {2, 4}) {
    if (width > KernelWidth()) continue;  // No AVX2 body here.
    ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    Rng rng(7);
    Linear batch(3, 2, &rng);
    Linear codes = batch;
    Linear single = batch;
    const std::vector<double> x = {0.5, -1.0, 2.0,    // row 0
                                   1.5, 0.25, -0.5,   // row 1
                                   -2.0, 1.0, 0.75};  // row 2
    const std::vector<double> g = {1.0, 0.0, -0.5, 2.0, 0.25, -1.5};
    // Code rows of inputs {0, 2}: row 0 (0.5, +0.0), row 1 (-2.0, 0.75).
    const std::vector<Code> code_x = {{0, 0.5}, {2, 0.0}, {0, -2.0}, {2, 0.75}};
    const std::vector<int64_t> rows = {1, 0, 1};
    std::vector<double> gin(3 * 3);
    batch.ZeroGrad();
    batch.BackwardBatch(x, g, gin);
    codes.ZeroGrad();
    std::vector<double> dense;
    codes.BackwardCodes(CodeRows{code_x, 2}, rows, g, &dense);
    single.ZeroGrad();
    Linear code_single = single;
    for (size_t n = 0; n < 3; ++n) {
      const std::vector<double> xn(x.begin() + n * 3, x.begin() + n * 3 + 3);
      const std::vector<double> gn(g.begin() + n * 2, g.begin() + n * 2 + 2);
      std::vector<double> gin_n(3);
      single.BackwardBatch(xn, gn, gin_n);
      EXPECT_EQ(gin_n, single.weights().TransposeMatVec(gn));
      EXPECT_EQ(gin_n, std::vector<double>(gin.begin() + n * 3,
                                           gin.begin() + n * 3 + 3));
      std::vector<double> dense(3, 0.0);
      for (const Code& c : CodeRows{code_x, 2}.row(rows[n])) {
        dense[static_cast<size_t>(c.index)] = c.value;
      }
      code_single.BackwardBatch(dense, gn, {});
    }
    std::vector<double> a;
    std::vector<double> b;
    batch.AppendGradients(&a);
    single.AppendGradients(&b);
    EXPECT_EQ(a, b);
    std::vector<double> c;
    std::vector<double> d;
    codes.AppendGradients(&c);
    code_single.AppendGradients(&d);
    EXPECT_EQ(c, d);
  }
}

// Bitwise equality, except that any two NaNs match: which payload an
// operation on two NaNs returns depends on the operand order the compiler
// picks, in the reference as in the kernel.
bool SameBitsOrBothNan(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBitsOrBothNan(got[i], want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// The batch backward kernel against the per-row reference (AddOuter,
// TransposeMatVec) at both widths, over in and out widths below, at and
// around the 12- and 24-column chunks and their doubles, batches of 1 to
// 60, gradients with +-0.0 entries (skipped), and inputs of +-0.0, +-inf
// and NaN, which a skipped gradient must keep out of dW (0 * inf is NaN).
// Two batches accumulate, so dW and db also start from nonzero values.
TEST(LinearTest, BackwardBatchMatchesRowByRowAtEveryWidth) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const int width : {2, 4}) {
    if (width > KernelWidth()) continue;  // No AVX2 body here.
    ScopedKernelWidth scope(width);
    Rng rng(8);
    const int64_t widths[] = {1, 3, 4, 5, 23, 24, 25, 48, 50};
    for (const int64_t in : widths) {
      for (const int64_t out : widths) {
        for (const int64_t count : {1, 5, 10, 60}) {
          const std::string what =
              "kernel width " + std::to_string(width) + " in=" +
              std::to_string(in) + " out=" + std::to_string(out) +
              " count=" + std::to_string(count);
          Linear layer(in, out, &rng);
          Matrix ref_gw(out, in);
          std::vector<double> ref_gb(static_cast<size_t>(out), 0.0);
          layer.ZeroGrad();
          for (int pass = 0; pass < 2; ++pass) {
            std::vector<double> x(static_cast<size_t>(count * in));
            for (double& v : x) {
              switch (rng.UniformInt(10)) {
                case 0:
                  v = 0.0;
                  break;
                case 1:
                  v = -0.0;
                  break;
                case 2:
                  v = rng.Bernoulli(0.5) ? inf : -inf;
                  break;
                case 3:
                  v = std::numeric_limits<double>::quiet_NaN();
                  break;
                default:
                  v = rng.Uniform(-2.0, 2.0);
              }
            }
            std::vector<double> g(static_cast<size_t>(count * out));
            for (double& v : g) {
              const int64_t k = rng.UniformInt(4);
              v = k == 0 ? 0.0 : k == 1 ? -0.0 : rng.Uniform(-1.0, 1.0);
            }
            std::vector<double> gin(static_cast<size_t>(count * in), -1.0);
            layer.BackwardBatch(x, g, gin);
            for (int64_t n = 0; n < count; ++n) {
              const std::vector<double> xn(x.begin() + n * in,
                                           x.begin() + (n + 1) * in);
              const std::vector<double> gn(g.begin() + n * out,
                                           g.begin() + (n + 1) * out);
              ref_gw.AddOuter(gn, xn);
              for (int64_t o = 0; o < out; ++o) {
                ref_gb[static_cast<size_t>(o)] += gn[static_cast<size_t>(o)];
              }
              ExpectSameBits(
                  std::vector<double>(gin.begin() + n * in,
                                      gin.begin() + (n + 1) * in),
                  layer.weights().TransposeMatVec(gn),
                  what + " pass " + std::to_string(pass) + " gin row " +
                      std::to_string(n));
            }
            ExpectSameBits(layer.grad_weights().data(), ref_gw.data(),
                           what + " dW");
            ExpectSameBits(layer.grad_bias(), ref_gb, what + " db");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lte::nn
