#include "nn/linear.h"

#include <gtest/gtest.h>

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
    codes.BackwardCodes(CodeRows{code_x, 2}, rows, g);
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

}  // namespace
}  // namespace lte::nn
