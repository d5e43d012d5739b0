#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace lte::nn {
namespace {

TEST(MatrixTest, ConstructionZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, FillAndIndex) {
  Matrix m(2, 2);
  m.Fill(3.0);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
  double v = 1.0;
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  EXPECT_EQ(m.MatVec({1, 1, 1}), (std::vector<double>{6, 15}));
  EXPECT_EQ(m.MatVec({1, 0, -1}), (std::vector<double>{-2, -2}));
}

TEST(MatrixTest, TransposeMatVec) {
  Matrix m(2, 3);
  double v = 1.0;
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  // m^T * [1 1]^T = [5 7 9]^T
  EXPECT_EQ(m.TransposeMatVec({1, 1}), (std::vector<double>{5, 7, 9}));
}

TEST(MatrixTest, AddOuter) {
  Matrix m(2, 2);
  m.AddOuter({1, 2}, {3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 12.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 16.0);
}

TEST(MatrixTest, AddScaled) {
  Matrix a(1, 2);
  Matrix b(1, 2);
  a.Fill(1.0);
  b.Fill(4.0);
  a.AddScaled(b, -0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), -1.0);
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m(2, 3);
  m.SetRow(1, {7, 8, 9});
  EXPECT_EQ(m.Row(1), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(m.Row(0), (std::vector<double>{0, 0, 0}));
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, KaimingInitBounded) {
  Rng rng(1);
  Matrix m(16, 64);
  m.InitKaiming(&rng, 64);
  const double limit = std::sqrt(6.0 / 64.0);
  for (double v : m.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  EXPECT_GT(m.FrobeniusNorm(), 0.0);
}

TEST(MatrixTest, GaussianInitSpread) {
  Rng rng(2);
  Matrix m(50, 50);
  m.InitGaussian(&rng, 0.1);
  double sumsq = 0.0;
  for (double v : m.data()) sumsq += v * v;
  const double std_est = std::sqrt(sumsq / static_cast<double>(m.size()));
  EXPECT_NEAR(std_est, 0.1, 0.02);
}

}  // namespace
}  // namespace lte::nn
