#include "nn/matrix.h"

#include <cmath>

#include "common/check.h"
#include "nn/dispatch.h"

namespace lte::nn {
namespace {

// Matrix::AddScaled's body (nn/dispatch.h).
LTE_ALWAYS_INLINE void AddScaledBody(double* dst, const double* src,
                                     size_t size, double scale) {
  for (size_t i = 0; i < size; ++i) dst[i] += scale * src[i];
}

LTE_TARGET_AVX2 void AddScaledAvx2(double* dst, const double* src,
                                   size_t size, double scale) {
  AddScaledBody(dst, src, size, scale);
}

}  // namespace

void DotRows(const double* w, int64_t stride, int64_t rows,
             std::span<const double> x, const double* init, double* out) {
  const auto len = static_cast<int64_t>(x.size());
  constexpr int64_t kOutTile = 4;
  int64_t o = 0;
  for (; o + kOutTile <= rows; o += kOutTile) {
    const double* w0 = w + o * stride;
    const double* w1 = w0 + stride;
    const double* w2 = w1 + stride;
    const double* w3 = w2 + stride;
    double a0 = init != nullptr ? init[o] : 0.0;
    double a1 = init != nullptr ? init[o + 1] : 0.0;
    double a2 = init != nullptr ? init[o + 2] : 0.0;
    double a3 = init != nullptr ? init[o + 3] : 0.0;
    for (int64_t c = 0; c < len; ++c) {
      const double xc = x[static_cast<size_t>(c)];
      a0 += w0[c] * xc;
      a1 += w1[c] * xc;
      a2 += w2[c] * xc;
      a3 += w3[c] * xc;
    }
    out[o] = a0;
    out[o + 1] = a1;
    out[o + 2] = a2;
    out[o + 3] = a3;
  }
  for (; o < rows; ++o) {
    const double* wo = w + o * stride;
    double a = init != nullptr ? init[o] : 0.0;
    for (int64_t c = 0; c < len; ++c) a += wo[c] * x[static_cast<size_t>(c)];
    out[o] = a;
  }
}

Matrix::Matrix(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
  LTE_CHECK_GE(rows, 0);
  LTE_CHECK_GE(cols, 0);
  data_.assign(static_cast<size_t>(rows * cols), 0.0);
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::InitKaiming(Rng* rng, int64_t fan_in) {
  LTE_CHECK_GT(fan_in, 0);
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in));
  for (double& x : data_) x = rng->Uniform(-limit, limit);
}

void Matrix::InitGaussian(Rng* rng, double stddev) {
  for (double& x : data_) x = rng->Normal(0.0, stddev);
}

std::vector<double> Matrix::MatVec(const std::vector<double>& x) const {
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()), cols_);
  std::vector<double> y(static_cast<size_t>(rows_), 0.0);
  DotRows(data_.data(), cols_, rows_, x, nullptr, y.data());
  return y;
}

std::vector<double> Matrix::TransposeMatVec(
    const std::vector<double>& x) const {
  LTE_CHECK_EQ(static_cast<int64_t>(x.size()), rows_);
  std::vector<double> y(static_cast<size_t>(cols_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<size_t>(r)];
    if (xr == 0.0) continue;
    const double* row = &data_[static_cast<size_t>(r * cols_)];
    for (int64_t c = 0; c < cols_; ++c) {
      y[static_cast<size_t>(c)] += row[c] * xr;
    }
  }
  return y;
}

void Matrix::AddOuter(const std::vector<double>& a,
                      const std::vector<double>& b, double scale) {
  LTE_CHECK_EQ(static_cast<int64_t>(a.size()), rows_);
  LTE_CHECK_EQ(static_cast<int64_t>(b.size()), cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    const double ar = scale * a[static_cast<size_t>(r)];
    if (ar == 0.0) continue;
    double* row = &data_[static_cast<size_t>(r * cols_)];
    for (int64_t c = 0; c < cols_; ++c) {
      row[c] += ar * b[static_cast<size_t>(c)];
    }
  }
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  LTE_CHECK_EQ(rows_, other.rows_);
  LTE_CHECK_EQ(cols_, other.cols_);
  if (UseAvx2Bodies()) {
    AddScaledAvx2(data_.data(), other.data_.data(), data_.size(), scale);
  } else {
    AddScaledBody(data_.data(), other.data_.data(), data_.size(), scale);
  }
}

std::vector<double> Matrix::Row(int64_t r) const {
  LTE_CHECK_GE(r, 0);
  LTE_CHECK_LT(r, rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

void Matrix::SetRow(int64_t r, const std::vector<double>& values) {
  LTE_CHECK_GE(r, 0);
  LTE_CHECK_LT(r, rows_);
  LTE_CHECK_EQ(static_cast<int64_t>(values.size()), cols_);
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

void Matrix::Save(BinaryWriter* writer) const {
  writer->WriteI64(rows_);
  writer->WriteI64(cols_);
  writer->WriteDoubleVector(data_);
}

Status Matrix::Load(BinaryReader* reader) {
  int64_t rows = 0;
  int64_t cols = 0;
  LTE_RETURN_IF_ERROR(reader->ReadI64(&rows));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&cols));
  if (rows < 0 || cols < 0) {
    return Status::IoError("matrix load: negative dimensions");
  }
  std::vector<double> data;
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&data));
  // Overflow-checked: corrupt dimensions must not wrap into a match.
  uint64_t size = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(rows),
                             static_cast<uint64_t>(cols), &size) ||
      size != data.size()) {
    return Status::IoError("matrix load: size mismatch");
  }
  rows_ = rows;
  cols_ = cols;
  data_ = std::move(data);
  return Status::OK();
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

}  // namespace lte::nn
