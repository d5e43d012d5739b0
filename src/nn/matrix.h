#ifndef LTE_NN_MATRIX_H_
#define LTE_NN_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"

namespace lte::nn {

/// out[o] = init[o] + Σ_{c < x.size()} w[o * stride + c] · x[c] for
/// o < rows (`init` null = 0.0). Each output accumulates alone in ascending
/// c, the operation sequence of a plain dot product, so results are
/// bit-identical to one; several outputs advance together so that their
/// independent add chains overlap instead of each waiting out the FP-add
/// latency of the one before.
void DotRows(const double* w, int64_t stride, int64_t rows,
             std::span<const double> x, const double* init, double* out);

/// A dense row-major matrix of doubles.
///
/// This is the numeric workhorse of the NN substrate: layer weights, the
/// memory matrices of the memory-augmented optimizer (M_R, M_vR, M_CP), and
/// the embedding-conversion transform are all `Matrix`. The class stays
/// deliberately small — the library needs vector-in/vector-out products and
/// elementwise updates, not a full BLAS.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  double& operator()(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double operator()(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>* mutable_data() { return &data_; }

  /// Sets every entry to v.
  void Fill(double v);

  /// Kaiming-uniform initialization: U(-limit, limit) with
  /// limit = sqrt(6 / fan_in); suitable for the ReLU MLPs used throughout.
  void InitKaiming(Rng* rng, int64_t fan_in);

  /// Gaussian initialization with the given standard deviation (used for the
  /// randomly initialized memory matrices, paper Section VI-B).
  void InitGaussian(Rng* rng, double stddev);

  /// y = this * x  (x has cols() entries, y has rows() entries).
  std::vector<double> MatVec(const std::vector<double>& x) const;

  /// y = this^T * x (x has rows() entries, y has cols() entries).
  std::vector<double> TransposeMatVec(const std::vector<double>& x) const;

  /// this += scale * (a outer b), where a has rows() and b has cols()
  /// entries. Used for gradient accumulation (dW += dy x^T) and the
  /// attentive memory updates (a_R x v_R^T).
  void AddOuter(const std::vector<double>& a, const std::vector<double>& b,
                double scale = 1.0);

  /// this += scale * other (shapes must match).
  void AddScaled(const Matrix& other, double scale);

  /// One row as a vector copy.
  std::vector<double> Row(int64_t r) const;
  void SetRow(int64_t r, const std::vector<double>& values);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Serialization (model persistence; see core/serialization docs).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace lte::nn

#endif  // LTE_NN_MATRIX_H_
