#ifndef LTE_PREPROCESS_NORMALIZER_H_
#define LTE_PREPROCESS_NORMALIZER_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "data/table.h"

namespace lte::preprocess {

/// Per-attribute min-max normalizer mapping each attribute into [0, 1].
///
/// This is the "straightforward" baseline representation the paper contrasts
/// with the GMM/JKC tabular encoding (Section VII-A), and it is also used to
/// bring subspace coordinates into a common range before clustering and
/// geometry.
class MinMaxNormalizer {
 public:
  MinMaxNormalizer() = default;

  /// Learns per-column [min, max] from `table`. Fails on tables with no rows.
  Status Fit(const data::Table& table);

  int64_t num_attributes() const {
    return static_cast<int64_t>(mins_.size());
  }

  /// The [min, max] that Fit recorded for attribute `attr`.
  double min(int64_t attr) const { return mins_[static_cast<size_t>(attr)]; }
  double max(int64_t attr) const { return maxs_[static_cast<size_t>(attr)]; }

  /// Maps attribute `attr`'s value x into [0, 1] (clamped; constant columns
  /// map to 0.5).
  double Transform(int64_t attr, double x) const;

  /// Inverse of Transform.
  double Inverse(int64_t attr, double normalized) const;

  /// Normalizes a full-width row.
  std::vector<double> TransformRow(const std::vector<double>& row) const;

  /// Serialization (model persistence).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_NORMALIZER_H_
