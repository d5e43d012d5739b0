#ifndef LTE_PREPROCESS_TABULAR_ENCODER_H_
#define LTE_PREPROCESS_TABULAR_ENCODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/codes.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/table.h"
#include "preprocess/gmm.h"
#include "preprocess/jenks.h"
#include "preprocess/normalizer.h"

namespace lte::preprocess {

/// Which multi-modal feature model encodes each attribute (paper Fig. 8(a)
/// ablates these choices).
enum class EncodingMode {
  /// Plain min-max normalization only — the representation the paper shows
  /// "can hardly be trained" (Fig. 8(a), "without JKC and GMM").
  kMinMaxOnly,
  /// GMM component one-hot + within-component normalized value.
  kGmmOnly,
  /// Jenks interval one-hot + within-interval normalized value.
  kJenksOnly,
  /// Concatenation of the GMM and JKC parts — the default "Basic integrates
  /// JKC and GMM representations" configuration.
  kCombined,
  /// Per-attribute choice: GMM when the marginal is peaky (high mixture
  /// likelihood gain), otherwise JKC (smooth trends).
  kAuto,
  /// One-hot over the attribute's distinct values plus an "other" slot.
  /// Never chosen globally; attributes listed in
  /// EncoderOptions::categorical_attributes resolve to this mode.
  kCategorical,
};

struct EncoderOptions {
  EncodingMode mode = EncodingMode::kCombined;
  /// |g|: number of GMM components per attribute.
  int64_t num_gmm_components = 5;
  /// |b|: number of JKC intervals per attribute.
  int64_t num_jenks_intervals = 5;
  /// Fit models on a random sample of this fraction of rows (paper caps the
  /// sampling ratio at 1%)...
  double sample_fraction = 0.01;
  /// ...but never on fewer than this many rows (small tables are used whole).
  int64_t min_sample_rows = 256;
  /// Cap so the O(n^2) Jenks DP stays fast.
  int64_t max_sample_rows = 2000;
  /// Attributes holding category codes rather than quantities (e.g. the
  /// gearbox / fuel-type columns of a listings table). They are one-hot
  /// encoded over their distinct sampled values, regardless of `mode`.
  std::vector<int64_t> categorical_attributes;
  /// Most-frequent categories kept per attribute; rarer values map to the
  /// shared "other" slot.
  int64_t max_categories = 32;
};

/// Algorithm 3 of the paper: converts tabular tuples into feature-rich
/// vectors for NN training.
///
/// Per attribute the encoding is `[one-hot(model bucket of x), norm(x)]`
/// where the model is a GMM (peaky distributions) and/or JKC (smooth
/// distributions); a tuple's representation concatenates its attributes'
/// encodings. Fit() learns all per-attribute models from a sample.
///
/// There is one encoding implementation, EncodeValueCodes, which writes an
/// attribute's encoding in code form: its nonzeros as (input index, value)
/// pairs, the one form the classifier trains and predicts on.
class TabularEncoder {
 public:
  /// Most codes one attribute's encoding has (kCombined).
  static constexpr int64_t kMaxAttributeCodes = 4;

  TabularEncoder() = default;
  explicit TabularEncoder(EncoderOptions options) : options_(options) {}

  /// Fits per-attribute GMM/JKC models (and the min-max fallback) on a
  /// sample of `table`.
  Status Fit(const data::Table& table, Rng* rng);

  /// Encoded width of one attribute's representation.
  int64_t AttributeWidth(int64_t attr) const;

  /// Width of a tuple projected on `attrs` (sum of attribute widths).
  int64_t ProjectedWidth(const std::vector<int64_t>& attrs) const;

  /// Codes in one attribute's encoding, fixed by its mode: 4 under
  /// kCombined (GMM bucket 1.0, GMM value, Jenks bucket 1.0, Jenks value),
  /// 2 under kGmmOnly and kJenksOnly, 1 under kMinMaxOnly and kCategorical
  /// (the known value's slot or "other", 1.0).
  int64_t AttributeCodeCount(int64_t attr) const;

  /// Codes per tuple projected on `attrs` (sum of AttributeCodeCount).
  int64_t ProjectedCodeCount(const std::vector<int64_t>& attrs) const;

  /// The per-value encoder: writes AttributeCodeCount(attr) codes of raw
  /// value x of attribute `attr` to `out`, indices ascending from `offset`
  /// (the attribute's first input in the tuple), and returns one past the
  /// last. Every input of the attribute that no code names is a one-hot
  /// slot holding exactly +0.0; within-bucket values are codes even when
  /// they are zero or NaN.
  Code* EncodeValueCodes(int64_t attr, double x, int64_t offset,
                         Code* out) const;

  /// Encodes raw subspace points (`points[k][j]` is the value of attribute
  /// `attrs[j]`) into code rows: row k of `*out` is point k's
  /// ProjectedCodeCount(attrs) codes, indices ascending within its
  /// ProjectedWidth(attrs) inputs. `*out` is resized and keeps its
  /// capacity, so a reused buffer stops allocating. Returns the rows as a
  /// view of `*out`. Point widths are LTE_CHECKed.
  CodeRows EncodePointsCodesInto(const std::vector<int64_t>& attrs,
                                 std::span<const std::vector<double>> points,
                                 std::vector<Code>* out) const;

  /// The one dense encoder left, kept only for block-by-block replays
  /// (ExplorationSession::ScoreEncodedBlock): EncodeGatheredCodesInto's
  /// rows expanded into `*out`, row-major, +0.0 where a row has no code.
  void EncodeGatheredInto(const std::vector<data::ColumnView>& columns,
                          const std::vector<int64_t>& attrs,
                          std::span<const int64_t> rows,
                          std::vector<double>* out) const;

  /// Block encode, the block scan's: as EncodePointsCodesInto, but the
  /// values of tuple k are row `rows[k]` of the segment-spanning views
  /// `columns[j]` of attributes `attrs[j]` (`Table::View`).
  CodeRows EncodeGatheredCodesInto(const std::vector<data::ColumnView>& columns,
                                   const std::vector<int64_t>& attrs,
                                   std::span<const int64_t> rows,
                                   std::vector<Code>* out) const;

  bool fitted() const { return fitted_; }
  const EncoderOptions& options() const { return options_; }
  /// The min-max fallback, fitted on the whole table Fit was given.
  const MinMaxNormalizer& normalizer() const { return normalizer_; }
  /// Attribute `attr`'s fitted GMM and Jenks breaks (empty where its mode
  /// does not use them).
  const GaussianMixture& gmm(int64_t attr) const;
  const JenksBreaks& jenks(int64_t attr) const;

  /// The encoding mode actually used for `attr` (only differs from
  /// options().mode under kAuto).
  EncodingMode AttributeMode(int64_t attr) const;

  /// Serialization (model persistence): options, per-attribute models, and
  /// resolved modes.
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  Status FitCategorical(int64_t attr, const std::vector<double>& values);

  EncoderOptions options_;
  bool fitted_ = false;
  int64_t num_attributes_ = 0;
  MinMaxNormalizer normalizer_;
  std::vector<GaussianMixture> gmms_;       // Indexed by attribute.
  std::vector<JenksBreaks> jenks_;          // Indexed by attribute.
  std::vector<EncodingMode> attr_modes_;    // Resolved per-attribute mode.
  /// Kept category values (sorted) for kCategorical attributes; empty
  /// elsewhere.
  std::vector<std::vector<double>> categories_;
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_TABULAR_ENCODER_H_
