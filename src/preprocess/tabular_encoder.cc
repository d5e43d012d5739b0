#include "preprocess/tabular_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

#include "common/check.h"
#include "common/math_util.h"
#include "data/sampling.h"

namespace lte::preprocess {
namespace {

// Auto-mode heuristic (paper Section VII-A): GMM suits unimodal/multimodal
// "peaky" marginals; JKC suits smooth trend-like marginals. A marginal is
// peaky when two *adjacent* substantial mixture components (sorted by mean)
// are separated by a density valley — the gap between their means exceeds
// the sum of their spreads. Only adjacent pairs matter: in a smooth
// distribution the components tile the range, so non-adjacent pairs are far
// apart without any valley between them. (A pure likelihood-gain test
// misfires for the same reason: a uniform ramp also gains likelihood from
// extra overlapping components.)
bool MixtureIsPeaky(const GaussianMixture& gmm) {
  constexpr double kMinWeight = 0.10;
  constexpr double kSeparationSigmas = 2.5;
  std::vector<GaussianComponent> comps;
  for (const GaussianComponent& c : gmm.components()) {
    if (c.weight >= kMinWeight) comps.push_back(c);
  }
  std::sort(comps.begin(), comps.end(),
            [](const GaussianComponent& a, const GaussianComponent& b) {
              return a.mean < b.mean;
            });
  for (size_t i = 0; i + 1 < comps.size(); ++i) {
    const double gap = comps[i + 1].mean - comps[i].mean;
    const double spread =
        kSeparationSigmas *
        (std::sqrt(comps[i].variance) + std::sqrt(comps[i + 1].variance));
    if (gap > spread) return true;
  }
  return false;
}

}  // namespace

Status TabularEncoder::Fit(const data::Table& table, Rng* rng) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("encoder: empty table");
  }
  num_attributes_ = table.num_columns();
  LTE_RETURN_IF_ERROR(normalizer_.Fit(table));

  // Sample rows once; all per-attribute models share the sample.
  int64_t sample_size = static_cast<int64_t>(
      options_.sample_fraction * static_cast<double>(table.num_rows()));
  sample_size = std::max(sample_size, options_.min_sample_rows);
  sample_size = std::min(sample_size, options_.max_sample_rows);
  sample_size = std::min(sample_size, table.num_rows());
  const std::vector<int64_t> rows =
      data::SampleRowIndices(table, sample_size, rng);

  gmms_.assign(static_cast<size_t>(num_attributes_), GaussianMixture{});
  jenks_.assign(static_cast<size_t>(num_attributes_), JenksBreaks{});
  attr_modes_.assign(static_cast<size_t>(num_attributes_), options_.mode);
  categories_.assign(static_cast<size_t>(num_attributes_), {});

  for (int64_t a = 0; a < num_attributes_; ++a) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (int64_t r : rows) values.push_back(table.column(a).value(r));

    if (std::find(options_.categorical_attributes.begin(),
                  options_.categorical_attributes.end(),
                  a) != options_.categorical_attributes.end()) {
      LTE_RETURN_IF_ERROR(FitCategorical(a, values));
      continue;
    }

    const bool need_gmm = options_.mode == EncodingMode::kGmmOnly ||
                          options_.mode == EncodingMode::kCombined ||
                          options_.mode == EncodingMode::kAuto;
    const bool need_jenks = options_.mode == EncodingMode::kJenksOnly ||
                            options_.mode == EncodingMode::kCombined ||
                            options_.mode == EncodingMode::kAuto;
    if (need_gmm) {
      LTE_RETURN_IF_ERROR(
          gmms_[static_cast<size_t>(a)].Fit(values,
                                            options_.num_gmm_components, rng));
    }
    if (need_jenks) {
      LTE_RETURN_IF_ERROR(jenks_[static_cast<size_t>(a)].Fit(
          values, options_.num_jenks_intervals));
    }
    if (options_.mode == EncodingMode::kAuto) {
      attr_modes_[static_cast<size_t>(a)] =
          MixtureIsPeaky(gmms_[static_cast<size_t>(a)])
              ? EncodingMode::kGmmOnly
              : EncodingMode::kJenksOnly;
    }
  }
  fitted_ = true;
  return Status::OK();
}

Status TabularEncoder::FitCategorical(int64_t attr,
                                      const std::vector<double>& values) {
  if (options_.max_categories <= 0) {
    return Status::InvalidArgument("encoder: max_categories must be > 0");
  }
  std::map<double, int64_t> counts;
  for (double v : values) ++counts[v];
  // Keep the most frequent values, then store them sorted for binary search.
  std::vector<std::pair<int64_t, double>> by_freq;
  by_freq.reserve(counts.size());
  for (const auto& [value, count] : counts) by_freq.push_back({count, value});
  std::sort(by_freq.begin(), by_freq.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (static_cast<int64_t>(by_freq.size()) > options_.max_categories) {
    by_freq.resize(static_cast<size_t>(options_.max_categories));
  }
  std::vector<double>& cats = categories_[static_cast<size_t>(attr)];
  cats.clear();
  for (const auto& [count, value] : by_freq) cats.push_back(value);
  std::sort(cats.begin(), cats.end());
  attr_modes_[static_cast<size_t>(attr)] = EncodingMode::kCategorical;
  return Status::OK();
}

EncodingMode TabularEncoder::AttributeMode(int64_t attr) const {
  LTE_CHECK(fitted_);
  LTE_CHECK_GE(attr, 0);
  LTE_CHECK_LT(attr, num_attributes_);
  return attr_modes_[static_cast<size_t>(attr)];
}

const GaussianMixture& TabularEncoder::gmm(int64_t attr) const {
  LTE_CHECK(fitted_);
  LTE_CHECK(attr >= 0 && attr < num_attributes_);
  return gmms_[static_cast<size_t>(attr)];
}

const JenksBreaks& TabularEncoder::jenks(int64_t attr) const {
  LTE_CHECK(fitted_);
  LTE_CHECK(attr >= 0 && attr < num_attributes_);
  return jenks_[static_cast<size_t>(attr)];
}

int64_t TabularEncoder::AttributeWidth(int64_t attr) const {
  switch (AttributeMode(attr)) {
    case EncodingMode::kMinMaxOnly:
      return 1;
    case EncodingMode::kGmmOnly:
      return options_.num_gmm_components + 1;
    case EncodingMode::kJenksOnly:
      return options_.num_jenks_intervals + 1;
    case EncodingMode::kCombined:
      return options_.num_gmm_components + options_.num_jenks_intervals + 2;
    case EncodingMode::kCategorical:
      // +1 for the "other" slot.
      return static_cast<int64_t>(
                 categories_[static_cast<size_t>(attr)].size()) +
             1;
    case EncodingMode::kAuto:
      break;  // Resolved at Fit time; unreachable.
  }
  LTE_CHECK_MSG(false, "unresolved encoding mode");
  return 0;
}

int64_t TabularEncoder::ProjectedWidth(
    const std::vector<int64_t>& attrs) const {
  int64_t w = 0;
  for (int64_t a : attrs) w += AttributeWidth(a);
  return w;
}

int64_t TabularEncoder::AttributeCodeCount(int64_t attr) const {
  switch (AttributeMode(attr)) {
    case EncodingMode::kMinMaxOnly:
    case EncodingMode::kCategorical:
      return 1;
    case EncodingMode::kGmmOnly:
    case EncodingMode::kJenksOnly:
      return 2;
    case EncodingMode::kCombined:
      return 4;
    case EncodingMode::kAuto:
      break;  // Resolved at Fit time; unreachable.
  }
  LTE_CHECK_MSG(false, "unresolved encoding mode");
  return 0;
}

int64_t TabularEncoder::ProjectedCodeCount(
    const std::vector<int64_t>& attrs) const {
  int64_t n = 0;
  for (int64_t a : attrs) n += AttributeCodeCount(a);
  return n;
}

Code* TabularEncoder::EncodeValueCodes(int64_t attr, double x, int64_t offset,
                                       Code* out) const {
  const EncodingMode mode = AttributeMode(attr);
  if (mode == EncodingMode::kMinMaxOnly) {
    *out++ = {offset, normalizer_.Transform(attr, x)};
    return out;
  }
  const auto a = static_cast<size_t>(attr);
  if (mode == EncodingMode::kCategorical) {
    // The known value's slot, or "other" after the last category.
    const std::vector<double>& cats = categories_[a];
    const auto it = std::lower_bound(cats.begin(), cats.end(), x);
    const bool known = it != cats.end() && *it == x;
    const auto slot = known ? it - cats.begin()
                            : static_cast<std::ptrdiff_t>(cats.size());
    *out++ = {offset + slot, 1.0};
    return out;
  }
  if (mode == EncodingMode::kGmmOnly || mode == EncodingMode::kCombined) {
    const GaussianMixture& gmm = gmms_[a];
    const int64_t c = gmm.MostLikelyComponent(x);
    *out++ = {offset + c, 1.0};
    *out++ = {offset + gmm.num_components(), gmm.NormalizeWithin(c, x)};
    offset += gmm.num_components() + 1;
  }
  if (mode == EncodingMode::kJenksOnly || mode == EncodingMode::kCombined) {
    const JenksBreaks& jenks = jenks_[a];
    const int64_t b = jenks.IntervalOf(x);
    *out++ = {offset + b, 1.0};
    *out++ = {offset + jenks.num_intervals(), jenks.NormalizeWithin(b, x)};
  }
  return out;
}

CodeRows TabularEncoder::EncodePointsCodesInto(
    const std::vector<int64_t>& attrs,
    std::span<const std::vector<double>> points,
    std::vector<Code>* out) const {
  const int64_t per_row = ProjectedCodeCount(attrs);
  out->resize(points.size() * static_cast<size_t>(per_row));
  Code* codes = out->data();
  for (const std::vector<double>& point : points) {
    LTE_CHECK_EQ(point.size(), attrs.size());
    int64_t offset = 0;  // Attribute j's first input in the tuple.
    for (size_t j = 0; j < attrs.size(); ++j) {
      codes = EncodeValueCodes(attrs[j], point[j], offset, codes);
      offset += AttributeWidth(attrs[j]);
    }
  }
  return CodeRows{*out, per_row};
}

void TabularEncoder::EncodeGatheredInto(
    const std::vector<data::ColumnView>& columns,
    const std::vector<int64_t>& attrs, std::span<const int64_t> rows,
    std::vector<double>* out) const {
  std::vector<Code> codes;
  const CodeRows block = EncodeGatheredCodesInto(columns, attrs, rows, &codes);
  const auto width = static_cast<size_t>(ProjectedWidth(attrs));
  out->assign(rows.size() * width, 0.0);
  for (size_t k = 0; k < rows.size(); ++k) {
    for (const Code& c : block.row(static_cast<int64_t>(k))) {
      (*out)[k * width + static_cast<size_t>(c.index)] = c.value;
    }
  }
}

CodeRows TabularEncoder::EncodeGatheredCodesInto(
    const std::vector<data::ColumnView>& columns,
    const std::vector<int64_t>& attrs, std::span<const int64_t> rows,
    std::vector<Code>* out) const {
  LTE_CHECK_EQ(columns.size(), attrs.size());
  const int64_t per_row = ProjectedCodeCount(attrs);
  // Every slot is overwritten below; resizing only value-initializes growth.
  out->resize(rows.size() * static_cast<size_t>(per_row));
  // Attribute by attribute, each value's codes into its row's slots.
  Code* codes = out->data();
  int64_t offset = 0;  // Attribute j's first input in the tuple.
  int64_t first = 0;   // Attribute j's first code in a row.
  for (size_t j = 0; j < attrs.size(); ++j) {
    const int64_t a = attrs[j];
    const data::ColumnView& column = columns[j];
    for (size_t k = 0; k < rows.size(); ++k) {
      EncodeValueCodes(a, column[rows[k]], offset,
                       codes + static_cast<int64_t>(k) * per_row + first);
    }
    offset += AttributeWidth(a);
    first += AttributeCodeCount(a);
  }
  return CodeRows{*out, per_row};
}

void TabularEncoder::Save(BinaryWriter* writer) const {
  LTE_CHECK_MSG(fitted_, "encoder: Save before Fit");
  writer->WriteI64(static_cast<int64_t>(options_.mode));
  writer->WriteI64(options_.num_gmm_components);
  writer->WriteI64(options_.num_jenks_intervals);
  writer->WriteDouble(options_.sample_fraction);
  writer->WriteI64(options_.min_sample_rows);
  writer->WriteI64(options_.max_sample_rows);
  writer->WriteI64(num_attributes_);
  normalizer_.Save(writer);
  for (int64_t a = 0; a < num_attributes_; ++a) {
    gmms_[static_cast<size_t>(a)].Save(writer);
    jenks_[static_cast<size_t>(a)].Save(writer);
    writer->WriteI64(static_cast<int64_t>(attr_modes_[static_cast<size_t>(a)]));
    writer->WriteDoubleVector(categories_[static_cast<size_t>(a)]);
  }
}

Status TabularEncoder::Load(BinaryReader* reader) {
  int64_t mode = 0;
  LTE_RETURN_IF_ERROR(reader->ReadI64(&mode));
  if (mode < 0 || mode > static_cast<int64_t>(EncodingMode::kAuto)) {
    return Status::IoError("encoder load: invalid mode");
  }
  options_.mode = static_cast<EncodingMode>(mode);
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.num_gmm_components));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.num_jenks_intervals));
  LTE_RETURN_IF_ERROR(reader->ReadDouble(&options_.sample_fraction));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.min_sample_rows));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.max_sample_rows));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&num_attributes_));
  if (num_attributes_ <= 0) {
    return Status::IoError("encoder load: invalid attribute count");
  }
  LTE_RETURN_IF_ERROR(normalizer_.Load(reader));
  // Also bounds the per-attribute tables below by the bytes actually read.
  if (normalizer_.num_attributes() != num_attributes_) {
    return Status::IoError("encoder load: normalizer width mismatch");
  }
  gmms_.assign(static_cast<size_t>(num_attributes_), GaussianMixture{});
  jenks_.assign(static_cast<size_t>(num_attributes_), JenksBreaks{});
  attr_modes_.assign(static_cast<size_t>(num_attributes_), options_.mode);
  categories_.assign(static_cast<size_t>(num_attributes_), {});
  for (int64_t a = 0; a < num_attributes_; ++a) {
    LTE_RETURN_IF_ERROR(gmms_[static_cast<size_t>(a)].Load(reader));
    LTE_RETURN_IF_ERROR(jenks_[static_cast<size_t>(a)].Load(reader));
    int64_t attr_mode = 0;
    LTE_RETURN_IF_ERROR(reader->ReadI64(&attr_mode));
    if (attr_mode < 0 ||
        attr_mode > static_cast<int64_t>(EncodingMode::kCategorical)) {
      return Status::IoError("encoder load: invalid attribute mode");
    }
    const auto m = static_cast<EncodingMode>(attr_mode);
    attr_modes_[static_cast<size_t>(a)] = m;
    // AttributeWidth sizes an attribute by the options' bucket counts, so
    // the models its mode encodes with must have exactly that many.
    const bool uses_gmm =
        m == EncodingMode::kGmmOnly || m == EncodingMode::kCombined;
    const bool uses_jenks =
        m == EncodingMode::kJenksOnly || m == EncodingMode::kCombined;
    if ((uses_gmm && gmms_[static_cast<size_t>(a)].num_components() !=
                         options_.num_gmm_components) ||
        (uses_jenks && jenks_[static_cast<size_t>(a)].num_intervals() !=
                           options_.num_jenks_intervals)) {
      return Status::IoError("encoder load: bucket count mismatch");
    }
    LTE_RETURN_IF_ERROR(
        reader->ReadDoubleVector(&categories_[static_cast<size_t>(a)]));
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace lte::preprocess
