#ifndef LTE_COMMON_CODES_H_
#define LTE_COMMON_CODES_H_

#include <cstdint>
#include <span>

namespace lte {

/// One input of an encoded tuple in code form: its input index and its
/// value, which may itself be zero. A tuple's dense encoding is +0.0 at
/// every input no code names; a full-width code row names every input.
struct Code {
  int64_t index = 0;
  double value = 0.0;

  bool operator==(const Code&) const = default;
};

/// A block of code-form tuples: row k is `codes[k * per_row, (k + 1) *
/// per_row)`, indices ascending. Every row of a block has the same number
/// of codes (the encoder writes a fixed count per attribute).
struct CodeRows {
  std::span<const Code> codes;
  int64_t per_row = 0;

  int64_t num_rows() const {
    return per_row > 0 ? static_cast<int64_t>(codes.size()) / per_row : 0;
  }
  std::span<const Code> row(int64_t k) const {
    return codes.subspan(static_cast<size_t>(k * per_row),
                         static_cast<size_t>(per_row));
  }
};

}  // namespace lte

#endif  // LTE_COMMON_CODES_H_
