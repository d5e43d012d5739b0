#ifndef LTE_DATA_TABLE_H_
#define LTE_DATA_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/column_view.h"

namespace lte::data {

/// An in-memory columnar table: the exploratory database substrate.
///
/// All LTE components consume tuples (rows) or attribute columns from a
/// `Table`. Columns are equal-length and numeric. Fallible mutation returns
/// `Status`; accessors with index arguments check bounds via invariant checks
/// because out-of-range access is a programmer error, not an input error.
///
/// Live tables (DESIGN.md §2e): a table has a mutable *base* segment built
/// row-by-row (`AppendRow`, CSV load) plus zero or more **sealed, immutable
/// append segments** added in one shot by `AppendRows`. Sealing the first
/// segment freezes the base: every previously vended view (`View`, a
/// column's `AsSpan`) stays valid forever after, and further `AppendRow` /
/// `AddColumn` calls fail. The single-writer/many-reader contract is:
/// one thread appends via `AppendRows` while any number of threads read rows
/// `< num_rows()` through `View`/`Row`/the scan paths — readers never
/// observe a partially appended batch because `num_rows()` is published
/// after the segment is sealed. Copying/assigning a table is not
/// thread-safe against a concurrent appender.
class Table {
 public:
  Table() = default;

  /// Creates a table with the given attribute names and no rows.
  explicit Table(const std::vector<std::string>& attribute_names);

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  int64_t num_rows() const {
    return num_rows_.load(std::memory_order_acquire);
  }
  int64_t num_columns() const { return static_cast<int64_t>(columns_.size()); }

  /// The base segment of column `i` (name, min/max, the rows loaded before
  /// the first `AppendRows`). Appended rows are not reachable through it —
  /// use `View(i)` for the full row space.
  const Column& column(int64_t i) const;

  /// Segment-spanning snapshot view of column `i`: addresses every row
  /// `< num_rows()` at creation time by global row id, stays valid and
  /// stable while the table keeps appending (shared ownership of the sealed
  /// segments). The columnar serving path gathers attribute data through
  /// these views, one subspace at a time, instead of materializing rows.
  ColumnView View(int64_t i) const;

  /// All attribute names, in column order.
  std::vector<std::string> AttributeNames() const;

  /// Index of the column named `name`, or -1 if absent.
  int64_t ColumnIndex(const std::string& name) const;

  /// Appends a full-width row to the base segment. Fails if row width !=
  /// num_columns() or a sealed segment exists (live tables grow only through
  /// `AppendRows`, so vended views stay valid).
  Status AppendRow(const std::vector<double>& row);

  /// Live-append path: seals `rows` into one immutable segment and publishes
  /// it atomically — concurrent readers either see all of the batch (row ids
  /// `[old num_rows, old num_rows + rows.size())`) or none of it, and every
  /// previously vended view stays valid. Single writer: concurrent
  /// `AppendRows` calls must be serialized by the caller. Fails (appending
  /// nothing) on a width mismatch or a column-less table; an empty batch is
  /// a no-op that seals nothing.
  Status AppendRows(const std::vector<std::vector<double>>& rows);

  /// Sealed append segments so far (0 for a static table).
  int64_t num_segments() const;

  /// Adds a fully populated column to the base segment. Fails on duplicate
  /// name, length mismatch with existing columns, or a sealed segment.
  Status AddColumn(Column column);

  /// The `row`-th tuple as a dense vector in column order.
  std::vector<double> Row(int64_t row) const;

  /// Projection of the `row`-th tuple onto the given column indices.
  std::vector<double> RowProjected(int64_t row,
                                   const std::vector<int64_t>& cols) const;

  /// A new table containing only the given columns (copied; appended
  /// segments are materialized into the copy's base).
  Table Project(const std::vector<int64_t>& cols) const;

  /// A new table containing only the given rows (copied).
  Table SelectRows(const std::vector<int64_t>& rows) const;

  /// A monolithic (single-segment) copy of rows [0, n): the deterministic
  /// input of a background model rebuild — the refresh worker snapshots a
  /// row-count watermark and trains on exactly those rows, unaffected by
  /// whatever the live table appends meanwhile. Safe to call concurrently
  /// with `AppendRows`.
  Table SnapshotPrefix(int64_t n) const;

 private:
  /// One sealed batch: values[c][row - start] is column c's value at global
  /// row id `row`. Immutable after construction; shared by every directory
  /// snapshot that includes it.
  struct Segment {
    int64_t start = 0;
    int64_t rows = 0;
    std::vector<std::vector<double>> values;
  };

  /// Immutable snapshot of the segment list. Rebuilt (copy + one push_back)
  /// on every AppendRows and swapped under `dir_mu_`; readers grab the
  /// shared_ptr and read without further coordination. `slices[c]` indexes
  /// column c across all segments, ascending by start row.
  struct Directory {
    std::vector<std::shared_ptr<const Segment>> segments;
    std::vector<std::vector<ColumnSlice>> slices;
  };

  std::shared_ptr<const Directory> SnapshotDirectory() const;

  /// The segment containing global row `row` (>= base_rows_) in `dir`.
  static const Segment& SegmentFor(const Directory& dir, int64_t row);

  void CopyFrom(const Table& other);
  void MoveFrom(Table&& other);

  std::vector<Column> columns_;
  int64_t base_rows_ = 0;
  std::atomic<int64_t> num_rows_{0};
  mutable std::mutex dir_mu_;
  std::shared_ptr<const Directory> dir_;  // Null until the first AppendRows.
};

}  // namespace lte::data

#endif  // LTE_DATA_TABLE_H_
