// Live-table (segmented append) mechanics: data::Table::AppendRows seals
// immutable segments behind previously vended views — atomic batch
// publication, base freeze, view stability across later appends, snapshot
// prefixes. The argument for why appends are invisible to readers is in
// DESIGN.md §2e "Live tables & model epochs". That the block scan treats a
// segmented table exactly like the monolithic table holding the same rows
// is checked by tests/scan_differential_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "data/table.h"

namespace lte::data {
namespace {

Table TwoColumnTable() {
  Table table({"a", "b"});
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(
        table.AppendRow({static_cast<double>(r), static_cast<double>(10 + r)})
            .ok());
  }
  return table;
}

TEST(LiveTableTest, AppendRowsPublishesAtomicallyAndSpansSegments) {
  Table table = TwoColumnTable();
  EXPECT_EQ(table.num_segments(), 0);

  ASSERT_TRUE(table.AppendRows({{5.0, 15.0}, {6.0, 16.0}}).ok());
  ASSERT_TRUE(table.AppendRows({{7.0, 17.0}}).ok());
  EXPECT_EQ(table.num_rows(), 8);
  EXPECT_EQ(table.num_segments(), 2);

  // Row access routes transparently across base and both segments.
  for (int64_t r = 0; r < 8; ++r) {
    EXPECT_EQ(table.Row(r),
              (std::vector<double>{static_cast<double>(r),
                                   static_cast<double>(10 + r)}));
  }
  const std::vector<double> projected = table.RowProjected(6, {1});
  EXPECT_EQ(projected, std::vector<double>{16.0});

  // An empty batch is a no-op that seals nothing.
  ASSERT_TRUE(table.AppendRows({}).ok());
  EXPECT_EQ(table.num_segments(), 2);

  // Width mismatches fail without publishing anything.
  EXPECT_FALSE(table.AppendRows({{1.0}}).ok());
  EXPECT_FALSE(table.AppendRows({{1.0, 2.0, 3.0}}).ok());
  EXPECT_EQ(table.num_rows(), 8);
}

TEST(LiveTableTest, FirstSealFreezesTheBaseSegment) {
  Table table = TwoColumnTable();
  ASSERT_TRUE(table.AppendRow({5.0, 15.0}).ok());  // Still mutable.
  ASSERT_TRUE(table.AppendRows({{6.0, 16.0}}).ok());

  // The base is frozen: row-by-row growth and new columns are refused, so
  // every span vended before the seal stays valid forever.
  EXPECT_EQ(table.AppendRow({7.0, 17.0}).code(),
            StatusCode::kFailedPrecondition);
  Column extra("c");
  for (int64_t r = 0; r < 7; ++r) extra.Append(0.0);
  EXPECT_EQ(table.AddColumn(std::move(extra)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(table.num_rows(), 7);
}

TEST(LiveTableTest, ViewsVendedBeforeAppendStayValidAndStable) {
  Table table = TwoColumnTable();
  ASSERT_TRUE(table.AppendRows({{5.0, 15.0}}).ok());

  const ColumnView before = table.View(0);
  ASSERT_EQ(before.size(), 6);

  // Later appends must not move anything `before` addresses.
  ASSERT_TRUE(table.AppendRows({{6.0, 16.0}, {7.0, 17.0}}).ok());
  for (int64_t r = 0; r < before.size(); ++r) {
    EXPECT_EQ(before[r], static_cast<double>(r));
  }

  // A fresh view covers the appended rows too.
  const ColumnView after = table.View(0);
  ASSERT_EQ(after.size(), 8);
  EXPECT_EQ(after[7], 7.0);
}

TEST(LiveTableTest, SnapshotPrefixIsAMonolithicCopy) {
  Table table = TwoColumnTable();
  ASSERT_TRUE(table.AppendRows({{5.0, 15.0}, {6.0, 16.0}}).ok());
  ASSERT_TRUE(table.AppendRows({{7.0, 17.0}}).ok());

  // A watermark that splits the first sealed segment.
  const Table snapshot = table.SnapshotPrefix(6);
  EXPECT_EQ(snapshot.num_rows(), 6);
  EXPECT_EQ(snapshot.num_segments(), 0);
  for (int64_t r = 0; r < 6; ++r) EXPECT_EQ(snapshot.Row(r), table.Row(r));

  // The snapshot is independent: the live table keeps growing, the snapshot
  // does not.
  ASSERT_TRUE(table.AppendRows({{8.0, 18.0}}).ok());
  EXPECT_EQ(snapshot.num_rows(), 6);

  // Full-table and empty-prefix edges.
  EXPECT_EQ(table.SnapshotPrefix(table.num_rows()).num_rows(), 9);
  EXPECT_EQ(table.SnapshotPrefix(0).num_rows(), 0);
  EXPECT_EQ(table.SnapshotPrefix(0).num_columns(), 2);
}

TEST(LiveTableTest, CopiesAndProjectionsMaterializeSegments) {
  Table table = TwoColumnTable();
  ASSERT_TRUE(table.AppendRows({{5.0, 15.0}, {6.0, 16.0}}).ok());

  const Table copy = table;  // Deep copy, segment list shared structurally.
  EXPECT_EQ(copy.num_rows(), 7);
  EXPECT_EQ(copy.Row(6), table.Row(6));

  const Table projected = table.Project({1});
  EXPECT_EQ(projected.num_rows(), 7);
  EXPECT_EQ(projected.num_segments(), 0);
  EXPECT_EQ(projected.Row(6), std::vector<double>{16.0});

  const Table selected = table.SelectRows({0, 6});
  EXPECT_EQ(selected.num_rows(), 2);
  EXPECT_EQ(selected.Row(1), (std::vector<double>{6.0, 16.0}));
}

TEST(LiveTableTest, ReadersNeverObserveAPartialBatch) {
  // One writer appends batches while readers hammer num_rows()/Row(): every
  // observed row count lands on a batch boundary and every visible row is
  // fully formed. Runs under the TSan CI job.
  Table table({"a", "b"});
  for (int64_t r = 0; r < 64; ++r) {
    ASSERT_TRUE(
        table.AppendRow({static_cast<double>(r), static_cast<double>(r)})
            .ok());
  }
  constexpr int64_t kBatches = 50;
  constexpr int64_t kBatchRows = 16;

  std::vector<std::thread> readers;
  for (int64_t t = 0; t < 3; ++t) {
    readers.emplace_back([&table] {
      for (int64_t iter = 0; iter < 2000; ++iter) {
        const int64_t n = table.num_rows();
        EXPECT_EQ((n - 64) % kBatchRows, 0) << "partial batch visible";
        const std::vector<double> row = table.Row(n - 1);
        EXPECT_EQ(row[0], static_cast<double>(n - 1));
        EXPECT_EQ(row[1], row[0]);
      }
    });
  }
  for (int64_t b = 0; b < kBatches; ++b) {
    std::vector<std::vector<double>> batch;
    for (int64_t i = 0; i < kBatchRows; ++i) {
      const double v = static_cast<double>(64 + b * kBatchRows + i);
      batch.push_back({v, v});
    }
    ASSERT_TRUE(table.AppendRows(batch).ok());
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(table.num_rows(), 64 + kBatches * kBatchRows);
}

}  // namespace
}  // namespace lte::data
