// Live-table (segmented append) test battery: data::Table::AppendRows seals
// immutable segments behind previously vended views, and the block scan
// treats a segmented table exactly like the monolithic table holding the
// same rows. The argument for why appends are invisible to readers is in
// DESIGN.md §2e "Live tables & model epochs"; this file is the enforcement:
//
//  * Segment mechanics: atomic batch publication, base freeze, view
//    stability across later appends, snapshot prefixes.
//  * Byte-identity: ragged appends whose boundaries fall mid-block must
//    produce byte-identical PredictRows / RetrieveMatches against the
//    monolithic twin at thread counts {1, 4}, and match the per-row
//    PredictRow oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
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

// ---------------------------------------------------------------------------
// Byte-identity of the scan paths over segment boundaries.

core::ExplorerOptions SmallExplorerOptions() {
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 30;
  opt.task_gen.k_s = 10;
  opt.task_gen.k_q = 30;
  opt.task_gen.delta = 5;
  opt.task_gen.alpha = 2;
  opt.task_gen.psi = 8;
  opt.learner.embedding_size = 12;
  opt.learner.clf_hidden = {12};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 25;
  opt.trainer.epochs = 3;
  opt.trainer.task_batch_size = 10;
  opt.trainer.local_steps = 6;
  opt.trainer.local_lr = 0.2;
  opt.online_steps = 25;
  opt.online_lr = 0.2;
  opt.encoder.num_gmm_components = 3;
  opt.encoder.num_jenks_intervals = 3;
  return opt;
}

class LiveTableScanTest : public ::testing::Test {
 protected:
  // One pretrain for the suite: scans are read-only against the model.
  static void SetUpTestSuite() {
    Rng rng(23);
    // 4000 rows: three full 1024-row serving blocks plus a ragged tail.
    monolithic_ = new data::Table(data::MakeBlobs(4000, 4, 5, &rng));
    subspaces_ = new std::vector<data::Subspace>{data::Subspace{{0, 1}},
                                                 data::Subspace{{2, 3}}};
    model_ =
        std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(*monolithic_, *subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());

    // The segmented twin: the same 4000 rows, but rows [2500, 4000) arrive
    // as ragged appends — 37 rows (mid-block), 1024 (exactly one block,
    // offset so its edges straddle two serving blocks), then 439.
    live_ = new data::Table(monolithic_->SnapshotPrefix(2500));
    int64_t next = 2500;
    for (const int64_t batch_rows : {int64_t{37}, int64_t{1024}, int64_t{439}}) {
      std::vector<std::vector<double>> batch;
      for (int64_t i = 0; i < batch_rows; ++i) {
        batch.push_back(monolithic_->Row(next++));
      }
      ASSERT_TRUE(live_->AppendRows(batch).ok());
    }
    ASSERT_EQ(live_->num_rows(), monolithic_->num_rows());
    ASSERT_EQ(live_->num_segments(), 3);
  }

  static void TearDownTestSuite() {
    delete live_;
    live_ = nullptr;
    model_.reset();
    delete subspaces_;
    subspaces_ = nullptr;
    delete monolithic_;
    monolithic_ = nullptr;
  }

  static std::vector<std::vector<double>> UserLabels() {
    std::vector<std::vector<double>> labels(subspaces_->size());
    for (size_t s = 0; s < subspaces_->size(); ++s) {
      const data::Column& col =
          monolithic_->column((*subspaces_)[s].attribute_indices[0]);
      const double threshold = col.min() + 0.45 * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  static data::Table* monolithic_;
  static data::Table* live_;
  static std::vector<data::Subspace>* subspaces_;
  static std::shared_ptr<core::ExplorationModel> model_;
};

data::Table* LiveTableScanTest::monolithic_ = nullptr;
data::Table* LiveTableScanTest::live_ = nullptr;
std::vector<data::Subspace>* LiveTableScanTest::subspaces_ = nullptr;
std::shared_ptr<core::ExplorationModel> LiveTableScanTest::model_;

// The tentpole property: a segmented table is indistinguishable from its
// monolithic twin — byte for byte — at 1 and 4 threads, for all three
// variants, including row selections that cross the append boundary and
// both segment seams. The seam rows also match the per-row PredictRow
// oracle.
TEST_F(LiveTableScanTest, SegmentedScanByteIdenticalToMonolithic) {
  std::vector<int64_t> all_rows(static_cast<size_t>(monolithic_->num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  // Rows hugging the base/append boundary (2500) and both segment seams
  // (2537, 3561), plus duplicates.
  const std::vector<int64_t> seams = {0,    2499, 2500, 2501, 2536, 2537,
                                      2538, 3560, 3561, 3561, 3999, 42};
  const core::Variant variants[] = {core::Variant::kBasic,
                                    core::Variant::kMeta,
                                    core::Variant::kMetaStar};
  for (const core::Variant variant : variants) {
    for (const int64_t threads : {1, 4}) {
      core::ExplorationSession session(model_, threads);
      Rng rng(1000);
      ASSERT_TRUE(session.StartExploration(UserLabels(), variant, &rng).ok());
      for (const std::vector<int64_t>& rows : {all_rows, seams}) {
        std::vector<double> mono_preds;
        std::vector<double> live_preds;
        ASSERT_TRUE(session.PredictRows(*monolithic_, rows, &mono_preds).ok());
        ASSERT_TRUE(session.PredictRows(*live_, rows, &live_preds).ok());
        EXPECT_EQ(mono_preds, live_preds);
      }
      std::vector<double> live_preds;
      ASSERT_TRUE(session.PredictRows(*live_, seams, &live_preds).ok());
      for (size_t i = 0; i < seams.size(); ++i) {
        EXPECT_EQ(live_preds[i],
                  session.PredictRow(live_->Row(seams[i])).value_or(-1.0))
            << "row " << seams[i];
      }
      std::vector<int64_t> mono_matches;
      std::vector<int64_t> live_matches;
      ASSERT_TRUE(
          session.RetrieveMatches(*monolithic_, -1, &mono_matches).ok());
      ASSERT_TRUE(session.RetrieveMatches(*live_, -1, &live_matches).ok());
      EXPECT_EQ(mono_matches, live_matches);
      ASSERT_TRUE(
          session.RetrieveMatches(*monolithic_, 100, &mono_matches).ok());
      ASSERT_TRUE(session.RetrieveMatches(*live_, 100, &live_matches).ok());
      EXPECT_EQ(mono_matches, live_matches);
    }
  }
}

// The refresh worker's rebuild input: pretraining on a full-table
// SnapshotPrefix of the segmented twin reproduces the monolithic pretrain
// bit for bit (same rows, same seed => same fingerprint).
TEST_F(LiveTableScanTest, PretrainOnSnapshotPrefixIsByteIdentical) {
  const data::Table snapshot = live_->SnapshotPrefix(live_->num_rows());
  core::ExplorationModel from_snapshot(SmallExplorerOptions());
  Rng rng(23);
  ASSERT_TRUE(from_snapshot
                  .Pretrain(snapshot, *subspaces_, /*train_meta=*/true, &rng)
                  .ok());
  EXPECT_EQ(from_snapshot.fingerprint(), model_->fingerprint());
}

}  // namespace
}  // namespace lte::data
