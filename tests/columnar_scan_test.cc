// Byte-identity property tests for the block scan: the scan behind
// PredictRows/RetrieveMatches must produce exactly the same bytes as the
// per-row PredictRow oracle — for every variant, at any thread count, for
// ragged block boundaries, and under retrieval limits. The argument for why
// this holds is in DESIGN.md §2b "Columnar serving path"; this file is the
// enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"

namespace lte::core {
namespace {

ExplorerOptions SmallExplorerOptions() {
  ExplorerOptions opt;
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
  opt.trainer.global_lr = 0.1;
  opt.online_steps = 25;
  opt.online_lr = 0.2;
  opt.encoder.num_gmm_components = 3;
  opt.encoder.num_jenks_intervals = 3;
  return opt;
}

class ColumnarScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    // 4000 rows: three full 1024-row blocks plus a ragged 928-row tail, so
    // every scan below crosses uneven block boundaries.
    table_ = data::MakeBlobs(4000, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(table_, subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());
  }

  // Simulated user: interesting iff the subspace point's first coordinate is
  // below a fixed fraction of that attribute's range.
  std::vector<std::vector<double>> UserLabels() const {
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + 0.45 * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  // The oracle: one PredictRow per materialized table row, sharing no
  // batching machinery with the block scan.
  std::vector<double> OraclePredictions(const ExplorationSession& session,
                                        const std::vector<int64_t>& rows) {
    std::vector<double> out;
    for (const int64_t r : rows) {
      const std::optional<double> p = session.PredictRow(table_.Row(r));
      EXPECT_TRUE(p.has_value());
      out.push_back(p.value_or(-1.0));
    }
    return out;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

// A default-constructed session (automatic lane count) scans the whole
// table through the block scan with the oracle's bytes.
TEST_F(ColumnarScanTest, ColumnarIsDefault) {
  ExplorationSession session(model_);
  Rng rng(3);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMetaStar, &rng).ok());
  std::vector<int64_t> rows(static_cast<size_t>(table_.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> columnar;
  ASSERT_TRUE(session.PredictRows(table_, rows, &columnar).ok());
  EXPECT_EQ(columnar, OraclePredictions(session, rows));
}

// The core property: for every variant and thread count, PredictRows and
// RetrieveMatches return the same bytes as the per-row oracle — over the
// whole ragged table, over subsets whose sizes are not multiples of the
// block size, and over non-contiguous row selections.
TEST_F(ColumnarScanTest, PathsAreByteIdentical) {
  const Variant variants[] = {Variant::kBasic, Variant::kMeta,
                              Variant::kMetaStar};
  const int64_t thread_counts[] = {1, 4};
  // All rows (ragged tail), a prime-sized prefix (ragged everywhere), and a
  // strided selection (exercises gathers from non-contiguous rows).
  std::vector<std::vector<int64_t>> row_sets;
  row_sets.emplace_back(table_.num_rows());
  std::iota(row_sets.back().begin(), row_sets.back().end(), 0);
  row_sets.emplace_back(1531);
  std::iota(row_sets.back().begin(), row_sets.back().end(), 37);
  row_sets.emplace_back();
  for (int64_t r = 1; r < table_.num_rows(); r += 7) {
    row_sets.back().push_back(r);
  }

  for (const Variant variant : variants) {
    for (const int64_t threads : thread_counts) {
      SCOPED_TRACE(testing::Message()
                   << "variant=" << static_cast<int>(variant)
                   << " threads=" << threads);
      ExplorationSession session(model_, threads);
      Rng rng(99);
      ASSERT_TRUE(session.StartExploration(UserLabels(), variant, &rng).ok());
      const std::vector<double> oracle =
          OraclePredictions(session, row_sets[0]);

      for (size_t i = 0; i < row_sets.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "row_set=" << i);
        std::vector<double> columnar;
        ASSERT_TRUE(session.PredictRows(table_, row_sets[i], &columnar).ok());
        std::vector<double> expected;
        for (const int64_t r : row_sets[i]) {
          expected.push_back(oracle[static_cast<size_t>(r)]);
        }
        // Exact 0.0/1.0 equality — no tolerance.
        EXPECT_EQ(columnar, expected);
        // Sanity: the scan found both classes (a degenerate all-0/all-1
        // prediction would make the identity check vacuous).
        if (i == 0) {
          const double ones =
              std::accumulate(columnar.begin(), columnar.end(), 0.0);
          EXPECT_GT(ones, 0.0);
          EXPECT_LT(ones, static_cast<double>(columnar.size()));
        }
      }

      for (const int64_t limit : {-1, 0, 1, 7, 100, 5000}) {
        SCOPED_TRACE(testing::Message() << "limit=" << limit);
        std::vector<int64_t> columnar;
        ASSERT_TRUE(session.RetrieveMatches(table_, limit, &columnar).ok());
        // The oracle's first `limit` matches in row order.
        std::vector<int64_t> expected;
        for (int64_t r = 0; r < table_.num_rows(); ++r) {
          if (limit >= 0 && static_cast<int64_t>(expected.size()) >= limit) {
            break;
          }
          if (oracle[static_cast<size_t>(r)] > 0.5) expected.push_back(r);
        }
        EXPECT_EQ(columnar, expected);
        // Matches are ascending row ids.
        EXPECT_TRUE(
            std::is_sorted(columnar.begin(), columnar.end()));
        if (limit >= 0) {
          EXPECT_LE(static_cast<int64_t>(columnar.size()), limit);
        }
      }
    }
  }
}

// A single-threaded Meta* scan of a prefix agrees with the scalar PredictRow
// API row by row.
TEST_F(ColumnarScanTest, BlockScanAgreesWithScalarPredictRow) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMetaStar, &rng).ok());
  std::vector<int64_t> rows(300);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> batch;
  ASSERT_TRUE(session.PredictRows(table_, rows, &batch).ok());
  for (const int64_t r : rows) {
    const std::optional<double> scalar = session.PredictRow(table_.Row(r));
    ASSERT_TRUE(scalar.has_value());
    EXPECT_EQ(batch[static_cast<size_t>(r)], *scalar) << "row " << r;
  }
}

// Tiny tables (smaller than one block) and single-row scans go through the
// same block machinery; they must behave too.
TEST_F(ColumnarScanTest, SmallAndSingleRowScans) {
  ExplorationSession session(model_);
  Rng rng(11);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMeta, &rng).ok());
  for (const std::vector<int64_t>& rows :
       {std::vector<int64_t>{0}, std::vector<int64_t>{3999},
        std::vector<int64_t>{5, 5, 5}}) {
    std::vector<double> columnar;
    ASSERT_TRUE(session.PredictRows(table_, rows, &columnar).ok());
    EXPECT_EQ(columnar, OraclePredictions(session, rows));
  }
  std::vector<double> empty;
  ASSERT_TRUE(session.PredictRows(table_, {}, &empty).ok());
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace lte::core
