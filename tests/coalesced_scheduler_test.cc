// Queue-discipline tests for the coalesced scan scheduler (src/serving/):
// the encode amortization it exists for, submission validation, Flush and
// backpressure, with real std::thread submitters. That every request gets
// the bytes its session would compute scanning alone is checked by
// tests/scan_differential_test.cc; the determinism argument is in DESIGN.md
// §2c. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "serving/coalesced_scan_scheduler.h"
#include "small_explorer_options.h"

namespace lte::serving {
namespace {

using core::SmallExplorerOptions;

class CoalescedScanSchedulerTest : public ::testing::Test {
 protected:
  // One pretrain for the whole suite: the model is immutable and every test
  // only attaches read-only sessions to it.
  static void SetUpTestSuite() {
    Rng rng(23);
    // 4000 rows: three full 1024-row blocks plus a ragged 928-row tail.
    table_ = new data::Table(data::MakeBlobs(4000, 4, 5, &rng));
    subspaces_ = new std::vector<data::Subspace>{data::Subspace{{0, 1}},
                                                 data::Subspace{{2, 3}}};
    model_ = std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(*table_, *subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());
  }

  static void TearDownTestSuite() {
    model_.reset();
    delete subspaces_;
    subspaces_ = nullptr;
    delete table_;
    table_ = nullptr;
  }

  // Simulated user `u`: interesting iff the subspace point's first
  // coordinate falls below a per-user fraction of that attribute's range,
  // so distinct users adapt to distinct regions.
  static std::vector<std::vector<double>> UserLabels(int64_t u) {
    std::vector<std::vector<double>> labels(subspaces_->size());
    for (size_t s = 0; s < subspaces_->size(); ++s) {
      const data::Column& col =
          table_->column((*subspaces_)[s].attribute_indices[0]);
      const double fraction = 0.3 + 0.08 * static_cast<double>(u % 5);
      const double threshold = col.min() + fraction * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  // A fast-adapted session for user `u`, variant cycling through all three.
  static std::unique_ptr<core::ExplorationSession> MakeSession(int64_t u) {
    const core::Variant variants[] = {core::Variant::kBasic,
                                      core::Variant::kMeta,
                                      core::Variant::kMetaStar};
    auto session = std::make_unique<core::ExplorationSession>(
        model_, /*num_threads=*/1);
    Rng rng(1000 + static_cast<uint64_t>(u));
    EXPECT_TRUE(
        session->StartExploration(UserLabels(u), variants[u % 3], &rng).ok());
    return session;
  }

  // Ragged per-session row selections: full table, a prime-sized offset
  // prefix, a strided selection, duplicates, and a single row.
  static std::vector<int64_t> RowSet(int64_t u) {
    std::vector<int64_t> rows;
    switch (u % 5) {
      case 0:
        rows.resize(static_cast<size_t>(table_->num_rows()));
        std::iota(rows.begin(), rows.end(), 0);
        break;
      case 1:
        rows.resize(1531);
        std::iota(rows.begin(), rows.end(), 37);
        break;
      case 2:
        for (int64_t r = 1; r < table_->num_rows(); r += 7) rows.push_back(r);
        break;
      case 3:
        rows = {5, 5, 2047, 5, 1024, 2047, 3999};
        break;
      default:
        rows = {1023};
        break;
    }
    return rows;
  }

  static data::Table* table_;
  static std::vector<data::Subspace>* subspaces_;
  static std::shared_ptr<core::ExplorationModel> model_;
};

data::Table* CoalescedScanSchedulerTest::table_ = nullptr;
std::vector<data::Subspace>* CoalescedScanSchedulerTest::subspaces_ = nullptr;
std::shared_ptr<core::ExplorationModel> CoalescedScanSchedulerTest::model_;

// The amortization the subsystem exists for: S sessions coalesced into one
// shared pass cost ONE gather+encode per (block, subspace) — not S.
TEST_F(CoalescedScanSchedulerTest, EncodeCostAmortizedAcrossSessions) {
  constexpr int64_t kSessions = 8;
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  std::vector<std::vector<double>> independent(kSessions);
  std::vector<int64_t> all_rows(static_cast<size_t>(table_->num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  for (int64_t u = 0; u < kSessions; ++u) {
    sessions.push_back(MakeSession(u));
    ASSERT_TRUE(sessions.back()
                    ->PredictRows(*table_, all_rows,
                                  &independent[static_cast<size_t>(u)])
                    .ok());
  }

  CoalescedScanOptions options;
  options.max_batch_requests = kSessions;  // Deterministic single batch:
  options.flush_deadline_micros = 5000000;  // flush fires at the S-th submit.
  CoalescedScanScheduler scheduler(model_, table_, options);
  std::vector<std::vector<double>> coalesced(kSessions);
  std::vector<Status> statuses(kSessions);
  {
    std::vector<std::thread> submitters;
    for (int64_t u = 0; u < kSessions; ++u) {
      submitters.emplace_back([&, u] {
        statuses[static_cast<size_t>(u)] = scheduler.PredictRows(
            *sessions[static_cast<size_t>(u)], all_rows,
            &coalesced[static_cast<size_t>(u)]);
      });
    }
    for (std::thread& t : submitters) t.join();
  }
  for (int64_t u = 0; u < kSessions; ++u) {
    ASSERT_TRUE(statuses[static_cast<size_t>(u)].ok());
    EXPECT_EQ(coalesced[static_cast<size_t>(u)],
              independent[static_cast<size_t>(u)]);
  }

  const CoalescedScanStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.largest_batch, kSessions);
  EXPECT_EQ(stats.rows_served, kSessions * table_->num_rows());
  // One shared pass: at most blocks x subspaces encode rounds, independent
  // of the session count. S independent scans would pay up to S times this.
  const int64_t num_blocks =
      (table_->num_rows() + core::kServingBlockRows - 1) /
      core::kServingBlockRows;
  EXPECT_GT(stats.encode_passes, 0);
  EXPECT_LE(stats.encode_passes, num_blocks * model_->num_subspaces());
}

// The misuse-error contract mirrors the session's: every caller mistake
// surfaces as a Status on the submitting thread, never inside a batch.
TEST_F(CoalescedScanSchedulerTest, SubmissionValidation) {
  CoalescedScanScheduler scheduler(model_, table_);
  auto session = MakeSession(0);
  std::vector<double> preds;
  std::vector<int64_t> matches;

  // Null outputs.
  EXPECT_FALSE(scheduler.PredictRows(*session, {}, nullptr).ok());
  EXPECT_FALSE(scheduler.RetrieveMatches(*session, 1, nullptr).ok());

  // Session not adapted yet.
  core::ExplorationSession unadapted(model_);
  EXPECT_FALSE(scheduler.PredictRows(unadapted, {}, &preds).ok());
  EXPECT_FALSE(scheduler.RetrieveMatches(unadapted, 1, &matches).ok());

  // Session bound to a different model.
  auto other = std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
  core::ExplorationSession foreign(other);
  EXPECT_FALSE(scheduler.PredictRows(foreign, {}, &preds).ok());

  // Out-of-range row index.
  const std::vector<int64_t> bad = {0, table_->num_rows()};
  EXPECT_FALSE(scheduler.PredictRows(*session, bad, &preds).ok());

  // Degenerate-but-valid requests complete without a shared pass.
  EXPECT_TRUE(scheduler.PredictRows(*session, {}, &preds).ok());
  EXPECT_TRUE(preds.empty());
  EXPECT_TRUE(scheduler.RetrieveMatches(*session, 0, &matches).ok());
  EXPECT_TRUE(matches.empty());
  EXPECT_EQ(scheduler.stats().batches, 0);
}

// Flush() releases a parked request without waiting out the deadline.
TEST_F(CoalescedScanSchedulerTest, FlushDrainsAParkedRequest) {
  auto session = MakeSession(0);
  std::vector<double> independent;
  const std::vector<int64_t> rows = RowSet(3);
  ASSERT_TRUE(session->PredictRows(*table_, rows, &independent).ok());

  CoalescedScanOptions options;
  options.max_batch_requests = 64;           // Never fills...
  options.flush_deadline_micros = 60000000;  // ...and the deadline is far out.
  CoalescedScanScheduler scheduler(model_, table_, options);
  std::vector<double> preds;
  Status status;
  std::thread submitter(
      [&] { status = scheduler.PredictRows(*session, rows, &preds); });
  // Keep triggering until the submitter is through (a Flush that raced ahead
  // of the enqueue is a no-op, so one call is not guaranteed to be enough).
  while (scheduler.stats().batches == 0) {
    scheduler.Flush();
    std::this_thread::yield();
  }
  submitter.join();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(preds, independent);
}

// Backpressure: a pending bound far below the offered load still serves
// everything, just in more batches.
TEST_F(CoalescedScanSchedulerTest, BackpressureStillServesEveryRequest) {
  constexpr int64_t kSessions = 8;
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  std::vector<std::vector<double>> independent(kSessions);
  std::vector<std::vector<int64_t>> row_sets;
  for (int64_t u = 0; u < kSessions; ++u) {
    sessions.push_back(MakeSession(u));
    row_sets.push_back(RowSet(u));
    ASSERT_TRUE(sessions.back()
                    ->PredictRows(*table_, row_sets.back(),
                                  &independent[static_cast<size_t>(u)])
                    .ok());
  }

  CoalescedScanOptions options;
  options.max_batch_requests = 2;
  options.max_pending_requests = 2;
  options.flush_deadline_micros = 100;
  CoalescedScanScheduler scheduler(model_, table_, options);
  std::vector<std::vector<double>> coalesced(kSessions);
  std::vector<Status> statuses(kSessions);
  {
    std::vector<std::thread> submitters;
    for (int64_t u = 0; u < kSessions; ++u) {
      submitters.emplace_back([&, u] {
        statuses[static_cast<size_t>(u)] = scheduler.PredictRows(
            *sessions[static_cast<size_t>(u)], row_sets[static_cast<size_t>(u)],
            &coalesced[static_cast<size_t>(u)]);
      });
    }
    for (std::thread& t : submitters) t.join();
  }
  for (int64_t u = 0; u < kSessions; ++u) {
    ASSERT_TRUE(statuses[static_cast<size_t>(u)].ok());
    EXPECT_EQ(coalesced[static_cast<size_t>(u)],
              independent[static_cast<size_t>(u)]);
  }
  const CoalescedScanStats stats = scheduler.stats();
  EXPECT_EQ(stats.requests, kSessions);
  EXPECT_LE(stats.largest_batch, 2);
}

}  // namespace
}  // namespace lte::serving
