// Byte-identity and queue-discipline tests for the coalesced scan scheduler
// (src/serving/): N sessions submitting through one scheduler — from real
// std::thread submitters — must each receive exactly the bytes they would
// have computed scanning alone, for ragged per-session row sets, mixed
// variants, mixed request kinds, and at scheduler thread counts {1, 4}. The
// determinism argument is in DESIGN.md §2c; this file is the enforcement
// (and runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "serving/coalesced_scan_scheduler.h"

namespace lte::serving {
namespace {

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
  opt.trainer.global_lr = 0.1;
  opt.online_steps = 25;
  opt.online_lr = 0.2;
  opt.encoder.num_gmm_components = 3;
  opt.encoder.num_jenks_intervals = 3;
  return opt;
}

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

// The core property: concurrent PredictRows through the scheduler is
// byte-identical per session to that session scanning independently — for
// ragged row sets, all variants, and scheduler thread counts {1, 4}.
TEST_F(CoalescedScanSchedulerTest, ConcurrentPredictRowsByteIdentical) {
  constexpr int64_t kSessions = 6;
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  std::vector<std::vector<int64_t>> row_sets;
  std::vector<std::vector<double>> independent(kSessions);
  for (int64_t u = 0; u < kSessions; ++u) {
    sessions.push_back(MakeSession(u));
    row_sets.push_back(RowSet(u));
    ASSERT_TRUE(sessions.back()
                    ->PredictRows(*table_, row_sets.back(),
                                  &independent[static_cast<size_t>(u)])
                    .ok());
  }

  for (const int64_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "scheduler threads=" << threads);
    CoalescedScanOptions options;
    options.num_threads = threads;
    options.max_batch_requests = kSessions;
    options.flush_deadline_micros = 2000;
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
      SCOPED_TRACE(testing::Message() << "session=" << u);
      ASSERT_TRUE(statuses[static_cast<size_t>(u)].ok());
      // Exact 0.0/1.0 equality — no tolerance.
      EXPECT_EQ(coalesced[static_cast<size_t>(u)],
                independent[static_cast<size_t>(u)]);
    }
    const CoalescedScanStats stats = scheduler.stats();
    EXPECT_EQ(stats.requests, kSessions);
    EXPECT_GE(stats.batches, 1);
  }

  // Sanity: the full-table session found both classes, so the identity
  // checks above are not vacuous.
  const std::vector<double>& full = independent[0];
  const double ones = std::accumulate(full.begin(), full.end(), 0.0);
  EXPECT_GT(ones, 0.0);
  EXPECT_LT(ones, static_cast<double>(full.size()));
}

// Same property for RetrieveMatches across limits, including the early-exit
// truncation semantics: the coalesced result equals the prefix of that
// session's own unlimited scan.
TEST_F(CoalescedScanSchedulerTest, ConcurrentRetrieveMatchesByteIdentical) {
  const std::vector<int64_t> limits = {-1, 1, 7, 100, 5000};
  const auto kSessions = static_cast<int64_t>(limits.size());
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  std::vector<std::vector<int64_t>> independent(kSessions);
  for (int64_t u = 0; u < kSessions; ++u) {
    sessions.push_back(MakeSession(u));
    ASSERT_TRUE(sessions.back()
                    ->RetrieveMatches(*table_, limits[static_cast<size_t>(u)],
                                      &independent[static_cast<size_t>(u)])
                    .ok());
  }

  for (const int64_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "scheduler threads=" << threads);
    CoalescedScanOptions options;
    options.num_threads = threads;
    options.max_batch_requests = kSessions;
    options.flush_deadline_micros = 2000;
    CoalescedScanScheduler scheduler(model_, table_, options);

    std::vector<std::vector<int64_t>> coalesced(kSessions);
    std::vector<Status> statuses(kSessions);
    {
      std::vector<std::thread> submitters;
      for (int64_t u = 0; u < kSessions; ++u) {
        submitters.emplace_back([&, u] {
          statuses[static_cast<size_t>(u)] = scheduler.RetrieveMatches(
              *sessions[static_cast<size_t>(u)], limits[static_cast<size_t>(u)],
              &coalesced[static_cast<size_t>(u)]);
        });
      }
      for (std::thread& t : submitters) t.join();
    }
    for (int64_t u = 0; u < kSessions; ++u) {
      SCOPED_TRACE(testing::Message() << "session=" << u << " limit="
                                      << limits[static_cast<size_t>(u)]);
      ASSERT_TRUE(statuses[static_cast<size_t>(u)].ok());
      EXPECT_EQ(coalesced[static_cast<size_t>(u)],
                independent[static_cast<size_t>(u)]);
      EXPECT_TRUE(std::is_sorted(coalesced[static_cast<size_t>(u)].begin(),
                                 coalesced[static_cast<size_t>(u)].end()));
    }
  }
}

// A mixed batch — predictions and retrievals coalesced together — still
// demultiplexes every request to its own independent bytes.
TEST_F(CoalescedScanSchedulerTest, MixedBatchDemultiplexes) {
  auto predictor = MakeSession(0);
  auto retriever = MakeSession(1);
  const std::vector<int64_t> rows = RowSet(2);
  std::vector<double> independent_preds;
  std::vector<int64_t> independent_matches;
  ASSERT_TRUE(predictor->PredictRows(*table_, rows, &independent_preds).ok());
  ASSERT_TRUE(
      retriever->RetrieveMatches(*table_, 50, &independent_matches).ok());

  CoalescedScanOptions options;
  options.max_batch_requests = 2;
  options.flush_deadline_micros = 5000000;  // Full-batch trigger only.
  CoalescedScanScheduler scheduler(model_, table_, options);
  std::vector<double> preds;
  std::vector<int64_t> matches;
  Status predict_status;
  Status retrieve_status;
  {
    std::thread a([&] {
      predict_status = scheduler.PredictRows(*predictor, rows, &preds);
    });
    std::thread b([&] {
      retrieve_status = scheduler.RetrieveMatches(*retriever, 50, &matches);
    });
    a.join();
    b.join();
  }
  ASSERT_TRUE(predict_status.ok());
  ASSERT_TRUE(retrieve_status.ok());
  EXPECT_EQ(preds, independent_preds);
  EXPECT_EQ(matches, independent_matches);
  EXPECT_EQ(scheduler.stats().batches, 1);
  EXPECT_EQ(scheduler.stats().largest_batch, 2);
}

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
