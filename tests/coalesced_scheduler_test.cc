// Queue-discipline tests for the coalesced scan scheduler (src/serving/):
// the encode amortization it exists for, submission validation, the
// zero-deadline flush and backpressure, with real std::thread submitters.
// That every request gets the bytes its session would compute scanning
// alone is checked by tests/scan_differential_test.cc; the determinism
// argument is in DESIGN.md §2c. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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

  static data::Table* table_;
  static std::vector<data::Subspace>* subspaces_;
  static std::shared_ptr<core::ExplorationModel> model_;
};

data::Table* CoalescedScanSchedulerTest::table_ = nullptr;
std::vector<data::Subspace>* CoalescedScanSchedulerTest::subspaces_ = nullptr;
std::shared_ptr<core::ExplorationModel> CoalescedScanSchedulerTest::model_;

// Each session's retrieval at its limit when it scans alone.
std::vector<std::vector<int64_t>> AloneMatches(
    const std::vector<std::unique_ptr<core::ExplorationSession>>& sessions,
    const data::Table& table, const std::vector<int64_t>& limits) {
  std::vector<std::vector<int64_t>> matches(sessions.size());
  for (size_t u = 0; u < sessions.size(); ++u) {
    EXPECT_TRUE(
        sessions[u]->RetrieveMatches(table, limits[u], &matches[u]).ok());
  }
  return matches;
}

// Every session's retrieval at its limit through `scheduler`, one
// std::thread per session.
std::vector<std::vector<int64_t>> ScheduledMatches(
    CoalescedScanScheduler* scheduler,
    const std::vector<std::unique_ptr<core::ExplorationSession>>& sessions,
    const std::vector<int64_t>& limits) {
  std::vector<std::vector<int64_t>> matches(sessions.size());
  std::vector<std::thread> submitters;
  for (size_t u = 0; u < sessions.size(); ++u) {
    submitters.emplace_back([&, u] {
      EXPECT_TRUE(
          scheduler->RetrieveMatches(*sessions[u], limits[u], &matches[u])
              .ok());
    });
  }
  for (std::thread& t : submitters) t.join();
  return matches;
}

// The amortization the subsystem exists for: S sessions coalesced into one
// shared pass cost ONE gather+encode per (block, subspace) — not S.
TEST_F(CoalescedScanSchedulerTest, EncodeCostAmortizedAcrossSessions) {
  constexpr int64_t kSessions = 8;
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  for (int64_t u = 0; u < kSessions; ++u) sessions.push_back(MakeSession(u));
  const std::vector<int64_t> limits(kSessions, -1);

  CoalescedScanOptions options;
  options.max_batch_requests = kSessions;  // Deterministic single batch:
  options.flush_deadline_micros = 5000000;  // flush fires at the S-th submit.
  CoalescedScanScheduler scheduler(model_, table_, options);
  EXPECT_EQ(ScheduledMatches(&scheduler, sessions, limits),
            AloneMatches(sessions, *table_, limits));

  const CoalescedScanStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.largest_batch, kSessions);
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
  std::vector<int64_t> matches;

  // Null output.
  EXPECT_FALSE(scheduler.RetrieveMatches(*session, 1, nullptr).ok());

  // Session not adapted yet.
  core::ExplorationSession unadapted(model_);
  EXPECT_FALSE(scheduler.RetrieveMatches(unadapted, 1, &matches).ok());

  // Session bound to a different model.
  auto other = std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
  core::ExplorationSession foreign(other);
  EXPECT_EQ(scheduler.RetrieveMatches(foreign, 1, &matches).code(),
            StatusCode::kInvalidArgument);

  // A degenerate-but-valid request completes without a shared pass.
  EXPECT_TRUE(scheduler.RetrieveMatches(*session, 0, &matches).ok());
  EXPECT_TRUE(matches.empty());
  EXPECT_EQ(scheduler.stats().batches, 0);
}

// A non-positive deadline flushes at once: a lone request is served though
// the batch never fills.
TEST_F(CoalescedScanSchedulerTest, ZeroDeadlineServesALoneRequest) {
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  sessions.push_back(MakeSession(0));
  const std::vector<int64_t> limits = {-1};

  CoalescedScanOptions options;
  options.max_batch_requests = 64;  // Never fills.
  options.flush_deadline_micros = 0;
  CoalescedScanScheduler scheduler(model_, table_, options);
  EXPECT_EQ(ScheduledMatches(&scheduler, sessions, limits),
            AloneMatches(sessions, *table_, limits));
  EXPECT_EQ(scheduler.stats().batches, 1);
}

// Backpressure: a pending bound far below the offered load still serves
// everything, just in more batches.
TEST_F(CoalescedScanSchedulerTest, BackpressureStillServesEveryRequest) {
  constexpr int64_t kSessions = 8;
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  std::vector<int64_t> limits;
  for (int64_t u = 0; u < kSessions; ++u) {
    sessions.push_back(MakeSession(u));
    limits.push_back(u % 4 == 0 ? -1 : 7 * u);  // Unlimited or 7..49.
  }

  CoalescedScanOptions options;
  options.max_batch_requests = 2;
  options.max_pending_requests = 2;
  options.flush_deadline_micros = 100;
  CoalescedScanScheduler scheduler(model_, table_, options);
  EXPECT_EQ(ScheduledMatches(&scheduler, sessions, limits),
            AloneMatches(sessions, *table_, limits));
  const CoalescedScanStats stats = scheduler.stats();
  EXPECT_EQ(stats.requests, kSessions);
  EXPECT_LE(stats.largest_batch, 2);
}

}  // namespace
}  // namespace lte::serving
