// Allocation tests for the block scan, adaptation and suggestions. Counting
// global operator new and delete tally every heap allocation and free in
// the process. After a warm-up, a full-table scan must not allocate per
// block: the same calls on an 8-block table may allocate no more than on a
// 2-block table — directly on a session and through the coalesced
// scheduler — and a limited retrieval that runs four blocks of its doubling
// schedule no more than one that stops after the first, and on a table of
// under 1024 rows no more at 4 threads than at 1 (one lane). Likewise
// adaptation must not allocate per gradient step: StartExploration and
// ContinueExploration at 40 online steps may allocate no more than at 4.
// And a SuggestTuples call frees everything it allocates, so a session
// keeps no scratch between calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "serving/coalesced_scan_scheduler.h"
#include "small_explorer_options.h"

namespace {
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_frees{0};

void CountFree(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// Out of line, so the compiler never sees malloc() inside one call and
// operator delete outside it (or new and an inlined free()) as a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { CountFree(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  CountFree(p);
}

namespace lte::core {
namespace {

/// Heap allocations of `scan(&matches)` — full-table scans, among them a
/// RetrieveMatches(-1) into `matches` — after one warm-up call has sized the
/// outputs, started the shared pool and touched every lazily built cache.
template <typename Scan>
int64_t SteadyStateAllocations(const Scan& scan) {
  std::vector<int64_t> matches;
  scan(&matches);
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  scan(&matches);
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(matches.empty());  // Non-vacuity: the scan kept survivors.
  return after - before;
}

std::vector<int64_t> AllRows(const data::Table& table) {
  std::vector<int64_t> rows(static_cast<size_t>(table.num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  return rows;
}

// Interesting iff the subspace point's first coordinate is below its
// initial tuples' median: mixed labels, so every scan keeps survivors.
std::vector<std::vector<double>> UserLabels(const ExplorationModel& model) {
  std::vector<std::vector<double>> labels(2);
  for (int64_t s = 0; s < 2; ++s) {
    const auto& tuples = *model.InitialTuples(s);
    std::vector<double> firsts;
    for (const auto& t : tuples) firsts.push_back(t[0]);
    std::nth_element(firsts.begin(), firsts.begin() + firsts.size() / 2,
                     firsts.end());
    const double median = firsts[firsts.size() / 2];
    for (const auto& t : tuples) {
      labels[static_cast<size_t>(s)].push_back(t[0] < median ? 1.0 : 0.0);
    }
  }
  return labels;
}

class ScanAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(23);
    const int64_t rows = 8 * kServingBlockRows;
    large_ = new data::Table(data::MakeBlobs(rows, 4, 5, &rng));
    small_ = new data::Table(large_->SnapshotPrefix(2 * kServingBlockRows));
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    const std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                                   data::Subspace{{2, 3}}};
    ASSERT_TRUE(model_->Pretrain(*large_, subspaces, true, &rng).ok());
  }

  static void TearDownTestSuite() {
    model_.reset();
    delete small_;
    delete large_;
  }

  static data::Table* large_;
  static data::Table* small_;
  static std::shared_ptr<ExplorationModel> model_;
};

data::Table* ScanAllocTest::large_ = nullptr;
data::Table* ScanAllocTest::small_ = nullptr;
std::shared_ptr<ExplorationModel> ScanAllocTest::model_;

TEST_F(ScanAllocTest, SessionScanAllocationsDoNotGrowWithBlocks) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(*model_), Variant::kMetaStar, &rng)
          .ok());
  const auto allocations = [&](const data::Table& table) {
    const std::vector<int64_t> rows = AllRows(table);
    std::vector<double> predictions;
    return SteadyStateAllocations([&](std::vector<int64_t>* matches) {
      EXPECT_TRUE(session.RetrieveMatches(table, -1, matches).ok());
      EXPECT_TRUE(session.PredictRows(table, rows, &predictions).ok());
      EXPECT_EQ(predictions.size(), rows.size());
    });
  };
  const int64_t small_allocs = allocations(*small_);
  EXPECT_LE(allocations(*large_), small_allocs);
}

TEST_F(ScanAllocTest, SchedulerScanAllocationsDoNotGrowWithBlocks) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(*model_), Variant::kMetaStar, &rng)
          .ok());
  const auto allocations = [&](const data::Table& table) {
    serving::CoalescedScanOptions options;
    options.num_threads = 1;
    options.flush_deadline_micros = 0;
    serving::CoalescedScanScheduler scheduler(model_, &table, options);
    return SteadyStateAllocations([&](std::vector<int64_t>* matches) {
      EXPECT_TRUE(scheduler.RetrieveMatches(session, -1, matches).ok());
    });
  };
  const int64_t small_allocs = allocations(*small_);
  EXPECT_LE(allocations(*large_), small_allocs);
}

// A limited retrieval's blocks double from 128 rows (128, 256, 512, then
// 1024 rows each), and it stops after the block whose end holds its limit's
// matches. One whose last match lies past row 896, in the fourth block, may
// allocate no more than one that the first 128 rows fill.
TEST_F(ScanAllocTest, LimitedScanAllocationsDoNotGrowWithBlocks) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(*model_), Variant::kMetaStar, &rng)
          .ok());
  std::vector<int64_t> all;
  ASSERT_TRUE(session.RetrieveMatches(*large_, -1, &all).ok());
  const auto before = [&](int64_t row) {
    return static_cast<int64_t>(
        std::lower_bound(all.begin(), all.end(), row) - all.begin());
  };
  const int64_t first_block = before(128);
  const int64_t fourth_block = before(896) + 1;
  ASSERT_GT(first_block, 0);
  ASSERT_LE(fourth_block, static_cast<int64_t>(all.size()));
  const auto allocations = [&](int64_t limit) {
    return SteadyStateAllocations([&](std::vector<int64_t>* matches) {
      EXPECT_TRUE(session.RetrieveMatches(*large_, limit, matches).ok());
      EXPECT_EQ(static_cast<int64_t>(matches->size()), limit);
    });
  };
  const int64_t small_allocs = allocations(first_block);
  EXPECT_LE(allocations(fourth_block), small_allocs);
}

// A pass runs at most one lane per 1024 rows of its domain, however small
// its first blocks: on a table of fewer rows a limited retrieval runs one
// lane at 4 threads, so it allocates no more than at 1 thread.
TEST_F(ScanAllocTest, LimitedScanOnOneBlockTableRunsOneLane) {
  const data::Table table = large_->SnapshotPrefix(1000);
  const auto allocations = [&](int64_t threads) {
    ExplorationSession session(model_, threads);
    Rng rng(5);
    EXPECT_TRUE(
        session.StartExploration(UserLabels(*model_), Variant::kMetaStar, &rng)
            .ok());
    return SteadyStateAllocations([&](std::vector<int64_t>* matches) {
      EXPECT_TRUE(session.RetrieveMatches(table, 20, matches).ok());
    });
  };
  const int64_t one_thread = allocations(1);
  EXPECT_LE(allocations(4), one_thread);
}

// Heap allocations of the second StartExploration and of the second
// ContinueExploration on a session over a model whose online schedule runs
// `steps` gradient steps per call (the first of each is the warm-up).
void AdaptationAllocations(const data::Table& table, int64_t steps,
                           int64_t* start_allocs, int64_t* continue_allocs) {
  ExplorerOptions options = SmallExplorerOptions();
  options.online_steps = steps;
  auto model = std::make_shared<ExplorationModel>(options);
  Rng pretrain_rng(23);
  ASSERT_TRUE(model
                  ->Pretrain(table, {data::Subspace{{0, 1}},
                                     data::Subspace{{2, 3}}},
                             /*train_meta=*/true, &pretrain_rng)
                  .ok());
  const std::vector<std::vector<double>> labels =
      UserLabels(*model);
  const std::vector<std::vector<double>>& initial = *model->InitialTuples(0);
  const std::vector<std::vector<double>> points(initial.begin(),
                                                initial.begin() + 5);
  const std::vector<double> point_labels(labels[0].begin(),
                                         labels[0].begin() + 5);

  ExplorationSession session(model, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(session.StartExploration(labels, Variant::kMetaStar, &rng).ok());
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(session.StartExploration(labels, Variant::kMetaStar, &rng).ok());
  *start_allocs = g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_TRUE(session.ContinueExploration(0, points, point_labels, &rng).ok());
  before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(session.ContinueExploration(0, points, point_labels, &rng).ok());
  *continue_allocs = g_allocations.load(std::memory_order_relaxed) - before;
}

// Allocations not yet freed.
int64_t LiveAllocations() {
  return g_allocations.load(std::memory_order_relaxed) -
         g_frees.load(std::memory_order_relaxed);
}

// The encoded candidates, their probabilities and the batch buffers belong
// to the call: one SuggestTuples leaves nothing allocated behind.
TEST_F(ScanAllocTest, SuggestTuplesLeavesNothingResident) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(*model_), Variant::kMetaStar, &rng)
          .ok());
  std::vector<std::vector<double>> candidates;
  for (int64_t r = 0; r < 200; ++r) {
    candidates.push_back(large_->RowProjected(r, {0, 1}));
  }
  const int64_t k = 5;
  std::vector<int64_t> suggested;
  suggested.reserve(k);
  const int64_t before = LiveAllocations();
  ASSERT_TRUE(session.SuggestTuples(0, candidates, k, &suggested).ok());
  EXPECT_EQ(LiveAllocations(), before);
  EXPECT_EQ(static_cast<int64_t>(suggested.size()), k);
}

TEST_F(ScanAllocTest, AdaptationAllocationsDoNotGrowWithSteps) {
  int64_t start_few = 0;
  int64_t continue_few = 0;
  AdaptationAllocations(*small_, /*steps=*/4, &start_few, &continue_few);
  int64_t start_many = 0;
  int64_t continue_many = 0;
  AdaptationAllocations(*small_, /*steps=*/40, &start_many, &continue_many);
  EXPECT_GT(continue_few, 0);  // Non-vacuity: the counter sees the call.
  EXPECT_LE(start_many, start_few);
  EXPECT_LE(continue_many, continue_few);
}

}  // namespace
}  // namespace lte::core
