#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

namespace lte {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, ResolveThreadCountConvention) {
  EXPECT_EQ(ResolveThreadCount(0), DefaultThreadCount());  // 0 = auto.
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_EQ(ResolveThreadCount(-3), 1);  // Clamped.
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<int> hits(10000, 0);
  pool.ParallelFor(0, 10000, 8, [&](int64_t i) {
    ++hits[static_cast<size_t>(i)];  // Disjoint slots: no synchronization.
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NonZeroRangeBegin) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 200, 4, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int64_t calls = 0;
  pool.ParallelFor(5, 5, 4, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, 6, 4, [&](int64_t i) {
    ++calls;
    EXPECT_EQ(i, 5);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, MoreLanesThanWorkersStillCoversRange) {
  // Lanes are a partition of the range, not of the workers; a single worker
  // plus the caller must still execute all 16 lanes.
  ThreadPool pool(1);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, 1000, 16, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, 100, 8, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, ShardPartitionIsDeterministic) {
  // The lane boundaries depend only on (range, max_parallelism): two pools
  // of different sizes must produce identical shard decompositions.
  auto shards_of = [](ThreadPool* pool, int64_t n, int64_t lanes) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> shards;
    pool->ParallelForShards(0, n, lanes, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      shards.emplace_back(lo, hi);
    });
    std::sort(shards.begin(), shards.end());
    return shards;
  };
  ThreadPool small(2);
  ThreadPool large(8);
  for (int64_t n : {int64_t{7}, int64_t{64}, int64_t{1001}}) {
    for (int64_t lanes : {int64_t{2}, int64_t{3}, int64_t{8}}) {
      const auto a = shards_of(&small, n, lanes);
      const auto b = shards_of(&large, n, lanes);
      ASSERT_EQ(a, b) << "n=" << n << " lanes=" << lanes;
      // And they tile [0, n) exactly.
      int64_t expect_lo = 0;
      for (const auto& [lo, hi] : a) {
        ASSERT_EQ(lo, expect_lo);
        ASSERT_LT(lo, hi);
        expect_lo = hi;
      }
      ASSERT_EQ(expect_lo, n);
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(64 * 64, 0);
  pool.ParallelFor(0, 64, 4, [&](int64_t outer) {
    // A nested call from inside a lane must complete (inline) rather than
    // deadlock waiting for the busy pool.
    pool.ParallelFor(0, 64, 4, [&](int64_t inner) {
      ++hits[static_cast<size_t>(outer * 64 + inner)];
    });
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64 * 64);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // The pool is a long-lived substrate: thousands of small jobs (the shape
  // meta-training produces — one per batch per epoch) must not wedge it.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(0, 16, 4, [&](int64_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 2000 * 16);
}

TEST(ThreadPoolTest, EarlyExitRunsEveryChunkWhenNeverCancelled) {
  ThreadPool pool(4);
  std::vector<int> hits(500, 0);
  // Per lane: the chunks it ran, in order. A lane never runs two chunks at
  // once, so each lane's slot is written by one thread at a time.
  std::vector<std::vector<int64_t>> by_lane(4);
  pool.ParallelForEarlyExit(
      500, 4,
      [&](int64_t lane, int64_t c) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, 4);
        ++hits[static_cast<size_t>(c)];
        by_lane[static_cast<size_t>(lane)].push_back(c);
      },
      [] { return false; });
  for (size_t c = 0; c < hits.size(); ++c) {
    ASSERT_EQ(hits[c], 1) << "chunk " << c;
  }
  for (const std::vector<int64_t>& chunks : by_lane) {
    EXPECT_TRUE(std::is_sorted(chunks.begin(), chunks.end()));
  }
}

TEST(ThreadPoolTest, EarlyExitExecutesContiguousPrefix) {
  // Cancel after ~50 chunks: whatever ran must be exactly [0, C) for some C
  // — chunks are claimed in increasing order, so no gaps are possible.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  std::atomic<int64_t> done{0};
  pool.ParallelForEarlyExit(
      1000, 4,
      [&](int64_t lane, int64_t c) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, 4);
        hits[static_cast<size_t>(c)].fetch_add(1);
        done.fetch_add(1);
      },
      [&] { return done.load() >= 50; });
  int64_t executed = 0;
  for (const auto& h : hits) executed += h.load();
  EXPECT_GE(executed, 50);
  EXPECT_LT(executed, 1000);  // The cancellation actually cut the scan short.
  // Contiguity: once a zero appears, everything after it is zero too.
  bool seen_gap = false;
  for (const auto& h : hits) {
    if (h.load() == 0) seen_gap = true;
    else ASSERT_FALSE(seen_gap) << "executed chunk after an unexecuted one";
  }
}

TEST(ThreadPoolTest, EarlyExitCancelledUpFrontRunsNothing) {
  ThreadPool pool(2);
  int64_t calls = 0;
  pool.ParallelForEarlyExit(
      100, 4, [&](int64_t, int64_t) { ++calls; }, [] { return true; });
  EXPECT_EQ(calls, 0);
  pool.ParallelForEarlyExit(
      0, 4, [&](int64_t, int64_t) { ++calls; }, [] { return false; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, EarlyExitSequentialAndNestedFallbacks) {
  // max_parallelism <= 1 runs inline on the caller, in chunk order.
  ThreadPool pool(4);
  std::vector<int64_t> order;
  pool.ParallelForEarlyExit(
      8, 1,
      [&](int64_t lane, int64_t c) {
        EXPECT_EQ(lane, 0);
        order.push_back(c);
      },
      [] { return false; });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // From inside a pool lane the early-exit loop must complete inline rather
  // than deadlock on the busy pool.
  std::atomic<int64_t> nested{0};
  pool.ParallelFor(0, 4, 4, [&](int64_t) {
    pool.ParallelForEarlyExit(
        16, 4,
        [&](int64_t lane, int64_t) {
          EXPECT_EQ(lane, 0);  // The inline fallback is one lane.
          nested.fetch_add(1);
        },
        [] { return false; });
  });
  EXPECT_EQ(nested.load(), 4 * 16);
}

TEST(ThreadPoolTest, SharedPoolSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_workers(), DefaultThreadCount());
  std::atomic<int64_t> sum{0};
  a.ParallelFor(0, 100, 0 /* <= 1: inline */, [&](int64_t i) {
    sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

}  // namespace
}  // namespace lte
