#include "common/thread_pool.h"

#include <algorithm>

namespace lte {
namespace {

// True while the current thread is executing a pool lane; nested
// ParallelFor calls from inside a lane run inline instead of deadlocking on
// the (already busy) shared pool.
thread_local bool t_inside_lane = false;

}  // namespace

int64_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

int64_t ResolveThreadCount(int64_t num_threads) {
  if (num_threads == 0) return DefaultThreadCount();
  return std::max<int64_t>(1, num_threads);
}

ThreadPool::ThreadPool(int64_t num_workers) {
  const int64_t n = std::max<int64_t>(0, num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

void ThreadPool::RunLane(const Job& job, int64_t lane) {
  // Contiguous static partition: lane L owns chunk indices
  // [begin + L*q + min(L, r), ...) where q = n / lanes, r = n % lanes.
  const int64_t n = job.end - job.begin;
  const int64_t q = n / job.lanes;
  const int64_t r = n % job.lanes;
  const int64_t lo = job.begin + lane * q + std::min(lane, r);
  const int64_t hi = lo + q + (lane < r ? 1 : 0);
  if (lo < hi) job.shard_fn(lo, hi);
}

void ThreadPool::WorkerLoop() {
  t_inside_lane = true;  // Workers only ever run inside jobs.
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stopping_ || job_generation_ != seen_generation;
    });
    if (stopping_) return;
    seen_generation = job_generation_;
    std::shared_ptr<Job> job = job_;
    if (job == nullptr) continue;
    lock.unlock();

    int64_t completed = 0;
    for (int64_t lane = job->next_lane.fetch_add(1); lane < job->lanes;
         lane = job->next_lane.fetch_add(1)) {
      RunLane(*job, lane);
      ++completed;
    }

    lock.lock();
    job->lanes_done += completed;
    if (job->lanes_done == job->lanes) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelForShards(
    int64_t begin, int64_t end, int64_t max_parallelism,
    const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  const int64_t lanes = std::min<int64_t>(std::max<int64_t>(max_parallelism, 1), n);
  // Sequential fallback: one lane requested, no workers to help, or a nested
  // call from inside a lane. Exactly the legacy single-threaded loop.
  if (lanes <= 1 || workers_.empty() || t_inside_lane) {
    fn(begin, end);
    return;
  }

  auto job = std::make_shared<Job>();
  job->shard_fn = fn;
  job->begin = begin;
  job->end = end;
  job->lanes = lanes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_generation_;
  }
  work_cv_.notify_all();

  // The submitting thread participates too.
  t_inside_lane = true;
  int64_t completed = 0;
  for (int64_t lane = job->next_lane.fetch_add(1); lane < job->lanes;
       lane = job->next_lane.fetch_add(1)) {
    RunLane(*job, lane);
    ++completed;
  }
  t_inside_lane = false;

  std::unique_lock<std::mutex> lock(mu_);
  job->lanes_done += completed;
  if (job->lanes_done < job->lanes) {
    done_cv_.wait(lock, [&] { return job->lanes_done == job->lanes; });
  }
  if (job_ == job) job_ = nullptr;
}

void ThreadPool::ParallelForEarlyExit(
    int64_t num_chunks, int64_t max_parallelism,
    const std::function<void(int64_t, int64_t)>& fn,
    const std::function<bool()>& cancelled) {
  if (num_chunks <= 0) return;
  const int64_t lanes =
      std::min<int64_t>(std::max<int64_t>(max_parallelism, 1), num_chunks);
  std::atomic<int64_t> next_chunk{0};
  const auto claim_loop = [&](int64_t lane) {
    while (!cancelled()) {
      const int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      fn(lane, c);
    }
  };
  // Sequential fallback mirrors ParallelFor: chunks run in order on the
  // caller with the same per-claim cancellation checks.
  if (lanes <= 1 || workers_.empty() || t_inside_lane) {
    claim_loop(0);
    return;
  }
  ParallelFor(0, lanes, lanes, claim_loop);
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             int64_t max_parallelism,
                             const std::function<void(int64_t)>& fn) {
  ParallelForShards(begin, end, max_parallelism,
                    [&fn](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) fn(i);
                    });
}

}  // namespace lte
