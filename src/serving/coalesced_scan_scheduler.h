#ifndef LTE_SERVING_COALESCED_SCAN_SCHEDULER_H_
#define LTE_SERVING_COALESCED_SCAN_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/block_scan.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/table.h"

namespace lte::serving {

/// Queue/flush/backpressure knobs of the coalesced serving front-end
/// (DESIGN.md §2c). The defaults favor throughput under heavy concurrent
/// load; a latency-sensitive deployment lowers `flush_deadline_micros`.
struct CoalescedScanOptions {
  /// Full-batch flush trigger: a shared pass starts as soon as this many
  /// requests are queued, without waiting for the deadline.
  int64_t max_batch_requests = 64;
  /// Deadline flush trigger: a shared pass starts at the latest this long
  /// after the oldest queued request arrived, so a lone request is never
  /// parked waiting for company that may not come. <= 0 flushes immediately.
  int64_t flush_deadline_micros = 200;
  /// Backpressure bound: submission calls block while this many requests are
  /// queued or in flight, so a traffic burst queues at the callers instead
  /// of growing the scheduler's memory without bound.
  int64_t max_pending_requests = 256;
  /// Parallel lanes of the shared pass over blocks (the usual convention:
  /// 0 = auto, i.e. one lane per hardware thread). Scheduling only — results
  /// are bit-identical at any value.
  int64_t num_threads = 0;
};

/// Running totals since construction, for benchmarks and capacity planning.
struct CoalescedScanStats {
  /// Shared passes executed.
  int64_t batches = 0;
  /// Requests served through shared passes (early-validated failures and
  /// empty requests never reach a pass).
  int64_t requests = 0;
  /// Most requests coalesced into one shared pass.
  int64_t largest_batch = 0;
  /// Gather+encode rounds executed, one per (block, subspace) in which some
  /// subscriber has band rows (core::BlockScanStats) — the quantity
  /// coalescing amortizes: independent sessions would pay one round per
  /// *session* per (block, subspace), the shared pass pays at most one
  /// regardless of how many sessions subscribe.
  int64_t encode_passes = 0;
  /// Rows that reached a subscriber's batch forward (band rows; see
  /// core::BlockScanStats::rows_forwarded).
  int64_t rows_forwarded = 0;
  /// Rows that needed the direct FP/FN hull test (see
  /// core::BlockScanStats::rows_located).
  int64_t rows_located = 0;
};

/// Cross-session coalesced scan scheduler: the "many users, one table pass"
/// serving front-end (DESIGN.md §2c).
///
/// N concurrent `ExplorationSession`s scanning one table independently make
/// N full passes over the same columns, re-gathering and re-encoding every
/// subspace block N times even though the encoding is user-independent. This
/// scheduler accepts `RetrieveMatches` requests from many sessions, groups
/// whatever is queued when a flush trigger fires into one shared pass — one
/// `core::RunBlockScan` over every table row with every request as a
/// subscriber — which for each subspace x `core::kServingBlockRows`-row
/// block gathers + encodes **once**, then runs each subscribed session's
/// batch forward over its own band rows of the shared encoded block. The
/// per-user work shrinks to the Meta* FP/FN region test plus the
/// adapted-weights matmul over the rows the regions leave undecided. The
/// scheduler itself only queues, flushes, applies backpressure and keeps
/// stats.
///
///   CoalescedScanScheduler scheduler(model, &table);
///   // Per user, on the user's own thread:
///   std::vector<int64_t> matches;
///   Status s = scheduler.RetrieveMatches(session, /*limit=*/100, &matches);
///
/// Determinism contract: every (session, row) verdict is byte-identical to
/// that session scanning alone — batch composition, block boundaries, lane
/// count, and flush timing change scheduling only, never bytes (argument in
/// DESIGN.md §2b; enforced by tests/scan_differential_test.cc, including
/// under the TSan CI job). `RetrieveMatches` returns ascending row ids
/// truncated at `limit` — the exact prefix of that session's unlimited scan.
///
/// Thread-safety: submission calls may race freely with each other; each
/// blocks until its request's shared pass completes. A submitted session
/// must stay alive and un-mutated (single-writer contract) until its call
/// returns, and every session must be bound to the scheduler's model. The
/// destructor drains queued requests, but must not race with in-flight
/// submission calls — join the submitting threads first.
class CoalescedScanScheduler {
 public:
  /// Serves scans of `table` for sessions bound to exactly this `model`
  /// snapshot (the scheduler co-owns and pins it, like a session does; after
  /// a registry refresh, host a second scheduler for the new epoch and
  /// retire this one when its sessions drain). `table` is not owned and must
  /// outlive the scheduler; it may keep appending live — a pass scans the
  /// rows present when it starts, and views span segments transparently.
  CoalescedScanScheduler(std::shared_ptr<const core::ExplorationModel> model,
                         const data::Table* table,
                         CoalescedScanOptions options = {});
  ~CoalescedScanScheduler();

  CoalescedScanScheduler(const CoalescedScanScheduler&) = delete;
  CoalescedScanScheduler& operator=(const CoalescedScanScheduler&) = delete;

  /// Coalesced counterpart of `ExplorationSession::RetrieveMatches`: stores
  /// the first `limit` matching row ids in ascending order (`limit < 0` =
  /// all, `limit == 0` = empty). Blocks until served. Fails without queueing
  /// on a null `matches`, a session bound to another model, or a session
  /// `ValidateServing` refuses.
  Status RetrieveMatches(const core::ExplorationSession& session,
                         int64_t limit, std::vector<int64_t>* matches);

  CoalescedScanStats stats() const;

  const core::ExplorationModel& model() const { return *model_; }
  const data::Table& table() const { return *table_; }
  const CoalescedScanOptions& options() const { return options_; }

 private:
  /// One queued scan, owned by the stack frame of the submission call that
  /// is blocked on it (so its output pointer stays valid for free).
  struct Request {
    core::ScanSubscriber subscriber;
    std::chrono::steady_clock::time_point enqueue_time;
    bool done = false;  // Guarded by the scheduler mutex.
  };

  /// Enqueues (honoring backpressure) and blocks until the request is done.
  Status Submit(Request* request);

  void SchedulerLoop();

  std::shared_ptr<const core::ExplorationModel> model_;
  const data::Table* table_;
  CoalescedScanOptions options_;

  mutable std::mutex mu_;
  std::condition_variable scheduler_cv_;  // Wakes the scheduler thread.
  std::condition_variable submit_cv_;     // Wakes submitters: done, capacity.
  std::deque<Request*> queue_;            // Guarded by mu_.
  int64_t pending_ = 0;                   // Queued + in flight; guarded by mu_.
  bool stopping_ = false;                 // Guarded by mu_.
  CoalescedScanStats stats_;              // Guarded by mu_.
  std::thread scheduler_;                 // Last member: joins before the rest.
};

}  // namespace lte::serving

#endif  // LTE_SERVING_COALESCED_SCAN_SCHEDULER_H_
