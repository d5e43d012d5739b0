#include "serving/coalesced_scan_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lte::serving {

CoalescedScanScheduler::CoalescedScanScheduler(
    std::shared_ptr<const core::ExplorationModel> model,
    const data::Table* table, CoalescedScanOptions options)
    : model_(std::move(model)), table_(table), options_(options) {
  LTE_CHECK(model_ != nullptr);
  LTE_CHECK(table != nullptr);
  options_.max_batch_requests =
      std::max<int64_t>(options_.max_batch_requests, 1);
  options_.max_pending_requests = std::max<int64_t>(
      options_.max_pending_requests, options_.max_batch_requests);
  options_.flush_deadline_micros =
      std::max<int64_t>(options_.flush_deadline_micros, 0);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

CoalescedScanScheduler::~CoalescedScanScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  scheduler_cv_.notify_all();
  submit_cv_.notify_all();
  scheduler_.join();
}

CoalescedScanStats CoalescedScanScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status CoalescedScanScheduler::RetrieveMatches(
    const core::ExplorationSession& session, int64_t limit,
    std::vector<int64_t>* matches) {
  if (matches == nullptr) {
    return Status::InvalidArgument("scheduler: matches must not be null");
  }
  matches->clear();
  if (&session.model() != model_.get()) {
    return Status::InvalidArgument(
        "scheduler: session is bound to a different model");
  }
  LTE_RETURN_IF_ERROR(session.ValidateServing(*table_));
  if (limit == 0) return Status::OK();  // Only limit < 0 means "unlimited".
  if (table_->num_rows() == 0) return Status::OK();

  Request request;
  request.subscriber.session = &session;
  request.subscriber.matches = matches;
  request.subscriber.limit = limit;
  return Submit(&request);
}

Status CoalescedScanScheduler::Submit(Request* request) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: park the submitter until the scheduler works the
    // pending set below the bound (each completed batch frees capacity).
    submit_cv_.wait(lock, [&] {
      return stopping_ || pending_ < options_.max_pending_requests;
    });
    if (stopping_) {
      return Status::FailedPrecondition("scheduler: shutting down");
    }
    request->enqueue_time = std::chrono::steady_clock::now();
    queue_.push_back(request);
    ++pending_;
  }
  scheduler_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  submit_cv_.wait(lock, [&] { return request->done; });
  return Status::OK();
}

void CoalescedScanScheduler::SchedulerLoop() {
  std::vector<Request*> batch;
  std::vector<core::ScanSubscriber> subscribers;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (queue_.empty()) {
          if (stopping_) return;
          scheduler_cv_.wait(lock);
          continue;
        }
        if (stopping_ ||
            static_cast<int64_t>(queue_.size()) >=
                options_.max_batch_requests) {
          break;
        }
        const auto deadline =
            queue_.front()->enqueue_time +
            std::chrono::microseconds(options_.flush_deadline_micros);
        if (std::chrono::steady_clock::now() >= deadline) break;
        scheduler_cv_.wait_until(lock, deadline);
      }
      const auto take = std::min<int64_t>(
          static_cast<int64_t>(queue_.size()), options_.max_batch_requests);
      batch.assign(queue_.begin(), queue_.begin() + take);
      queue_.erase(queue_.begin(), queue_.begin() + take);
    }

    subscribers.clear();
    for (const Request* request : batch) {
      subscribers.push_back(request->subscriber);
    }
    const core::BlockScanStats pass =
        core::RunBlockScan(*table_, {}, subscribers, options_.num_threads);

    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_ -= static_cast<int64_t>(batch.size());
      stats_.batches += 1;
      stats_.requests += static_cast<int64_t>(batch.size());
      stats_.largest_batch = std::max<int64_t>(
          stats_.largest_batch, static_cast<int64_t>(batch.size()));
      stats_.encode_passes += pass.encode_passes;
      stats_.rows_forwarded += pass.rows_forwarded;
      stats_.rows_located += pass.rows_located;
      for (Request* request : batch) request->done = true;
    }
    submit_cv_.notify_all();
  }
}

}  // namespace lte::serving
