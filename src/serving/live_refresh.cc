#include "serving/live_refresh.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/meta_task.h"

namespace lte::serving {

DriftRefreshController::DriftRefreshController(
    ModelRegistry* registry, data::Table* table,
    std::vector<data::Subspace> subspaces, DriftRefreshOptions options)
    : registry_(registry),
      table_(table),
      subspaces_(std::move(subspaces)),
      options_(options),
      train_meta_(registry != nullptr &&
                  registry->Current().model->meta_trained()) {
  LTE_CHECK(registry != nullptr);
  LTE_CHECK(table != nullptr);
  const ModelSnapshot snapshot = registry_->Current();
  LTE_CHECK_EQ(static_cast<int64_t>(subspaces_.size()),
               snapshot.model->num_subspaces());
  const std::lock_guard<std::mutex> lock(mu_);
  ReseedDetectorsLocked(*snapshot.model);
}

DriftRefreshController::~DriftRefreshController() {
  if (worker_.joinable()) worker_.join();
}

void DriftRefreshController::ReseedDetectorsLocked(
    const core::ExplorationModel& model) {
  detectors_.clear();
  detectors_.reserve(subspaces_.size());
  for (int64_t s = 0; s < static_cast<int64_t>(subspaces_.size()); ++s) {
    const core::MetaTaskGenerator* gen = model.generator(s);
    LTE_CHECK(gen != nullptr);
    const core::SubspaceContext& ctx = gen->context();
    detectors_.emplace_back(ctx.centers_s, ctx.sample_points, options_.drift);
  }
}

Status DriftRefreshController::AppendAndObserve(
    const std::vector<std::vector<double>>& rows) {
  LTE_RETURN_IF_ERROR(table_->AppendRows(rows));
  const int64_t watermark = table_->num_rows();

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.batches_observed;
  stats_.rows_observed += static_cast<int64_t>(rows.size());
  std::vector<double> point;
  for (size_t s = 0; s < subspaces_.size(); ++s) {
    const std::vector<int64_t>& attrs = subspaces_[s].attribute_indices;
    for (const std::vector<double>& row : rows) {
      point.clear();
      for (int64_t a : attrs) point.push_back(row[static_cast<size_t>(a)]);
      detectors_[s].Offer(point);
    }
  }

  bool drifted = false;
  for (const cluster::DriftDetector& d : detectors_) {
    if (d.Drifted()) {
      drifted = true;
      break;
    }
  }
  if (!drifted || refresh_in_flight_) return Status::OK();

  // One rebuild at a time: the previous worker (if any) has finished —
  // refresh_in_flight_ is false — but its thread object still needs joining
  // before reuse.
  if (worker_.joinable()) worker_.join();
  refresh_in_flight_ = true;
  ++stats_.refreshes_triggered;
  const uint64_t next_epoch = registry_->current_epoch() + 1;
  worker_ = std::thread([this, watermark, next_epoch] {
    RunRefresh(watermark, next_epoch);
  });
  return Status::OK();
}

void DriftRefreshController::RunRefresh(int64_t watermark,
                                        uint64_t next_epoch) {
  // Deterministic rebuild input: exactly the rows visible when drift fired,
  // unaffected by whatever the live table appends while we train.
  const data::Table snapshot = table_->SnapshotPrefix(watermark);
  const ModelSnapshot current = registry_->Current();
  auto next = std::make_shared<core::ExplorationModel>(
      current.model->options());
  Rng rng(options_.rebuild_seed + next_epoch);
  const Status st = next->Pretrain(snapshot, subspaces_, train_meta_, &rng);

  const std::lock_guard<std::mutex> lock(mu_);
  if (st.ok()) {
    const uint64_t epoch = registry_->Publish(next);
    ReseedDetectorsLocked(*next);
    ++stats_.refreshes_completed;
    stats_.last_published_epoch = epoch;
  } else {
    // The old epoch stays current; detectors keep their state, so the next
    // drifting batch retries the rebuild.
    ++stats_.refresh_failures;
  }
  refresh_in_flight_ = false;
  idle_cv_.notify_all();
}

void DriftRefreshController::WaitForRefresh() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !refresh_in_flight_; });
}

bool DriftRefreshController::AnySubspaceDrifted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const cluster::DriftDetector& d : detectors_) {
    if (d.Drifted()) return true;
  }
  return false;
}

DriftRefreshStats DriftRefreshController::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lte::serving
