#include "core/meta_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace lte::core {

std::vector<EncodedMetaTask> EncodeTasks(
    const std::vector<MetaTask>& tasks,
    const preprocess::TabularEncoder& encoder,
    const std::vector<int64_t>& attrs, int64_t num_threads) {
  std::vector<EncodedMetaTask> out(tasks.size());
  ThreadPool::Shared().ParallelFor(
      0, static_cast<int64_t>(tasks.size()), ResolveThreadCount(num_threads),
      [&](int64_t i) {
        const MetaTask& t = tasks[static_cast<size_t>(i)];
        EncodedMetaTask& e = out[static_cast<size_t>(i)];
        e.uis_feature = t.uis_feature;
        e.support_y = t.support_labels;
        e.query_y = t.query_labels;
        e.codes_per_row = encoder.ProjectedCodeCount(attrs);
        encoder.EncodePointsCodesInto(attrs, t.support_points, &e.support_x);
        encoder.EncodePointsCodesInto(attrs, t.query_points, &e.query_x);
      });
  return out;
}

void LocallyAdapt(TaskModel* model, CodeRows x, const std::vector<double>& y,
                  int64_t steps, int64_t batch_size, double lr, Rng* rng,
                  double max_grad_norm) {
  LTE_CHECK(!y.empty());
  LTE_CHECK_EQ(x.num_rows(), static_cast<int64_t>(y.size()));
  LTE_CHECK_GT(batch_size, 0);
  const auto n = static_cast<int64_t>(y.size());
  // Each step names its minibatch by row index, and one scratch serves
  // every step.
  TaskModel::BatchScratch scratch;
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  int64_t cursor = n;  // Forces an initial shuffle.
  std::vector<int64_t> batch(static_cast<size_t>(std::min(batch_size, n)));

  for (int64_t step = 0; step < steps; ++step) {
    for (int64_t& idx : batch) {
      if (cursor >= n) {
        rng->Shuffle(&order);
        cursor = 0;
      }
      idx = order[static_cast<size_t>(cursor++)];
    }
    // Every ApplyAccumulated ends by zeroing the accumulators, so only the
    // first step needs a fresh start.
    if (step == 0) model->ZeroGrad();
    model->AccumulateBatch(x, y, batch, &scratch);
    model->ApplyAccumulated(lr, max_grad_norm);
  }
}

namespace {

// One-step global update: φ ⇐ φ − λ/|batch| · Σ ∇ (Eq. 13).
void ApplyGlobal(nn::Mlp* phi, const std::vector<double>& grad_sum,
                 double lr, int64_t batch) {
  std::vector<double> params = phi->GetParameters();
  const double scale = lr / static_cast<double>(batch);
  LTE_CHECK_EQ(params.size(), grad_sum.size());
  for (size_t i = 0; i < params.size(); ++i) params[i] -= scale * grad_sum[i];
  phi->SetParameters(params);
}

}  // namespace

Status CheckMetaTrainerOptions(const MetaTrainerOptions& options) {
  if (options.epochs <= 0 || options.task_batch_size <= 0 ||
      options.local_steps < 0 || options.local_batch_size <= 0) {
    return Status::InvalidArgument("meta-train: invalid options");
  }
  // A NaN or negative rate would train to NaN or ascend the loss, and
  // still report OK.
  const std::pair<const char*, double> lrs[] = {
      {"local_lr", options.local_lr}, {"global_lr", options.global_lr}};
  for (const auto& [name, lr] : lrs) {
    if (!std::isfinite(lr) || lr <= 0.0) {
      return Status::InvalidArgument(std::string("meta-train: ") + name +
                                     " must be finite and > 0");
    }
  }
  const std::pair<const char*, double> rates[] = {
      {"eta", options.eta}, {"beta", options.beta}, {"gamma", options.gamma}};
  for (const auto& [name, rate] : rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument(std::string("meta-train: ") + name +
                                     " must be in [0, 1]");
    }
  }
  return Status::OK();
}

Status MetaTrain(const std::vector<EncodedMetaTask>& tasks,
                 const MetaTrainerOptions& options, Rng* rng,
                 MetaLearner* learner, MetaTrainStats* stats) {
  if (tasks.empty()) {
    return Status::InvalidArgument("meta-train: empty task set");
  }
  LTE_RETURN_IF_ERROR(CheckMetaTrainerOptions(options));
  MetaTrainStats local_stats;

  std::vector<int64_t> order(tasks.size());
  std::iota(order.begin(), order.end(), int64_t{0});

  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int64_t counted = 0;

    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options.task_batch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options.task_batch_size));
      const auto batch = static_cast<int64_t>(end - start);

      // Fork one RNG per task up-front so results do not depend on the
      // thread count or execution order.
      std::vector<Rng> task_rngs;
      task_rngs.reserve(static_cast<size_t>(batch));
      for (int64_t i = 0; i < batch; ++i) task_rngs.push_back(rng->Fork());

      // Local phase (Algorithm 2 lines 4-10) per task, against the globals
      // snapshotted at batch start; tasks are independent, so they can run
      // on worker threads. Each slot holds the adapted model plus its
      // query-set loss.
      struct TaskResult {
        TaskModel model;
        double query_loss = 0.0;
      };
      std::vector<TaskResult> results(static_cast<size_t>(batch));
      auto run_task = [&](int64_t i) {
        const EncodedMetaTask& task =
            tasks[static_cast<size_t>(order[start + static_cast<size_t>(i)])];
        TaskModel tm = learner->CreateTaskModel(task.uis_feature);
        LocallyAdapt(&tm, task.support(), task.support_y, options.local_steps,
                     options.local_batch_size, options.local_lr,
                     &task_rngs[static_cast<size_t>(i)]);
        // Global phase contribution (lines 12-13): query-set gradients at
        // the adapted parameters (first-order meta-gradient; the paper's
        // one-step update "like [54]").
        tm.ZeroGrad();
        TaskModel::BatchScratch scratch;
        results[static_cast<size_t>(i)].query_loss =
            tm.AccumulateBatch(task.query(), task.query_y, {}, &scratch);
        results[static_cast<size_t>(i)].model = std::move(tm);
      };

      // Fan the batch out on the shared pool (no per-batch thread spawns —
      // batches are the inner loop of training, so wake-up cost matters).
      ThreadPool::Shared().ParallelFor(
          0, batch, ResolveThreadCount(options.num_threads), run_task);

      // Aggregate in task order (thread-count invariant), then the one-step
      // global update and the memory writes. Under FOMAML the aggregate is
      // the query-set gradients at the adapted parameters; under Reptile it
      // is (φ − θ̂) per block, so the same descent step moves φ toward θ̂.
      const bool reptile = options.algorithm == MetaAlgorithm::kReptile;
      const std::vector<double> phi_r = learner->phi_r().GetParameters();
      const std::vector<double> phi_tau = learner->phi_tau().GetParameters();
      const std::vector<double> phi_clf = learner->phi_clf().GetParameters();
      // *sum += φ − θ̂, elementwise.
      auto add_reptile_delta = [](const std::vector<double>& phi,
                                  const std::vector<double>& theta,
                                  std::vector<double>* sum) {
        for (size_t j = 0; j < phi.size(); ++j) (*sum)[j] += phi[j] - theta[j];
      };

      std::vector<double> grad_r(phi_r.size(), 0.0);
      std::vector<double> grad_tau(phi_tau.size(), 0.0);
      std::vector<double> grad_clf(phi_clf.size(), 0.0);
      for (int64_t i = 0; i < batch; ++i) {
        const TaskModel& tm = results[static_cast<size_t>(i)].model;
        epoch_loss += results[static_cast<size_t>(i)].query_loss;
        ++counted;
        if (reptile) {
          add_reptile_delta(phi_r, tm.f_r().GetParameters(), &grad_r);
          add_reptile_delta(phi_tau, tm.f_tau().GetParameters(), &grad_tau);
          add_reptile_delta(phi_clf, tm.f_clf().GetParameters(), &grad_clf);
        } else {
          tm.f_r().AddGradientsTo(grad_r);
          tm.f_tau().AddGradientsTo(grad_tau);
          tm.f_clf().AddGradientsTo(grad_clf);
        }
        learner->UpdateMemories(tm, options.eta, options.beta, options.gamma);
      }

      ApplyGlobal(learner->mutable_phi_r(), grad_r, options.global_lr, batch);
      ApplyGlobal(learner->mutable_phi_tau(), grad_tau, options.global_lr,
                  batch);
      ApplyGlobal(learner->mutable_phi_clf(), grad_clf, options.global_lr,
                  batch);
    }
    local_stats.epoch_query_loss.push_back(
        counted > 0 ? epoch_loss / static_cast<double>(counted) : 0.0);
  }
  if (stats != nullptr) *stats = std::move(local_stats);
  return Status::OK();
}

}  // namespace lte::core
