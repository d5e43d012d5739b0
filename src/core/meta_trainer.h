#ifndef LTE_CORE_META_TRAINER_H_
#define LTE_CORE_META_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/codes.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/meta_learner.h"
#include "core/meta_task.h"
#include "preprocess/tabular_encoder.h"

namespace lte::core {

/// A meta-task with pre-encoded support/query tuples, ready for training:
/// `support_x`/`query_x` hold one code row of `codes_per_row` codes per
/// label (TabularEncoder::EncodePointsCodesInto).
struct EncodedMetaTask {
  std::vector<double> uis_feature;
  std::vector<Code> support_x;
  std::vector<double> support_y;
  std::vector<Code> query_x;
  std::vector<double> query_y;
  int64_t codes_per_row = 0;

  CodeRows support() const { return {support_x, codes_per_row}; }
  CodeRows query() const { return {query_x, codes_per_row}; }
};

/// Encodes a generated task set (raw points over `attrs`) once so every
/// training epoch reuses it. Tasks are encoded across up to `num_threads`
/// pool lanes (0 = auto, one lane per hardware thread; 1 = sequential); the
/// output is identical for any thread count.
std::vector<EncodedMetaTask> EncodeTasks(
    const std::vector<MetaTask>& tasks,
    const preprocess::TabularEncoder& encoder,
    const std::vector<int64_t>& attrs, int64_t num_threads = 1);

/// The meta-gradient used by the global update. The paper's framework is
/// "orthogonal to all existing MAML-based meta-learning algorithms"
/// (Section VI-B); both realizations below share the task generation, the
/// classifier, and the memories, differing only in Eq. 13's gradient.
enum class MetaAlgorithm {
  /// First-order MAML: the global step descends the query-set gradient
  /// evaluated at the locally adapted parameters (the paper's one-step
  /// update "like [54]").
  kFomaml,
  /// Reptile (Nichol et al.): the global step moves φ toward the locally
  /// adapted parameters, φ ⇐ φ + λ·mean(θ̂ − φ); no query-set gradient.
  kReptile,
};

/// Hyper-parameters of Algorithm 2 (paper Section VI-C and VIII-A).
///
/// What drives meta-learning quality is the total number of *global* update
/// steps, epochs x |T^M| / task_batch_size: the paper runs 4 epochs over
/// 15000 tasks (~4000 global steps). The library defaults are tuned for the
/// scaled-down regime (a few hundred tasks), trading more epochs for fewer
/// tasks; at paper scale set epochs=4, local_steps=30 to match the paper.
struct MetaTrainerOptions {
  int64_t epochs = 20;
  /// Tasks per global one-step update ("training batch size", paper: 15).
  int64_t task_batch_size = 15;
  /// Local SGD steps per task ("training step size", paper: 30).
  int64_t local_steps = 5;
  /// Support-set minibatch per local step.
  int64_t local_batch_size = 10;
  /// ρ: local learning rate (Eq. 12).
  double local_lr = 0.2;
  /// λ: global learning rate (Eq. 13).
  double global_lr = 0.3;
  /// η, β, γ: memory write rates (Eq. 14-16).
  double eta = 0.05;
  double beta = 0.05;
  double gamma = 0.05;
  MetaAlgorithm algorithm = MetaAlgorithm::kFomaml;
  /// Pool lanes for the per-task local adaptations within a batch (tasks
  /// are independent given the batch-start globals), run on the process-wide
  /// ThreadPool. 0 = auto (one lane per hardware thread), 1 = the exact
  /// legacy sequential loop. Results are bit-identical for any thread
  /// count: every task draws from its own deterministically forked RNG,
  /// gradients aggregate in task order, and memory writes apply in task
  /// order after the batch joins.
  int64_t num_threads = 0;
};

/// Per-epoch summary returned by Train.
struct MetaTrainStats {
  /// Mean query-set loss of the adapted models, per epoch.
  std::vector<double> epoch_query_loss;
};

/// Runs one local adaptation (the underlined steps of Algorithm 2): `steps`
/// SGD steps of minibatches drawn from the labelled set, with gradient
/// clipping (`max_grad_norm`; <= 0 disables). This same routine fast-adapts
/// the meta-learner online with user labels. `x` holds one encoded tuple per
/// label in `y`, as code rows; each step names its minibatch by row index
/// and runs AccumulateBatch on one TaskModel::BatchScratch, the buffers of
/// the batch forward that scoring uses too, so the allocations of a call
/// do not grow with `steps`. Requires a non-empty set and `batch_size` > 0.
void LocallyAdapt(TaskModel* model, CodeRows x, const std::vector<double>& y,
                  int64_t steps, int64_t batch_size, double lr, Rng* rng,
                  double max_grad_norm = 1.0);

/// OK when `options` describe a schedule MetaTrain can run: epochs, task
/// batch and local batch > 0, local steps >= 0, finite learning rates
/// ρ (local_lr) and λ (global_lr) > 0, and finite memory rates η, β, γ in
/// [0, 1]. Otherwise InvalidArgument naming the first bad field.
Status CheckMetaTrainerOptions(const MetaTrainerOptions& options);

/// Meta-trains `learner` over `tasks` (paper Algorithm 2): per task, a local
/// adaptation on the support set, then a first-order one-step global update
/// aggregating the query-set gradients of the adapted models across the task
/// batch, plus the attentive memory writes. Fails, before any work and
/// leaving `learner` and `rng` untouched, on an empty task set or options
/// CheckMetaTrainerOptions rejects.
Status MetaTrain(const std::vector<EncodedMetaTask>& tasks,
                 const MetaTrainerOptions& options, Rng* rng,
                 MetaLearner* learner, MetaTrainStats* stats);

}  // namespace lte::core

#endif  // LTE_CORE_META_TRAINER_H_
