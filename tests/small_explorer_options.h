#ifndef LTE_TESTS_SMALL_EXPLORER_OPTIONS_H_
#define LTE_TESTS_SMALL_EXPLORER_OPTIONS_H_

// The scaled-down explorer every model-backed test pretrains: a few
// meta-tasks and epochs, a 12-wide learner, 3 GMM components and 3 Jenks
// intervals. The golden fixtures of session_format_migration_test were
// trained with exactly these options (fingerprint 0x896816A5A8EC51FB), so a
// change here re-pins them.

#include "core/exploration_model.h"

namespace lte::core {

inline ExplorerOptions SmallExplorerOptions() {
  ExplorerOptions opt;
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

}  // namespace lte::core

#endif  // LTE_TESTS_SMALL_EXPLORER_OPTIONS_H_
