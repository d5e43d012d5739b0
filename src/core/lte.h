#ifndef LTE_CORE_LTE_H_
#define LTE_CORE_LTE_H_

/// Umbrella header for the LTE (Learn-to-Explore) public API.
///
/// The framework (ICDE 2023, "Learn to Explore: on Bootstrapping Interactive
/// Data Exploration with Meta-learning") bootstraps explore-by-example data
/// exploration with meta-learned neural classifiers:
///
///   * Offline, `core::ExplorationModel::Pretrain` decomposes the data space
///     into meta-subspaces, generates unsupervised meta-tasks
///     (`core::MetaTaskGenerator`), and meta-trains one memory-augmented
///     classifier per subspace (`core::MetaLearner`, `core::MetaTrain`). The
///     resulting model is immutable and shareable across threads.
///   * Online, each user holds a `core::ExplorationSession` against the
///     shared model: they label a few initial tuples per subspace
///     (`core::ExplorationModel::InitialTuples`), `StartExploration`
///     fast-adapts the meta-learners and (for the Meta* variant) the FP/FN
///     optimizer, after which `PredictRow`/`RetrieveMatches` answer UIR
///     membership for arbitrary tuples.
///
/// See examples/quickstart.cc for a complete walkthrough.

#include "core/exploration_model.h"    // IWYU pragma: export
#include "core/exploration_session.h"  // IWYU pragma: export
#include "core/meta_learner.h"   // IWYU pragma: export
#include "core/meta_task.h"      // IWYU pragma: export
#include "core/meta_trainer.h"   // IWYU pragma: export
#include "core/optimizer_fpfn.h" // IWYU pragma: export
#include "core/query_synthesis.h" // IWYU pragma: export
#include "core/uis_feature.h"    // IWYU pragma: export

#endif  // LTE_CORE_LTE_H_
