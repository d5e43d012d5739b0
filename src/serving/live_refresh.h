#ifndef LTE_SERVING_LIVE_REFRESH_H_
#define LTE_SERVING_LIVE_REFRESH_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/drift.h"
#include "common/status.h"
#include "data/subspace.h"
#include "data/table.h"
#include "serving/model_registry.h"

namespace lte::serving {

/// Knobs of the drift-triggered background refresh (DESIGN.md §2e).
struct DriftRefreshOptions {
  /// Per-subspace drift detection thresholds and window size.
  cluster::DriftDetectorOptions drift;
  /// Seed base of the background rebuild: the rebuild that publishes epoch e
  /// pretrains with `Rng(rebuild_seed + e)`. Together with the row-count
  /// watermark this makes every published model a pure function of
  /// (prefix rows, options, seed, epoch) — the determinism argument in
  /// DESIGN.md §2e, enforced by `LiveRefreshTest.RebuildIsDeterministic`.
  uint64_t rebuild_seed = 17;
};

/// Running totals since construction.
struct DriftRefreshStats {
  /// AppendAndObserve calls accepted.
  int64_t batches_observed = 0;
  /// Rows appended through this controller.
  int64_t rows_observed = 0;
  /// Background rebuilds started (drift fired while no rebuild was in
  /// flight).
  int64_t refreshes_triggered = 0;
  /// Rebuilds that published a new epoch.
  int64_t refreshes_completed = 0;
  /// Rebuilds whose Pretrain failed (the old epoch stays current).
  int64_t refresh_failures = 0;
  /// Epoch of the most recent successful publish; 0 before the first.
  uint64_t last_published_epoch = 0;
};

/// The live-table refresh loop: append → drift-detect → background rebuild →
/// atomic epoch publish (paper Section V-E "dynamic maintenance"; DESIGN.md
/// §2e).
///
/// The controller owns the ingest side of a live serving host. Each
/// `AppendAndObserve` batch is sealed into the table (readers keep serving
/// throughout) and streamed through one `cluster::DriftDetector` per
/// subspace, seeded from the *current* model's clustering contexts. When any
/// subspace drifts, a background worker thread snapshots the table at the
/// current row watermark, re-runs the full offline phase (clustering,
/// meta-task generation, meta-training — fanning out on the process-wide
/// ThreadPool like any Pretrain), and publishes the result through the
/// registry's atomic epoch bump. Live sessions finish on their pinned
/// snapshots; new sessions bind to the new epoch; the detectors re-seed from
/// the new contexts so subsequent drift is judged against what the refreshed
/// model actually learned.
///
/// Serving stays on the request path the whole time: the only work
/// `AppendAndObserve` does inline is the segment seal and the detector
/// update (a per-row nearest-center pass), both O(batch).
///
/// Thread-safety: `AppendAndObserve` is single-writer (one ingest thread),
/// matching `Table::AppendRows`. Everything else — stats, WaitForRefresh,
/// concurrent readers of the table and registry — may run from any thread.
/// The destructor joins any in-flight rebuild.
class DriftRefreshController {
 public:
  /// Watches `table` (not owned; this controller must be its only appender)
  /// and publishes refreshed models into `registry` (not owned). `subspaces`
  /// must be the subspace layout the registry's current model was pretrained
  /// on; rebuilds reuse it together with the current model's options and
  /// meta-training flag. Detectors seed from the current model's clustering
  /// contexts.
  DriftRefreshController(ModelRegistry* registry, data::Table* table,
                         std::vector<data::Subspace> subspaces,
                         DriftRefreshOptions options = {});

  /// Joins an in-flight rebuild, then returns. A rebuild that completes
  /// during destruction still publishes (the registry outlives this).
  ~DriftRefreshController();

  DriftRefreshController(const DriftRefreshController&) = delete;
  DriftRefreshController& operator=(const DriftRefreshController&) = delete;

  /// Seals `rows` into the table (`Table::AppendRows`), streams their
  /// subspace projections through the drift detectors, and — when a detector
  /// reports drift and no rebuild is already in flight — starts the
  /// background rebuild at the post-append row watermark. Returns the append
  /// error unchanged when sealing fails (nothing is observed); detector and
  /// trigger bookkeeping cannot fail.
  Status AppendAndObserve(const std::vector<std::vector<double>>& rows);

  /// Blocks until no rebuild is in flight (returns immediately when idle).
  void WaitForRefresh();

  /// Latest per-subspace drift verdicts (diagnostics; recomputed on call).
  bool AnySubspaceDrifted() const;

  DriftRefreshStats stats() const;

 private:
  /// Re-seeds the detectors from `model`'s clustering contexts. Caller holds
  /// `mu_`.
  void ReseedDetectorsLocked(const core::ExplorationModel& model);

  /// Background worker body: snapshot rows [0, watermark), pretrain with the
  /// epoch-derived seed, publish, re-seed detectors.
  void RunRefresh(int64_t watermark, uint64_t next_epoch);

  ModelRegistry* registry_;
  data::Table* table_;
  const std::vector<data::Subspace> subspaces_;
  const DriftRefreshOptions options_;
  const bool train_meta_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::vector<cluster::DriftDetector> detectors_;  // One per subspace.
  bool refresh_in_flight_ = false;
  DriftRefreshStats stats_;
  std::thread worker_;  // Joined before relaunch and at destruction.
};

}  // namespace lte::serving

#endif  // LTE_SERVING_LIVE_REFRESH_H_
