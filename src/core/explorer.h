#ifndef LTE_CORE_EXPLORER_H_
#define LTE_CORE_EXPLORER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/subspace.h"
#include "data/table.h"
#include "preprocess/tabular_encoder.h"

namespace lte::core {

/// The LTE framework: offline meta-learning over the meta-subspaces of a
/// table, then few-shot online exploration (paper Figure 2).
///
/// `Explorer` is a thin facade bundling one `ExplorationModel` (the shared,
/// immutable offline artifacts) with one default `ExplorationSession` (this
/// user's online state) — the natural shape for a single-user program:
///
///   Explorer ex(options);
///   ex.Pretrain(table, subspaces, /*train_meta=*/true, &rng);
///   // Collect user labels for *ex.InitialTuples(s) in every subspace s...
///   ex.StartExploration(labels, Variant::kMetaStar, &rng);
///   bool interesting = ex.PredictRow(row).value_or(0.0) > 0.5;
///
/// Multi-user serving skips the facade: build one shared
/// `ExplorationModel` and attach one `ExplorationSession` per concurrent
/// user — or attach extra sessions to `ex.model_handle()` alongside the
/// facade's own. See exploration_session.h for the per-class thread-safety
/// contract and serving/model_registry.h for epoch-versioned hosting.
///
/// Misuse-error contract: the query surface never aborts on out-of-range or
/// premature calls. Accessors taking a subspace index return nullptr,
/// predictions return std::nullopt, and the batch/retrieval entry points
/// return a Status — an LTE_CHECK abort is reachable only through genuine
/// internal invariant violations, not through caller mistakes.
class Explorer {
 public:
  explicit Explorer(ExplorerOptions options)
      : model_(std::make_shared<ExplorationModel>(options)),
        session_(model_) {}

  // The facade's single-user semantics (Pretrain/LoadModel mutate the model
  // in place) do not compose with copies sharing one model.
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// The shared offline artifacts.
  const ExplorationModel& model() const { return *model_; }

  /// Snapshot handle on the facade's model: attach additional
  /// ExplorationSessions to it to serve more users against the facade's
  /// training. The handle pins the model alive independently of the facade.
  std::shared_ptr<const ExplorationModel> model_handle() const {
    return model_;
  }

  /// The facade's own online session.
  const ExplorationSession& session() const { return session_; }
  ExplorationSession* mutable_session() { return &session_; }

  /// Offline phase: fits the tabular encoder, runs the clustering step per
  /// subspace, selects the initial tuples, and — when `train_meta` is set —
  /// generates meta-tasks and meta-trains one meta-learner per subspace.
  /// `train_meta=false` prepares the Basic variant (no pre-training cost).
  /// Drops any previous online state.
  Status Pretrain(const data::Table& table,
                  const std::vector<data::Subspace>& subspaces,
                  bool train_meta, Rng* rng) {
    session_.Reset();
    return model_->Pretrain(table, subspaces, train_meta, rng);
  }

  int64_t num_subspaces() const { return model_->num_subspaces(); }

  /// The `s`-th meta-subspace, or nullptr when `s` is out of
  /// [0, num_subspaces()).
  const data::Subspace* subspace(int64_t s) const {
    return model_->subspace(s);
  }

  /// The tuples of subspace `s` the user labels during initial exploration:
  /// the k_s cluster centers of C^s followed by Δ random tuples, in raw
  /// subspace coordinates. Fixed after Pretrain. Returns nullptr before
  /// Pretrain or when `s` is out of range.
  const std::vector<std::vector<double>>* InitialTuples(int64_t s) const {
    return model_->InitialTuples(s);
  }

  /// Online phase: `labels_per_subspace[s][i]` is the 0/1 label of
  /// (*InitialTuples(s))[i]. Fast-adapts a task model per subspace (and
  /// builds the FP/FN optimizer for Meta*). Providing labels for only the
  /// first k subspaces explores a k-subspace prefix of the interest space
  /// (the dimensionality sweeps of the paper's Figures 4 and 7(c) use this);
  /// PredictRow then conjoins only those subspaces. Fails if Pretrain has
  /// not run, label shapes mismatch, or a meta variant is requested without
  /// meta-training.
  ///
  /// Subspaces adapt in parallel lanes capped by `options().num_threads`;
  /// subspace s trains on its own `Rng::Fork(s)` stream split from one
  /// `rng->Fork()` base, so the adapted models are bit-identical at any
  /// thread count (rng itself advances by exactly one draw).
  Status StartExploration(
      const std::vector<std::vector<double>>& labels_per_subspace,
      Variant variant, Rng* rng) {
    return session_.StartExploration(labels_per_subspace, variant, rng);
  }

  /// Number of subspaces adapted by the last StartExploration.
  int64_t active_subspaces() const { return session_.active_subspaces(); }

  /// Active-learning hook (paper Section III-B "Iterative exploration"):
  /// scores `candidates` (raw subspace-`s` points) through the batch
  /// kernels, then lets the subspace's exploration policy (default:
  /// uncertainty sampling) pick the `k` tuples most worth asking the user
  /// about next; their indices land in `*suggested` in selection order
  /// (fewer when `candidates` is smaller than `k`). Mutating under the
  /// single-writer contract: stochastic policies advance the session rng.
  /// Fails if StartExploration has not adapted subspace `s`, `k` is
  /// negative, a candidate's width differs from the subspace's, or the
  /// policy is stochastic and the session has no rng.
  Status SuggestTuples(int64_t s,
                       const std::vector<std::vector<double>>& candidates,
                       int64_t k, std::vector<int64_t>* suggested) {
    return session_.SuggestTuples(s, candidates, k, suggested);
  }

  /// Replaces subspace `s`'s exploration policy (the default comes from
  /// `options().suggest_policy`). See
  /// `ExplorationSession::ConfigureSuggestPolicy` for the rng and
  /// persistence contract.
  Status ConfigureSuggestPolicy(int64_t s,
                                const policy::PolicyOptions& options) {
    return session_.ConfigureSuggestPolicy(s, options);
  }

  /// Iterative exploration (paper Section III-B, "Other IDE Modules"):
  /// feeds additional labelled tuples of subspace `s` (raw subspace
  /// coordinates) through the same local-update path, continuing from the
  /// current adapted state. Use after StartExploration, e.g. from an active-
  /// learning loop that keeps querying the user.
  Status ContinueExploration(int64_t s,
                             const std::vector<std::vector<double>>& points,
                             const std::vector<double>& labels, Rng* rng) {
    return session_.ContinueExploration(s, points, labels, rng);
  }

  /// 1.0 when the adapted models consider the subspace point interesting,
  /// 0.0 when not; std::nullopt when `s` is out of range, subspace `s` has
  /// not been adapted by StartExploration, or `point`'s width differs from
  /// the subspace's.
  std::optional<double> PredictSubspace(
      int64_t s, const std::vector<double>& point) const {
    return session_.PredictSubspace(s, point);
  }

  /// Conjunctive UIR membership of a full-width table row (paper Section
  /// III-A: R^u = ∧ R_i): 1.0 / 0.0, or std::nullopt before
  /// StartExploration or when `row` is too narrow for an active subspace.
  std::optional<double> PredictRow(const std::vector<double>& row) const {
    return session_.PredictRow(row);
  }

  /// Batch counterpart of PredictRow and the primitive RetrieveMatches and
  /// the bench harness build on: evaluates the conjunctive membership of the
  /// given `rows` of `table` and stores one 0.0/1.0 per index (in input
  /// order) in `*predictions`. Rows are scanned in parallel lanes capped by
  /// `options().num_threads`, each lane writing disjoint per-index slots, so
  /// the output is bit-identical at any thread count. Fails before
  /// StartExploration, when `table` is narrower than an active subspace's
  /// attributes, or on an out-of-range row index.
  Status PredictRows(const data::Table& table, std::span<const int64_t> rows,
                     std::vector<double>* predictions) const {
    return session_.PredictRows(table, rows, predictions);
  }

  /// Final retrieval (paper Section III-B): scans `table` and stores the row
  /// indices the adapted classifiers predict interesting — in ascending row
  /// order — in `*matches`. `limit < 0` scans everything, `limit == 0`
  /// returns an empty result, and `limit > 0` truncates to the first `limit`
  /// matches in row order. The block scan runs in parallel lanes capped by
  /// `options().num_threads`; with a positive `limit` lanes stop claiming
  /// blocks once the matches already found cover it, and the result is
  /// bit-identical at any thread count. Fails before StartExploration or
  /// when `table` is narrower than an active subspace's attributes.
  Status RetrieveMatches(const data::Table& table, int64_t limit,
                         std::vector<int64_t>* matches) const {
    return session_.RetrieveMatches(table, limit, matches);
  }

  /// Per-subspace generator (exposes the clustering context), or nullptr
  /// before Pretrain or when `s` is out of range.
  const MetaTaskGenerator* generator(int64_t s) const {
    return model_->generator(s);
  }
  const preprocess::TabularEncoder& encoder() const {
    return model_->encoder();
  }
  const ExplorerOptions& options() const { return model_->options(); }
  bool meta_trained() const { return model_->meta_trained(); }

  /// Pre-training statistics (for the Figure 8(b) cost analysis). Summed
  /// over subspaces, i.e. total work; with num_threads > 1 the subspaces
  /// overlap in time, so wall clock is lower than these totals.
  double task_generation_seconds() const {
    return model_->task_generation_seconds();
  }
  double meta_training_seconds() const {
    return model_->meta_training_seconds();
  }

  /// Model persistence: writes the full pre-trained state (options, tabular
  /// encoder, per-subspace clustering contexts, initial tuples, and trained
  /// meta-learners) to `path`. Offline training and online serving can then
  /// live in separate processes. Requires Pretrain to have run. The format
  /// is `ExplorationModel`'s — files round-trip freely between the facade
  /// and a bare model.
  Status Save(const std::string& path) const { return model_->Save(path); }

  /// Restores a pre-trained model saved by Save (or by
  /// `ExplorationModel::Save`), replacing this instance's state. Online
  /// exploration (StartExploration/PredictRow) is available immediately; no
  /// re-clustering or re-training happens. The threading knob
  /// (`num_threads`) is a property of the serving host, not of the model, so
  /// the constructed value survives the load. Drops any previous online
  /// state.
  Status LoadModel(const std::string& path) {
    session_.Reset();
    return model_->Load(path);
  }

  /// Session persistence for the facade's own session: writes this user's
  /// online state (adapted task models, labeled-tuple history, session rng)
  /// stamped with `model().fingerprint()`. See
  /// `ExplorationSession::Save/Load` for the format and failure contract —
  /// in particular, a session saved against one model refuses to load
  /// against a facade whose model was retrained or replaced
  /// (FailedPrecondition, both fingerprints in the message).
  Status SaveSession(const std::string& path) const {
    return session_.Save(path);
  }
  Status LoadSession(const std::string& path) { return session_.Load(path); }

 private:
  std::shared_ptr<ExplorationModel> model_;
  ExplorationSession session_;
};

}  // namespace lte::core

#endif  // LTE_CORE_EXPLORER_H_
