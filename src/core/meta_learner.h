#ifndef LTE_CORE_META_LEARNER_H_
#define LTE_CORE_META_LEARNER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/codes.h"
#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/mlp.h"

namespace lte::core {

/// Architecture and memory configuration of the UIS classifier
/// (paper Section VI-A/VI-B).
struct MetaLearnerOptions {
  /// k_u: length of the UIS feature vector v_R.
  int64_t uis_feature_dim = 100;
  /// N_r: length of the encoded tuple representation v_tau. Must be set.
  int64_t tuple_feature_dim = 0;
  /// N_e: embedding size shared by f_R and f_tau (paper default 100; the
  /// library defaults smaller for CPU-friendly benchmarks).
  int64_t embedding_size = 32;
  /// Hidden layers of the three blocks ({} = single linear layer).
  std::vector<int64_t> uis_hidden = {};
  std::vector<int64_t> tuple_hidden = {};
  std::vector<int64_t> clf_hidden = {32};
  /// Enables the memory-augmented optimization (UIS-feature memory M_R/M_vR
  /// and embedding-conversion memory M_CP). When disabled the classifier is
  /// plain MAML: [emb_R, emb_tau] feeds f_clf directly.
  bool use_memory = true;
  /// m: number of implicit modes stored by each memory.
  int64_t num_memory_modes = 6;
  /// σ: how much the task-wise bias ω_R adjusts φ_R (Eq. 6).
  double sigma = 0.1;
};

class MetaLearner;

/// Task-wise (local) parameters θ = {θ_R, θ_τ, θ_clf} plus the retrieved
/// conversion matrix M_cp, initialized from the meta-learned globals for one
/// task (Eq. 6, 10, 11) and then trained on the task's support set.
class TaskModel {
 public:
  /// Reusable buffers of the batch forward, for scoring
  /// (PredictProbabilityBatch) and for a training step (AccumulateBatch).
  /// The caller owns it — LocallyAdapt keeps one for all of its steps — so
  /// a task model carries no batch state at rest. Capacities reach a steady
  /// state after the first batch, so later calls allocate nothing.
  struct BatchScratch {
    nn::Mlp::Scratch r;    // f_R's one row (training).
    nn::Mlp::Scratch tau;  // f_tau: the rows' embeddings emb_tau.
    nn::Mlp::Scratch clf;  // f_clf, with the emb_R head without memory.
    nn::PackedLayer mcp;   // M_cp's emb_tau half by input.
    std::vector<double> mcp_left;      // N_e: M_cp's emb_R half.
    std::vector<double> clf_in;        // count x N_e: M_cp's output.
    std::vector<double> grad_logit;    // count.
    std::vector<double> grad_clf_in;   // count x N_e.
    std::vector<double> grad_emb_tau;  // count x N_e.
    std::vector<double> grad_emb_r;    // N_e, summed over the batch.
  };

  /// One SGD micro-step's worth of accumulated gradients over a minibatch:
  /// runs a batch forward and backward, adds gradients into the block
  /// accumulators, and returns the mean BCE loss. Call ApplyAccumulated() to
  /// step. Tuple n of the minibatch is code row `rows[n]` of `tuples` (one
  /// row per label) with label `labels[rows[n]]`; empty `rows` = every row
  /// in order. Every accumulator receives exactly the addition sequence of
  /// backpropagating the expanded tuples one at a time in minibatch order,
  /// so the step is bit-identical to the per-tuple reference
  /// (tests/meta_learner_test.cc).
  double AccumulateBatch(CodeRows tuples, std::span<const double> labels,
                         std::span<const int64_t> rows,
                         BatchScratch* scratch);

  /// Applies the accumulated gradients with learning rate `lr` (Eq. 12) and
  /// clears them. When `max_grad_norm` > 0 the joint gradient (all blocks
  /// plus M_cp) is rescaled to that L2 norm if it exceeds it — few-shot
  /// adaptation starts from a well-trained initialization whose early
  /// gradients can be violent; clipping keeps the first steps from
  /// overshooting into a saturated all-negative/all-positive regime.
  void ApplyAccumulated(double lr, double max_grad_norm = 0.0);

  void ZeroGrad();

  /// Classifier output before the sigmoid for one encoded tuple.
  ///
  /// Thread-safety: the first call after a parameter update lazily refreshes
  /// the cached UIS embedding (a benign-looking but real write under const).
  /// Call WarmUisEmbedding() once after the last update before fanning
  /// predictions out across threads; with a warm cache all const methods are
  /// safe to call concurrently.
  double Logit(const std::vector<double>& tuple) const;

  /// P(interesting) for one encoded tuple. Same thread-safety contract as
  /// Logit.
  double PredictProbability(const std::vector<double>& tuple) const;

  /// Block counterpart of PredictProbability, the one batch inference entry:
  /// writes P(interesting) for tuple n into `out[n]`, for `count` code rows
  /// of f_tau's input width: row `rows[n]` of `tuples`, read in place, or
  /// row n when `rows` is empty. Sizes and indices are LTE_CHECKed. Packs
  /// once per call and runs AccumulateBatch's forward over 128-row slices,
  /// so each probability is bit-identical to PredictProbability on the
  /// expanded tuple (Mlp::ForwardBatch). Same thread-safety contract as
  /// Logit.
  void PredictProbabilityBatch(CodeRows tuples, int64_t count,
                               BatchScratch* scratch, std::span<double> out,
                               std::span<const int64_t> rows = {}) const;

  /// Eagerly refreshes the cached UIS embedding emb_R so that subsequent
  /// const predictions perform no writes at all — the required handshake
  /// between adaptation (single-threaded) and serving (parallel scans).
  void WarmUisEmbedding();

  /// Mean BCE loss over a labelled set (no gradient accumulation), one code
  /// row per label: the layout AccumulateBatch reads.
  double EvaluateLoss(CodeRows tuples, std::span<const double> labels) const;

  const std::vector<double>& attention() const { return attention_; }
  const std::vector<double>& uis_feature() const { return uis_feature_; }
  const nn::Mlp& f_r() const { return f_r_; }
  const nn::Mlp& f_tau() const { return f_tau_; }
  const nn::Mlp& f_clf() const { return f_clf_; }

  /// Mutable f_tau and f_clf; the cached emb_R depends on neither.
  nn::Mlp* mutable_f_tau() { return &f_tau_; }
  nn::Mlp* mutable_f_clf() { return &f_clf_; }
  const nn::Matrix& m_cp() const { return m_cp_; }
  const nn::Matrix& grad_m_cp() const { return grad_m_cp_; }

  /// Gradient of θ_R accumulated over every ApplyAccumulated() call so far
  /// (used by the M_R memory update, Eq. 15).
  const std::vector<double>& support_grad_r() const { return support_grad_r_; }

  /// Serialization (session persistence): the adapted parameters θ, the
  /// retrieved M_cp, v_R, the attention, and the accumulated θ_R support
  /// gradient. Per-step gradient accumulators are *not* written — every
  /// adaptation step ends with ApplyAccumulated → ZeroGrad, so a task model
  /// at rest has all-zero accumulators and LoadFrom recreates them fresh.
  void Save(BinaryWriter* writer) const;

  /// Reconstructs a task model from a stream written by Save, validating
  /// block shapes against each other so a corrupted stream surfaces as an
  /// error Status instead of a malformed model. The UIS-embedding cache
  /// starts cold — call WarmUisEmbedding() before fanning out predictions.
  static Status LoadFrom(BinaryReader* reader, TaskModel* out);

 private:
  friend class MetaLearner;

  /// emb_R, refreshed first if a parameter update made it stale.
  const std::vector<double>& UisEmbedding() const;
  /// Packs f_tau, f_clf and M_cp's emb_tau half by input, and evaluates
  /// the terms over `emb_r` that every row shares: M_cp's emb_R half, or
  /// f_clf's first-layer head without memory.
  void PackBatch(std::span<const double> emb_r, BatchScratch* scratch) const;
  /// The batch forward of AccumulateBatch and PredictProbabilityBatch, on
  /// PackBatch's weights: from `count` code rows (row `rows[n]` of
  /// `tuples`, or row n) to their logits, each bit-identical to Logit on
  /// the expanded tuple. Keeps what the backward reads in `*scratch`.
  std::span<const double> ForwardLogits(CodeRows tuples, int64_t count,
                                        std::span<const int64_t> rows,
                                        BatchScratch* scratch) const;

  bool use_memory_ = false;
  std::vector<double> uis_feature_;
  std::vector<double> attention_;
  nn::Mlp f_r_;
  nn::Mlp f_tau_;
  nn::Mlp f_clf_;
  nn::Matrix m_cp_;       // N_e x 2N_e (only when use_memory_).
  nn::Matrix grad_m_cp_;  // Accumulator matching m_cp_.
  std::vector<double> support_grad_r_;

  // emb_R depends only on v_R and θ_R; cache it between parameter updates.
  mutable bool emb_r_valid_ = false;
  mutable std::vector<double> emb_r_cache_;
};

/// The meta-learner C^M_φ: global initialization parameters
/// φ = {φ_R, φ_τ, φ_clf} plus the two memories of Section VI-B.
///
/// `CreateTaskModel` instantiates the task-wise classifier
/// (θ_R = φ_R − σ·ω_R with ω_R = a_R^T M_R; θ_τ = φ_τ; θ_clf = φ_clf;
/// M_cp = a_R^T M_CP), which the caller adapts on labelled tuples — the
/// meta-trainer offline, the explorer online.
class MetaLearner {
 public:
  MetaLearner(MetaLearnerOptions options, Rng* rng);

  const MetaLearnerOptions& options() const { return options_; }

  /// Attention a_R over the m memory modes: softmax of cosine similarities
  /// between v_R and the rows of M_vR (Eq. 7). All-uniform when memories are
  /// disabled.
  std::vector<double> Attention(const std::vector<double>& uis_feature) const;

  /// Instantiates the task-wise classifier for a task with feature v_R.
  TaskModel CreateTaskModel(const std::vector<double>& uis_feature) const;

  /// Global parameter access for the meta-trainer's one-step global update
  /// (Eq. 13).
  nn::Mlp* mutable_phi_r() { return &phi_r_; }
  nn::Mlp* mutable_phi_tau() { return &phi_tau_; }
  nn::Mlp* mutable_phi_clf() { return &phi_clf_; }
  const nn::Mlp& phi_r() const { return phi_r_; }
  const nn::Mlp& phi_tau() const { return phi_tau_; }
  const nn::Mlp& phi_clf() const { return phi_clf_; }

  /// Attentive memory writes after a task's local adaptation
  /// (Eq. 14, 15, 16). No-op when memories are disabled.
  void UpdateMemories(const TaskModel& task_model, double eta, double beta,
                      double gamma);

  const nn::Matrix& memory_vr() const { return memory_vr_; }
  const nn::Matrix& memory_r() const { return memory_r_; }
  const std::vector<nn::Matrix>& memory_cp() const { return memory_cp_; }

  /// Serialization (model persistence): options, global parameters φ, and
  /// the memories.
  void Save(BinaryWriter* writer) const;
  /// Reconstructs a meta-learner from a stream written by Save.
  static Status LoadFrom(BinaryReader* reader,
                         std::unique_ptr<MetaLearner>* out);

 private:
  /// Internal: builds an empty shell for LoadFrom.
  MetaLearner() = default;

  MetaLearnerOptions options_;
  nn::Mlp phi_r_;
  nn::Mlp phi_tau_;
  nn::Mlp phi_clf_;
  nn::Matrix memory_vr_;              // m x k_u  (M_vR).
  nn::Matrix memory_r_;               // m x |θ_R| (M_R).
  std::vector<nn::Matrix> memory_cp_;  // m matrices of N_e x 2N_e (M_CP).
};

}  // namespace lte::core

#endif  // LTE_CORE_META_LEARNER_H_
