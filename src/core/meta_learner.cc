#include "core/meta_learner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "nn/activations.h"
#include "nn/loss.h"

namespace lte::core {
namespace {

std::vector<int64_t> LayerSizes(int64_t in, const std::vector<int64_t>& hidden,
                                int64_t out) {
  std::vector<int64_t> sizes = {in};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

// TaskModel::PredictProbabilityBatch slices the batch so the per-stage
// activations (emb_tau, clf_in, logits) stay cache-resident while each
// weight matrix streams over them; a full 1024-row block's activations
// otherwise evict the weights between stages. Rows are independent, so
// slicing cannot change any output bit.
constexpr int64_t kSlice = 128;

}  // namespace

MetaLearner::MetaLearner(MetaLearnerOptions options, Rng* rng)
    : options_(options) {
  LTE_CHECK_GT(options_.uis_feature_dim, 0);
  LTE_CHECK_MSG(options_.tuple_feature_dim > 0,
                "tuple_feature_dim must be set to the encoded tuple width");
  LTE_CHECK_GT(options_.embedding_size, 0);
  const int64_t ne = options_.embedding_size;
  phi_r_ = nn::Mlp(
      LayerSizes(options_.uis_feature_dim, options_.uis_hidden, ne), rng);
  phi_tau_ = nn::Mlp(
      LayerSizes(options_.tuple_feature_dim, options_.tuple_hidden, ne), rng);
  const int64_t clf_in = options_.use_memory ? ne : 2 * ne;
  phi_clf_ = nn::Mlp(LayerSizes(clf_in, options_.clf_hidden, 1), rng);

  if (options_.use_memory) {
    LTE_CHECK_GT(options_.num_memory_modes, 0);
    const int64_t m = options_.num_memory_modes;
    // Random initialization of the memories (paper Section VI-B). M_vR rows
    // act as mode prototypes for the attention; M_R stores parameter-shaped
    // bias rows (small, since θ_R = φ_R − σ·ω_R should start near φ_R); each
    // M_CP mode starts as a random projection of the concatenated embedding.
    memory_vr_ = nn::Matrix(m, options_.uis_feature_dim);
    memory_vr_.InitGaussian(rng, 0.1);
    memory_r_ = nn::Matrix(m, phi_r_.ParameterCount());
    memory_r_.InitGaussian(rng, 0.01);
    memory_cp_.clear();
    for (int64_t r = 0; r < m; ++r) {
      nn::Matrix cp(ne, 2 * ne);
      cp.InitGaussian(rng, 1.0 / std::sqrt(static_cast<double>(2 * ne)));
      memory_cp_.push_back(std::move(cp));
    }
  }
}

std::vector<double> MetaLearner::Attention(
    const std::vector<double>& uis_feature) const {
  if (!options_.use_memory) return {};
  LTE_CHECK_EQ(static_cast<int64_t>(uis_feature.size()),
               options_.uis_feature_dim);
  std::vector<double> a(static_cast<size_t>(options_.num_memory_modes));
  for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
    a[static_cast<size_t>(r)] =
        CosineSimilarity(uis_feature, memory_vr_.Row(r));
  }
  SoftmaxInPlace(&a);
  return a;
}

TaskModel MetaLearner::CreateTaskModel(
    const std::vector<double>& uis_feature) const {
  LTE_CHECK_EQ(static_cast<int64_t>(uis_feature.size()),
               options_.uis_feature_dim);
  TaskModel tm;
  tm.use_memory_ = options_.use_memory;
  tm.uis_feature_ = uis_feature;
  tm.attention_ = Attention(uis_feature);

  // θ_τ ⇐ φ_τ, θ_clf ⇐ φ_clf (Eq. 11); copies carry stale gradient
  // accumulators, so clear them.
  tm.f_r_ = phi_r_;
  tm.f_tau_ = phi_tau_;
  tm.f_clf_ = phi_clf_;

  if (options_.use_memory) {
    // θ_R ⇐ φ_R − σ·ω_R with ω_R = a_R^T M_R (Eq. 6, 8).
    std::vector<double> params = phi_r_.GetParameters();
    for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
      const double ar = tm.attention_[static_cast<size_t>(r)];
      const std::vector<double> row = memory_r_.Row(r);
      for (size_t i = 0; i < params.size(); ++i) {
        params[i] -= options_.sigma * ar * row[i];
      }
    }
    tm.f_r_.SetParameters(params);

    // M_cp ⇐ a_R^T M_CP (Eq. 10).
    const int64_t ne = options_.embedding_size;
    tm.m_cp_ = nn::Matrix(ne, 2 * ne);
    for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
      tm.m_cp_.AddScaled(memory_cp_[static_cast<size_t>(r)],
                         tm.attention_[static_cast<size_t>(r)]);
    }
    tm.grad_m_cp_ = nn::Matrix(ne, 2 * ne);
  }

  tm.ZeroGrad();
  tm.support_grad_r_.assign(
      static_cast<size_t>(tm.f_r_.ParameterCount()), 0.0);
  return tm;
}

void MetaLearner::UpdateMemories(const TaskModel& task_model, double eta,
                                 double beta, double gamma) {
  if (!options_.use_memory) return;
  const std::vector<double>& a = task_model.attention();
  LTE_CHECK_EQ(static_cast<int64_t>(a.size()), options_.num_memory_modes);

  // Attention-masked exponential writes (Eq. 14-16). The paper's literal
  // form "η·(a_R × v_R^T) + (1−η)·M" multiplies the *whole* matrix by
  // (1−η) on every task, which drives the memories toward zero unless the
  // write rate is vanishingly small (the paper searches rates down to
  // 5e-5). We implement the attention mask as a per-row convex blend —
  // row r moves a fraction η·a_R[r] toward the new content — which keeps
  // the memories on a stable scale at any write rate while preserving the
  // attentive-write semantics ("new information attentively added").
  auto blend_rows = [&](nn::Matrix* memory, double rate,
                        const std::vector<double>& content) {
    for (int64_t r = 0; r < memory->rows(); ++r) {
      const double w = rate * a[static_cast<size_t>(r)];
      std::vector<double> row = memory->Row(r);
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = (1.0 - w) * row[c] + w * content[c];
      }
      memory->SetRow(r, row);
    }
  };
  // M_vR ⇐ blend toward v_R (Eq. 14).
  blend_rows(&memory_vr_, eta, task_model.uis_feature());
  // M_R ⇐ blend toward ∇θ_R Loss accumulated during the local adaptation
  // (Eq. 15).
  blend_rows(&memory_r_, beta, task_model.support_grad_r());
  // M_CP[r] ⇐ blend toward the task's adapted M_cp (Eq. 16).
  for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
    const double w = gamma * a[static_cast<size_t>(r)];
    nn::Matrix& mode = memory_cp_[static_cast<size_t>(r)];
    nn::Matrix blended(mode.rows(), mode.cols());
    blended.AddScaled(mode, 1.0 - w);
    blended.AddScaled(task_model.m_cp(), w);
    mode = std::move(blended);
  }
}

void MetaLearner::Save(BinaryWriter* writer) const {
  writer->WriteI64(options_.uis_feature_dim);
  writer->WriteI64(options_.tuple_feature_dim);
  writer->WriteI64(options_.embedding_size);
  writer->WriteI64Vector(options_.uis_hidden);
  writer->WriteI64Vector(options_.tuple_hidden);
  writer->WriteI64Vector(options_.clf_hidden);
  writer->WriteBool(options_.use_memory);
  writer->WriteI64(options_.num_memory_modes);
  writer->WriteDouble(options_.sigma);
  phi_r_.Save(writer);
  phi_tau_.Save(writer);
  phi_clf_.Save(writer);
  if (options_.use_memory) {
    memory_vr_.Save(writer);
    memory_r_.Save(writer);
    writer->WriteU64(memory_cp_.size());
    for (const nn::Matrix& m : memory_cp_) m.Save(writer);
  }
}

Status MetaLearner::LoadFrom(BinaryReader* reader,
                             std::unique_ptr<MetaLearner>* out) {
  std::unique_ptr<MetaLearner> learner(new MetaLearner());
  MetaLearnerOptions& opt = learner->options_;
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.uis_feature_dim));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.tuple_feature_dim));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.embedding_size));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.uis_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.tuple_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.clf_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadBool(&opt.use_memory));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.num_memory_modes));
  LTE_RETURN_IF_ERROR(reader->ReadDouble(&opt.sigma));
  LTE_RETURN_IF_ERROR(learner->phi_r_.Load(reader));
  LTE_RETURN_IF_ERROR(learner->phi_tau_.Load(reader));
  LTE_RETURN_IF_ERROR(learner->phi_clf_.Load(reader));
  if (opt.use_memory) {
    LTE_RETURN_IF_ERROR(learner->memory_vr_.Load(reader));
    LTE_RETURN_IF_ERROR(learner->memory_r_.Load(reader));
    uint64_t n = 0;
    LTE_RETURN_IF_ERROR(reader->ReadU64(&n));
    if (static_cast<int64_t>(n) != opt.num_memory_modes) {
      return Status::IoError("meta-learner load: memory mode mismatch");
    }
    learner->memory_cp_.clear();  // Grown as the matrices arrive.
    for (uint64_t i = 0; i < n; ++i) {
      LTE_RETURN_IF_ERROR(learner->memory_cp_.emplace_back().Load(reader));
    }
  }
  // Structural sanity: loaded block shapes must match the options.
  if (learner->phi_r_.in_features() != opt.uis_feature_dim ||
      learner->phi_tau_.in_features() != opt.tuple_feature_dim ||
      learner->phi_r_.out_features() != opt.embedding_size) {
    return Status::IoError("meta-learner load: block shape mismatch");
  }
  *out = std::move(learner);
  return Status::OK();
}

double TaskModel::AccumulateBatch(CodeRows tuples,
                                  std::span<const double> labels,
                                  std::span<const int64_t> rows,
                                  BatchScratch* scratch) {
  LTE_CHECK_GT(tuples.per_row, 0);
  LTE_CHECK_EQ(static_cast<int64_t>(tuples.codes.size()),
               static_cast<int64_t>(labels.size()) * tuples.per_row);
  const auto count = static_cast<int64_t>(rows.empty() ? labels.size()
                                                       : rows.size());
  LTE_CHECK_GT(count, 0);
  const auto label = [&](int64_t n) {
    return labels[static_cast<size_t>(
        rows.empty() ? n : rows[static_cast<size_t>(n)])];
  };
  const double inv_n = 1.0 / static_cast<double>(count);

  // Forward. emb_R is shared by the whole batch: one row through f_R.
  const std::span<const double> emb_r =
      f_r_.ForwardBatch(uis_feature_, 1, &scratch->r);
  const auto ne = static_cast<int64_t>(emb_r.size());
  PackBatch(emb_r, scratch);
  const std::span<const double> logits =
      ForwardLogits(tuples, count, rows, scratch);

  double loss = 0.0;
  scratch->grad_logit.resize(static_cast<size_t>(count));
  for (int64_t n = 0; n < count; ++n) {
    const double logit = logits[static_cast<size_t>(n)];
    loss += inv_n * nn::BceWithLogits(logit, label(n));
    scratch->grad_logit[static_cast<size_t>(n)] =
        inv_n * nn::BceWithLogitsGrad(logit, label(n));
  }

  // Backward: f_clf, then the conversion, then f_tau, then f_R with the
  // embedding gradient summed over the batch in tuple order. emb_R is a
  // head every tuple shares, of M_cp or of f_clf's first layer: dW gains
  // each tuple's terms in tuple order, and the tuples' emb_R gradients add
  // into g_emb_R in tuple order.
  scratch->grad_emb_r.assign(static_cast<size_t>(ne), 0.0);
  if (use_memory_) {
    f_clf_.BackwardBatch(scratch->grad_logit, &scratch->clf,
                         &scratch->grad_clf_in);
    scratch->grad_emb_tau.resize(static_cast<size_t>(count * ne));
    nn::BackwardBatchLayer(
        m_cp_.data().data(), ne,
        nn::PrefixedRows{emb_r.data(), ne,
                         scratch->tau.outputs.back().data(), ne},
        scratch->grad_clf_in.data(), count,
        nn::LayerGradients{grad_m_cp_.mutable_data()->data(), nullptr,
                           scratch->grad_emb_tau.data(),
                           scratch->grad_emb_r.data()});
  } else {
    f_clf_.BackwardBatch(scratch->grad_logit, &scratch->clf,
                         &scratch->grad_emb_tau, scratch->grad_emb_r);
  }
  f_tau_.BackwardBatch(scratch->grad_emb_tau, &scratch->tau);
  f_r_.BackwardBatch(scratch->grad_emb_r, &scratch->r);
  return loss;
}

void TaskModel::ApplyAccumulated(double lr, double max_grad_norm) {
  // Record the θ_R gradient before consuming it (Eq. 15 uses it to write the
  // UIS-feature memory).
  f_r_.AddGradientsTo(support_grad_r_);

  double effective_lr = lr;
  if (max_grad_norm > 0.0) {
    // Two running sums, each in its reference order: the blocks' squared
    // gradients, one chain through f_R, f_tau and f_clf in GetGradients
    // order, and M_cp's Frobenius sum. One loop advances both, so their
    // add latencies overlap.
    double norm_sq = 0.0;
    double mcp_sq = 0.0;
    std::span<const double> mcp;
    if (use_memory_) mcp = grad_m_cp_.data();
    const auto add = [&](std::span<const double> g) {
      const size_t both = std::min(g.size(), mcp.size());
      for (size_t i = 0; i < both; ++i) {
        norm_sq += g[i] * g[i];
        mcp_sq += mcp[i] * mcp[i];
      }
      for (size_t i = both; i < g.size(); ++i) norm_sq += g[i] * g[i];
      mcp = mcp.subspan(both);
    };
    for (const nn::Mlp* block : {&f_r_, &f_tau_, &f_clf_}) {
      for (const nn::Linear& layer : block->layers()) {
        add(layer.grad_weights().data());
        add(layer.grad_bias());
      }
    }
    for (const double g : mcp) mcp_sq += g * g;
    if (use_memory_) {
      // Matrix::FrobeniusNorm() squared back, as the reference sums it.
      const double m = std::sqrt(mcp_sq);
      norm_sq += m * m;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > max_grad_norm) effective_lr = lr * max_grad_norm / norm;
  }

  f_r_.ApplyGradients(effective_lr);
  f_tau_.ApplyGradients(effective_lr);
  f_clf_.ApplyGradients(effective_lr);
  if (use_memory_) {
    m_cp_.AddScaled(grad_m_cp_, -effective_lr);
  }
  ZeroGrad();
  emb_r_valid_ = false;
}

void TaskModel::Save(BinaryWriter* writer) const {
  writer->WriteBool(use_memory_);
  writer->WriteDoubleVector(uis_feature_);
  writer->WriteDoubleVector(attention_);
  f_r_.Save(writer);
  f_tau_.Save(writer);
  f_clf_.Save(writer);
  if (use_memory_) m_cp_.Save(writer);
  writer->WriteDoubleVector(support_grad_r_);
}

Status TaskModel::LoadFrom(BinaryReader* reader, TaskModel* out) {
  TaskModel tm;
  LTE_RETURN_IF_ERROR(reader->ReadBool(&tm.use_memory_));
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.uis_feature_));
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.attention_));
  LTE_RETURN_IF_ERROR(tm.f_r_.Load(reader));
  LTE_RETURN_IF_ERROR(tm.f_tau_.Load(reader));
  LTE_RETURN_IF_ERROR(tm.f_clf_.Load(reader));
  if (tm.use_memory_) {
    LTE_RETURN_IF_ERROR(tm.m_cp_.Load(reader));
  }
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.support_grad_r_));

  // Structural sanity: the three blocks and M_cp must agree on the shared
  // embedding size and the classifier input width (Section VI-A wiring).
  const int64_t ne = tm.f_r_.out_features();
  if (tm.f_tau_.out_features() != ne || tm.f_clf_.out_features() != 1) {
    return Status::IoError("task model load: block shape mismatch");
  }
  if (static_cast<int64_t>(tm.uis_feature_.size()) != tm.f_r_.in_features()) {
    return Status::IoError("task model load: UIS feature width mismatch");
  }
  if (static_cast<int64_t>(tm.support_grad_r_.size()) !=
      tm.f_r_.ParameterCount()) {
    return Status::IoError("task model load: support gradient size mismatch");
  }
  if (tm.use_memory_) {
    if (tm.m_cp_.rows() != ne || tm.m_cp_.cols() != 2 * ne ||
        tm.f_clf_.in_features() != ne) {
      return Status::IoError("task model load: conversion shape mismatch");
    }
    tm.grad_m_cp_ = nn::Matrix(ne, 2 * ne);
  } else if (tm.f_clf_.in_features() != 2 * ne) {
    return Status::IoError("task model load: classifier input mismatch");
  }
  tm.ZeroGrad();
  tm.emb_r_valid_ = false;
  *out = std::move(tm);
  return Status::OK();
}

void TaskModel::ZeroGrad() {
  f_r_.ZeroGrad();
  f_tau_.ZeroGrad();
  f_clf_.ZeroGrad();
  if (use_memory_) grad_m_cp_.Fill(0.0);
}

const std::vector<double>& TaskModel::UisEmbedding() const {
  if (!emb_r_valid_) {
    emb_r_cache_ = f_r_.Forward(uis_feature_);
    emb_r_valid_ = true;
  }
  return emb_r_cache_;
}

void TaskModel::WarmUisEmbedding() { UisEmbedding(); }

double TaskModel::Logit(const std::vector<double>& tuple) const {
  const std::vector<double> emb_tau = f_tau_.Forward(tuple);
  std::vector<double> z = UisEmbedding();
  z.insert(z.end(), emb_tau.begin(), emb_tau.end());
  return f_clf_.Forward(use_memory_ ? m_cp_.MatVec(z) : z)[0];
}

double TaskModel::PredictProbability(const std::vector<double>& tuple) const {
  return nn::Sigmoid(Logit(tuple));
}

void TaskModel::PackBatch(std::span<const double> emb_r,
                          BatchScratch* scratch) const {
  f_tau_.Pack(&scratch->tau);
  if (use_memory_) {
    // c = M_cp · [emb_R; emb_tau]. `mcp_left[o]` is the exact running-sum
    // prefix that MatVec reaches after the first N_e terms, and each row
    // continues the accumulation over its emb_tau half (M_cp's columns
    // [N_e, 2N_e), packed by input; no bias) in the same order —
    // bit-identical to the per-row product.
    f_clf_.Pack(&scratch->clf);
    const int64_t ne = m_cp_.rows();
    scratch->mcp_left.resize(static_cast<size_t>(ne));
    nn::DotRows(m_cp_.data().data(), 2 * ne, ne, emb_r, nullptr,
                scratch->mcp_left.data());
    scratch->mcp.Pack(m_cp_.data().data() + ne, 2 * ne, ne, ne,
                      /*bias=*/nullptr);
  } else {
    // Plain MAML: f_clf reads the concatenation [emb_R, emb_tau]. Its
    // first layer takes the constant emb_R head once, so rows feed f_clf
    // just their emb_tau half — no per-row copy of emb_R and half the
    // layer-1 multiply-accumulates, with the accumulation order unchanged.
    f_clf_.Pack(&scratch->clf, emb_r);
  }
}

std::span<const double> TaskModel::ForwardLogits(
    CodeRows tuples, int64_t count, std::span<const int64_t> rows,
    BatchScratch* scratch) const {
  const std::span<const double> emb_tau =
      f_tau_.ForwardBatch(tuples, count, &scratch->tau, rows);
  if (!use_memory_) return f_clf_.ForwardBatch(emb_tau, count, &scratch->clf);
  scratch->clf_in.resize(emb_tau.size());
  nn::ForwardBatchLayer(scratch->mcp,
                        nn::DenseRows{emb_tau.data(), scratch->mcp.in()},
                        count, scratch->mcp_left.data(), /*relu=*/false,
                        scratch->clf_in.data());
  return f_clf_.ForwardBatch(scratch->clf_in, count, &scratch->clf);
}

void TaskModel::PredictProbabilityBatch(CodeRows tuples, int64_t count,
                                        BatchScratch* scratch,
                                        std::span<double> out,
                                        std::span<const int64_t> rows) const {
  LTE_CHECK_GE(count, 0);
  LTE_CHECK_EQ(static_cast<int64_t>(out.size()), count);
  LTE_CHECK_GT(tuples.per_row, 0);
  if (rows.empty()) {
    LTE_CHECK_EQ(static_cast<int64_t>(tuples.codes.size()),
                 count * tuples.per_row);
  } else {
    LTE_CHECK_EQ(static_cast<int64_t>(rows.size()), count);
  }
  if (count == 0) return;
  PackBatch(UisEmbedding(), scratch);
  for (int64_t s0 = 0; s0 < count; s0 += kSlice) {
    const int64_t sc = std::min(kSlice, count - s0);
    // This slice's rows, or its indices into the whole of `tuples`.
    const CodeRows slice =
        rows.empty()
            ? CodeRows{tuples.codes.subspan(
                           static_cast<size_t>(s0 * tuples.per_row),
                           static_cast<size_t>(sc * tuples.per_row)),
                       tuples.per_row}
            : tuples;
    const std::span<const int64_t> slice_rows =
        rows.empty() ? rows
                     : rows.subspan(static_cast<size_t>(s0),
                                    static_cast<size_t>(sc));
    const std::span<const double> logits =
        ForwardLogits(slice, sc, slice_rows, scratch);
    for (int64_t n = 0; n < sc; ++n) {
      out[static_cast<size_t>(s0 + n)] =
          nn::Sigmoid(logits[static_cast<size_t>(n)]);
    }
  }
}

double TaskModel::EvaluateLoss(CodeRows tuples,
                               std::span<const double> labels) const {
  const auto count = static_cast<int64_t>(labels.size());
  if (count == 0) return 0.0;
  nn::CheckCodeRows(tuples, {}, count, f_tau_.in_features());
  double loss = 0.0;
  std::vector<double> tuple;
  for (int64_t i = 0; i < count; ++i) {
    tuple.assign(static_cast<size_t>(f_tau_.in_features()), 0.0);
    for (const Code& c : tuples.row(i)) {
      tuple[static_cast<size_t>(c.index)] = c.value;
    }
    loss += nn::BceWithLogits(Logit(tuple), labels[static_cast<size_t>(i)]);
  }
  return loss / static_cast<double>(labels.size());
}

}  // namespace lte::core
