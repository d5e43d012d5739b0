#include "core/exploration_model.h"

#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace lte::core {
namespace {

constexpr uint64_t kModelMagic = 0x4C54454D4F44454CULL;  // "LTEMODEL".
constexpr uint64_t kModelVersion = 1;

void SaveOptions(const ExplorerOptions& opt, BinaryWriter* w) {
  // MetaTaskGenOptions.
  w->WriteI64(opt.task_gen.k_u);
  w->WriteI64(opt.task_gen.k_s);
  w->WriteI64(opt.task_gen.k_q);
  w->WriteI64(opt.task_gen.delta);
  w->WriteI64(opt.task_gen.alpha);
  w->WriteI64(opt.task_gen.psi);
  w->WriteI64(opt.task_gen.expansion_l);
  w->WriteDouble(opt.task_gen.cluster_sample_fraction);
  w->WriteI64(opt.task_gen.min_cluster_sample);
  // MetaLearnerOptions (needed to rebuild the Basic variant online).
  w->WriteI64(opt.learner.uis_feature_dim);
  w->WriteI64(opt.learner.tuple_feature_dim);
  w->WriteI64(opt.learner.embedding_size);
  w->WriteI64Vector(opt.learner.uis_hidden);
  w->WriteI64Vector(opt.learner.tuple_hidden);
  w->WriteI64Vector(opt.learner.clf_hidden);
  w->WriteBool(opt.learner.use_memory);
  w->WriteI64(opt.learner.num_memory_modes);
  w->WriteDouble(opt.learner.sigma);
  // FpFnOptions + online schedule.
  w->WriteDouble(opt.fpfn.outer_fraction);
  w->WriteDouble(opt.fpfn.inner_fraction);
  w->WriteI64(opt.num_meta_tasks);
  w->WriteI64(opt.online_steps);
  w->WriteI64(opt.online_batch_size);
  w->WriteDouble(opt.online_lr);
}

Status LoadOptions(BinaryReader* r, ExplorerOptions* opt) {
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_u));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_s));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_q));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.delta));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.alpha));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.psi));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.expansion_l));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->task_gen.cluster_sample_fraction));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.min_cluster_sample));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.uis_feature_dim));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.tuple_feature_dim));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.embedding_size));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.uis_hidden));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.tuple_hidden));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.clf_hidden));
  LTE_RETURN_IF_ERROR(r->ReadBool(&opt->learner.use_memory));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.num_memory_modes));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->learner.sigma));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->fpfn.outer_fraction));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->fpfn.inner_fraction));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->num_meta_tasks));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->online_steps));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->online_batch_size));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->online_lr));
  return Status::OK();
}

// The schedule every StartExploration / ContinueExploration adapts with. A
// non-positive batch would abort inside LocallyAdapt on the first call, so
// it is refused where options enter a model: Pretrain and Load.
Status CheckOnlineSchedule(const ExplorerOptions& opt) {
  if (opt.online_steps < 0) {
    return Status::InvalidArgument("online_steps must be >= 0");
  }
  if (opt.online_batch_size <= 0) {
    return Status::InvalidArgument("online_batch_size must be > 0");
  }
  if (!std::isfinite(opt.online_lr) || opt.online_lr <= 0.0) {
    return Status::InvalidArgument("online_lr must be finite and > 0");
  }
  return Status::OK();
}

// The value box of a 2-D subspace under `encoder` (ExplorationModel::
// ValueBox), nullopt for a 1-D one.
std::optional<geom::Box> ValueBoxOf(const preprocess::TabularEncoder& encoder,
                                    const data::Subspace& subspace) {
  const std::vector<int64_t>& attrs = subspace.attribute_indices;
  if (attrs.size() != 2) return std::nullopt;
  const preprocess::MinMaxNormalizer& range = encoder.normalizer();
  return geom::Box{range.min(attrs[0]), range.max(attrs[0]),
                   range.min(attrs[1]), range.max(attrs[1])};
}

// The FP/FN parts of one subspace over its context; Pretrain and Load share
// it. Subregions exist only over 1-D and 2-D subspaces (geom::ConvexRegion):
// a wider one keeps no parts, and a Meta* session cannot start on it.
FpFnParts BuildFpFnParts(const preprocess::TabularEncoder& encoder,
                         const data::Subspace& subspace,
                         const SubspaceContext& context,
                         const FpFnOptions& options) {
  const size_t width = subspace.attribute_indices.size();
  if (width != 1 && width != 2) return FpFnParts();
  return FpFnParts(context, options, ValueBoxOf(encoder, subspace));
}

}  // namespace

const data::Subspace* ExplorationModel::subspace(int64_t s) const {
  if (s < 0 || s >= num_subspaces()) return nullptr;
  return &subspaces_[static_cast<size_t>(s)];
}

const std::vector<std::vector<double>>* ExplorationModel::InitialTuples(
    int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return &subspace_models_[static_cast<size_t>(s)].initial_tuples;
}

const MetaTaskGenerator* ExplorationModel::generator(int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return &subspace_models_[static_cast<size_t>(s)].generator;
}

const MetaLearner* ExplorationModel::meta_learner(int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return subspace_models_[static_cast<size_t>(s)].meta_learner.get();
}

const FpFnParts* ExplorationModel::fpfn_parts(int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return &subspace_models_[static_cast<size_t>(s)].fpfn_parts;
}

std::optional<geom::Box> ExplorationModel::ValueBox(int64_t s) const {
  return ValueBoxOf(encoder_, subspaces_[static_cast<size_t>(s)]);
}

Status ExplorationModel::Pretrain(const data::Table& table,
                                  const std::vector<data::Subspace>& subspaces,
                                  bool train_meta, Rng* rng) {
  if (subspaces.empty()) {
    return Status::InvalidArgument("explorer: no subspaces");
  }
  const Status schedule = CheckOnlineSchedule(options_);
  if (!schedule.ok()) {
    return Status::InvalidArgument("explorer: " + schedule.message());
  }
  // MetaTrain would refuse them too, but only after the encoder, the
  // clustering and the task generation have run on the caller's stream.
  if (train_meta) {
    LTE_RETURN_IF_ERROR(CheckMetaTrainerOptions(options_.trainer));
  }
  // Built into locals and committed at the end, as Load does.
  preprocess::TabularEncoder encoder(options_.encoder);
  LTE_RETURN_IF_ERROR(encoder.Fit(table, rng));
  std::vector<SubspaceModel> models(subspaces.size());

  // Phase 1 — clustering contexts and initial tuples, sequential on the
  // caller's stream (draw-for-draw the pre-parallel path, so the Basic
  // variant is unaffected by the offline parallelization).
  for (size_t s = 0; s < subspaces.size(); ++s) {
    SubspaceModel& model = models[s];
    model.generator = MetaTaskGenerator(options_.task_gen);
    const std::vector<std::vector<double>> points =
        data::ProjectRows(table, subspaces[s]);
    LTE_RETURN_IF_ERROR(model.generator.Init(points, rng));

    // Initial tuples: the k_s centers of C^s plus Δ random sample tuples —
    // the same construction as a meta-task's support set (paper Section
    // V-D), so the online labels line up with the meta-trained input.
    const SubspaceContext& ctx = model.generator.context();
    model.initial_tuples = ctx.centers_s;
    const auto n_sample = static_cast<int64_t>(ctx.sample_points.size());
    for (int64_t i = 0; i < options_.task_gen.delta; ++i) {
      model.initial_tuples.push_back(
          ctx.sample_points[static_cast<size_t>(rng->UniformInt(n_sample))]);
    }
  }

  // Phase 2 — the FP/FN parts, then (with train_meta) task generation +
  // encoding + meta-training. Meta-subspaces are independent (Algorithm 2
  // runs once per subspace), so they fan out on the shared pool. Subspace s
  // trains on the key-split stream fork_base.Fork(s): no lane ever touches
  // another lane's RNG, which makes the trained model bit-identical for any
  // num_threads, including 1. The parts draw nothing, and the Basic variant
  // forks no stream, so its caller's stream ends where it did before.
  double task_generation_seconds = 0.0;
  double meta_training_seconds = 0.0;
  std::optional<Rng> fork_base;
  if (train_meta) fork_base.emplace(rng->Fork());
  const auto n = static_cast<int64_t>(subspaces.size());
  std::vector<Status> statuses(static_cast<size_t>(n));
  std::vector<double> gen_seconds(static_cast<size_t>(n), 0.0);
  std::vector<double> train_seconds(static_cast<size_t>(n), 0.0);
  ThreadPool::Shared().ParallelFor(
      0, n, ResolveThreadCount(options_.num_threads), [&](int64_t s) {
        SubspaceModel& model = models[static_cast<size_t>(s)];
        const data::Subspace& subspace = subspaces[static_cast<size_t>(s)];
        model.fpfn_parts = BuildFpFnParts(encoder, subspace,
                                          model.generator.context(),
                                          options_.fpfn);
        if (!train_meta) return;
        const std::vector<int64_t>& attrs = subspace.attribute_indices;
        Rng sub_rng = fork_base->Fork(static_cast<uint64_t>(s));
        Stopwatch sw;
        const std::vector<MetaTask> tasks =
            model.generator.GenerateTaskSet(options_.num_meta_tasks,
                                            &sub_rng);
        const std::vector<EncodedMetaTask> encoded = EncodeTasks(
            tasks, encoder, attrs, options_.trainer.num_threads);
        gen_seconds[static_cast<size_t>(s)] = sw.ElapsedSeconds();

        sw.Restart();
        MetaLearnerOptions lopt = options_.learner;
        lopt.uis_feature_dim = options_.task_gen.k_u;
        lopt.tuple_feature_dim = encoder.ProjectedWidth(attrs);
        model.meta_learner = std::make_unique<MetaLearner>(lopt, &sub_rng);
        MetaTrainStats stats;
        statuses[static_cast<size_t>(s)] =
            MetaTrain(encoded, options_.trainer, &sub_rng,
                      model.meta_learner.get(), &stats);
        train_seconds[static_cast<size_t>(s)] = sw.ElapsedSeconds();
      });
  for (int64_t s = 0; s < n; ++s) {
    LTE_RETURN_IF_ERROR(statuses[static_cast<size_t>(s)]);
    task_generation_seconds += gen_seconds[static_cast<size_t>(s)];
    meta_training_seconds += train_seconds[static_cast<size_t>(s)];
  }
  encoder_ = std::move(encoder);
  subspaces_ = subspaces;
  subspace_models_ = std::move(models);
  task_generation_seconds_ = task_generation_seconds;
  meta_training_seconds_ = meta_training_seconds;
  pretrained_ = true;
  meta_trained_ = train_meta;
  RecomputeFingerprint();
  return Status::OK();
}

void ExplorationModel::RecomputeFingerprint() {
  std::ostringstream bytes(std::ios::binary);
  const Status st = SaveToStream(&bytes);
  LTE_CHECK_MSG(st.ok(), "fingerprint: in-memory serialization cannot fail");
  const std::string s = bytes.str();
  fingerprint_ = Fnv1a64(s.data(), s.size());
}

Status ExplorationModel::Save(const std::string& path) const {
  if (!pretrained_) {
    return Status::FailedPrecondition("explorer: Save before Pretrain");
  }
  return WriteFile(path, [this](std::ostream* s) { return SaveToStream(s); });
}

Status ExplorationModel::SaveToStream(std::ostream* out) const {
  if (!pretrained_) {
    return Status::FailedPrecondition("explorer: Save before Pretrain");
  }
  BinaryWriter w(out);
  w.WriteU64(kModelMagic);
  w.WriteU64(kModelVersion);
  SaveOptions(options_, &w);
  encoder_.Save(&w);
  w.WriteBool(meta_trained_);
  w.WriteU64(subspaces_.size());
  for (size_t s = 0; s < subspaces_.size(); ++s) {
    w.WriteI64Vector(subspaces_[s].attribute_indices);
    const SubspaceContext& ctx = subspace_models_[s].generator.context();
    w.WritePointSet(ctx.centers_u);
    w.WritePointSet(ctx.centers_s);
    w.WritePointSet(ctx.centers_q);
    w.WritePointSet(ctx.sample_points);
    w.WritePointSet(subspace_models_[s].initial_tuples);
    const bool has_learner = subspace_models_[s].meta_learner != nullptr;
    w.WriteBool(has_learner);
    if (has_learner) subspace_models_[s].meta_learner->Save(&w);
  }
  return w.status();
}

Status ExplorationModel::Load(const std::string& path) {
  return ReadFile(path, [this](std::istream* s) { return LoadFromStream(s); });
}

// As in the session decoder, an allocation failure escaping the decode
// surfaces as a bad file, not as an exception.
Status ExplorationModel::LoadFromStream(std::istream* in) try {
  BinaryReader r(in);
  uint64_t magic = 0;
  uint64_t version = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kModelMagic) {
    return Status::InvalidArgument("not an LTE model file");
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&version));
  if (version != kModelVersion) {
    return Status::InvalidArgument("unsupported LTE model version " +
                                   std::to_string(version));
  }
  // Decode over the constructed options: the file carries only the model's
  // fields, and the host knobs (threads, trainer, suggest policy) keep the
  // values this instance was built with.
  ExplorerOptions options = options_;
  LTE_RETURN_IF_ERROR(LoadOptions(&r, &options));
  const Status schedule = CheckOnlineSchedule(options);
  if (!schedule.ok()) {
    return Status::IoError("model load: " + schedule.message());
  }
  preprocess::TabularEncoder encoder;
  LTE_RETURN_IF_ERROR(encoder.Load(&r));
  bool meta_trained = false;
  LTE_RETURN_IF_ERROR(r.ReadBool(&meta_trained));
  uint64_t num_subspaces = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&num_subspaces));
  if (num_subspaces == 0) {
    return Status::IoError("model load: no subspaces");
  }

  std::vector<data::Subspace> subspaces(num_subspaces);
  std::vector<SubspaceModel> models(num_subspaces);
  for (uint64_t s = 0; s < num_subspaces; ++s) {
    LTE_RETURN_IF_ERROR(r.ReadI64Vector(&subspaces[s].attribute_indices));
    SubspaceContext ctx;
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_u));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_s));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_q));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.sample_points));
    if (static_cast<int64_t>(ctx.centers_u.size()) != options.task_gen.k_u ||
        static_cast<int64_t>(ctx.centers_s.size()) != options.task_gen.k_s ||
        static_cast<int64_t>(ctx.centers_q.size()) != options.task_gen.k_q) {
      return Status::IoError("model load: context shape mismatch");
    }
    // The FP/FN parts below read the value box at these attributes and
    // take hulls over these centers.
    const std::vector<int64_t>& attrs = subspaces[s].attribute_indices;
    for (int64_t a : attrs) {
      if (a < 0 || a >= encoder.normalizer().num_attributes()) {
        return Status::IoError("model load: subspace attribute out of range");
      }
    }
    for (const auto* centers : {&ctx.centers_u, &ctx.centers_s}) {
      for (const std::vector<double>& c : *centers) {
        if (c.size() != attrs.size()) {
          return Status::IoError("model load: center width mismatch");
        }
      }
    }
    models[s].generator = MetaTaskGenerator(options.task_gen);
    models[s].generator.RestoreContext(std::move(ctx));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&models[s].initial_tuples));
    bool has_learner = false;
    LTE_RETURN_IF_ERROR(r.ReadBool(&has_learner));
    if (has_learner) {
      LTE_RETURN_IF_ERROR(
          MetaLearner::LoadFrom(&r, &models[s].meta_learner));
    } else if (meta_trained) {
      return Status::IoError("model load: missing meta-learner");
    }
  }
  // The FP/FN parts are a pure function of what was just restored, so they
  // are rebuilt, as Pretrain built them, rather than serialized.
  ThreadPool::Shared().ParallelFor(
      0, static_cast<int64_t>(num_subspaces),
      ResolveThreadCount(options.num_threads), [&](int64_t s) {
        SubspaceModel& model = models[static_cast<size_t>(s)];
        model.fpfn_parts = BuildFpFnParts(
            encoder, subspaces[static_cast<size_t>(s)],
            model.generator.context(), options.fpfn);
      });

  options_ = options;
  encoder_ = std::move(encoder);
  subspaces_ = std::move(subspaces);
  subspace_models_ = std::move(models);
  pretrained_ = true;
  meta_trained_ = meta_trained;
  task_generation_seconds_ = 0.0;
  meta_training_seconds_ = 0.0;
  RecomputeFingerprint();
  return Status::OK();
} catch (const std::exception& e) {
  return Status::IoError(std::string("model load: ") + e.what());
}

}  // namespace lte::core
