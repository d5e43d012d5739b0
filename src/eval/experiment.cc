#include "eval/experiment.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "data/sampling.h"

namespace lte::eval {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kAide:
      return "AIDE";
    case Method::kAlSvm:
      return "AL-SVM";
    case Method::kDsm:
      return "DSM";
    case Method::kSvm:
      return "SVM";
    case Method::kSvmR:
      return "SVM^r";
    case Method::kBasic:
      return "Basic";
    case Method::kMeta:
      return "Meta";
    case Method::kMetaStar:
      return "Meta*";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(data::Table table,
                                   std::vector<data::Subspace> subspaces,
                                   RunnerOptions options)
    : raw_table_(std::move(table)),
      subspaces_(std::move(subspaces)),
      options_(options),
      rng_(options.seed),
      uir_generator_(options.explorer.task_gen) {}

Status ExperimentRunner::Init() {
  if (raw_table_.num_rows() == 0) {
    return Status::InvalidArgument("runner: empty table");
  }
  if (subspaces_.empty()) {
    return Status::InvalidArgument("runner: no subspaces");
  }
  // Normalize every attribute into [0, 1] so clustering, geometry, and the
  // SVM kernels all see comparable scales.
  LTE_RETURN_IF_ERROR(normalizer_.Fit(raw_table_));
  normalized_table_ = data::Table(raw_table_.AttributeNames());
  for (int64_t r = 0; r < raw_table_.num_rows(); ++r) {
    LTE_RETURN_IF_ERROR(normalized_table_.AppendRow(
        normalizer_.TransformRow(raw_table_.Row(r))));
  }

  eval_rows_ = data::SampleRowIndices(normalized_table_,
                                      options_.eval_sample_rows, &rng_);
  pool_rows_ =
      data::SampleRowIndices(normalized_table_, options_.pool_rows, &rng_);
  LTE_RETURN_IF_ERROR(
      uir_generator_.Init(normalized_table_, subspaces_, &rng_));
  initialized_ = true;
  return Status::OK();
}

Status ExperimentRunner::EnsureModel(int64_t budget, bool train_meta) {
  LTE_CHECK_MSG(initialized_, "runner: Init has not run");
  const int64_t k_s = budget - options_.explorer.task_gen.delta;
  if (k_s < 2) {
    return Status::InvalidArgument("runner: budget too small for k_s >= 2");
  }
  auto it = models_.find(budget);
  if (it != models_.end() && (it->second.meta || !train_meta)) {
    return Status::OK();
  }
  core::ExplorerOptions opt = options_.explorer;
  opt.task_gen.k_s = k_s;
  auto model = std::make_shared<core::ExplorationModel>(opt);
  LTE_RETURN_IF_ERROR(
      model->Pretrain(normalized_table_, subspaces_, train_meta, &rng_));
  models_[budget] = CachedModel{std::move(model), train_meta};
  return Status::OK();
}

GroundTruthUir ExperimentRunner::GenerateUir(const UisMode& mode,
                                             int64_t num_subspaces) {
  LTE_CHECK_MSG(initialized_, "runner: Init has not run");
  return uir_generator_.Generate(mode, num_subspaces, &rng_);
}

namespace {

// Flips a 0/1 label with the configured noise probability.
double MaybeFlip(double label, double noise, Rng* rng) {
  if (noise > 0.0 && rng->Bernoulli(noise)) return 1.0 - label;
  return label;
}

}  // namespace

template <typename Predictor>
void ExperimentRunner::Score(const GroundTruthUir& uir,
                             const Predictor& predict,
                             ExperimentResult* result) const {
  ConfusionCounts counts;
  for (int64_t r : eval_rows_) {
    const std::vector<double> row = normalized_table_.Row(r);
    const double truth = uir.Contains(row) ? 1.0 : 0.0;
    counts.Add(truth, predict(row));
  }
  result->f1 = F1Score(counts);
  result->precision = Precision(counts);
  result->recall = Recall(counts);
}

Status ExperimentRunner::RunLte(core::Variant variant,
                                const GroundTruthUir& uir, int64_t budget,
                                ExperimentResult* result) {
  const bool needs_meta = variant != core::Variant::kBasic;
  LTE_RETURN_IF_ERROR(EnsureModel(budget, needs_meta));
  const core::ExplorationModel& model = *models_.at(budget).model;

  const auto active = static_cast<int64_t>(uir.subspaces.size());
  std::vector<std::vector<double>> labels(static_cast<size_t>(active));
  int64_t labels_used = 0;
  for (int64_t s = 0; s < active; ++s) {
    for (const auto& tuple : *model.InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(MaybeFlip(
          uir.ContainsSubspacePoint(s, tuple) ? 1.0 : 0.0,
          options_.label_noise, &rng_));
      ++labels_used;
    }
  }

  // Each run is one simulated user: a fresh session against the cached
  // (shared, immutable) model.
  core::ExplorationSession session(models_.at(budget).model);
  Stopwatch sw;
  LTE_RETURN_IF_ERROR(session.StartExploration(labels, variant, &rng_));
  result->online_seconds = sw.ElapsedSeconds();
  result->labels_used = labels_used;
  Score(uir,
        [&session](const std::vector<double>& row) {
          return session.PredictRow(row).value_or(0.0);
        },
        result);
  return Status::OK();
}

Status ExperimentRunner::RunLteIterative(const PolicySweepOptions& sweep,
                                         const GroundTruthUir& uir,
                                         int64_t budget,
                                         PolicyTrajectory* out) {
  LTE_CHECK_MSG(initialized_, "runner: Init has not run");
  if (out == nullptr) {
    return Status::InvalidArgument("runner: out must not be null");
  }
  *out = PolicyTrajectory{};
  if (sweep.rounds < 0 || sweep.batch <= 0 || sweep.candidate_pool <= 0) {
    return Status::InvalidArgument("runner: bad iterative sweep shape");
  }
  const bool needs_meta = sweep.variant != core::Variant::kBasic;
  LTE_RETURN_IF_ERROR(EnsureModel(budget, needs_meta));
  const std::shared_ptr<core::ExplorationModel>& model =
      models_.at(budget).model;

  // Self-contained rng discipline: every draw below — session stream, label
  // noise, candidate pools — derives from session_seed alone, never from
  // the runner's shared rng, so a trajectory is a pure function of
  // (uir, budget, sweep). The bench's policy_bit_identical gate leans on
  // exactly that to compare trajectories across session thread counts.
  Rng noise_rng = Rng(sweep.session_seed).Fork(0x4C4E);   // "LN".
  Rng cand_rng = Rng(sweep.session_seed).Fork(0x4350);    // "CP".

  const auto active = static_cast<int64_t>(uir.subspaces.size());
  std::vector<std::vector<double>> labels(static_cast<size_t>(active));
  int64_t labels_used = 0;
  for (int64_t s = 0; s < active; ++s) {
    for (const auto& tuple : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(
          MaybeFlip(uir.ContainsSubspacePoint(s, tuple) ? 1.0 : 0.0,
                    options_.label_noise, &noise_rng));
      ++labels_used;
    }
  }

  core::ExplorationSession session(model, sweep.session_threads);
  session.SeedRng(sweep.session_seed);
  LTE_RETURN_IF_ERROR(
      session.StartExploration(labels, sweep.variant, session.session_rng()));
  for (int64_t s = 0; s < active; ++s) {
    LTE_RETURN_IF_ERROR(session.ConfigureSuggestPolicy(s, sweep.policy));
  }

  ExperimentResult round_result;
  const auto record = [&] {
    Score(uir,
          [&session](const std::vector<double>& row) {
            return session.PredictRow(row).value_or(0.0);
          },
          &round_result);
    out->labels.push_back(labels_used);
    out->f1.push_back(round_result.f1);
  };
  record();

  std::vector<std::vector<double>> candidates;
  std::vector<int64_t> picked;
  std::vector<std::vector<double>> picked_points;
  std::vector<double> picked_labels;
  for (int64_t round = 0; round < sweep.rounds; ++round) {
    for (int64_t s = 0; s < active; ++s) {
      const std::vector<int64_t>& attrs =
          uir.subspaces[static_cast<size_t>(s)].attribute_indices;
      const std::vector<int64_t> rows = data::SampleRowIndices(
          normalized_table_, sweep.candidate_pool, &cand_rng);
      candidates.clear();
      for (int64_t r : rows) {
        candidates.push_back(normalized_table_.RowProjected(r, attrs));
      }
      LTE_RETURN_IF_ERROR(
          session.SuggestTuples(s, candidates, sweep.batch, &picked));
      picked_points.clear();
      picked_labels.clear();
      for (int64_t i : picked) {
        const auto& point = candidates[static_cast<size_t>(i)];
        picked_points.push_back(point);
        picked_labels.push_back(
            MaybeFlip(uir.ContainsSubspacePoint(s, point) ? 1.0 : 0.0,
                      options_.label_noise, &noise_rng));
        ++labels_used;
      }
      if (!picked_points.empty()) {
        LTE_RETURN_IF_ERROR(session.ContinueExploration(
            s, picked_points, picked_labels, session.session_rng()));
      }
    }
    record();
  }
  out->final_f1 = out->f1.back();
  out->total_labels = labels_used;
  return Status::OK();
}

Status ExperimentRunner::RunSubspaceSvm(bool encoded,
                                        const GroundTruthUir& uir,
                                        int64_t budget,
                                        ExperimentResult* result) {
  // Reuse any cached model for this budget so all methods share the same
  // initial tuples (paper Section VIII-C: "All competitors are fed with the
  // same set of initial training tuples").
  LTE_RETURN_IF_ERROR(EnsureModel(budget, /*train_meta=*/false));
  const core::ExplorationModel& model = *models_.at(budget).model;

  const auto active = static_cast<int64_t>(uir.subspaces.size());
  std::vector<svm::Svm> models(static_cast<size_t>(active));
  int64_t labels_used = 0;
  Stopwatch sw;
  // SVM^r learns on the dense encoded tuple, SVM on the raw one.
  const auto featurize = [&](int64_t s, const std::vector<double>& point) {
    if (!encoded) return point;
    const std::vector<int64_t>& attrs =
        uir.subspaces[static_cast<size_t>(s)].attribute_indices;
    std::vector<Code> codes;
    model.encoder().EncodePointsCodesInto(attrs, {&point, 1}, &codes);
    std::vector<double> dense(
        static_cast<size_t>(model.encoder().ProjectedWidth(attrs)), 0.0);
    for (const Code& c : codes) dense[static_cast<size_t>(c.index)] = c.value;
    return dense;
  };
  for (int64_t s = 0; s < active; ++s) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const auto& tuple : *model.InitialTuples(s)) {
      x.push_back(featurize(s, tuple));
      y.push_back(MaybeFlip(uir.ContainsSubspacePoint(s, tuple) ? 1.0 : 0.0,
                            options_.label_noise, &rng_));
      ++labels_used;
    }
    LTE_RETURN_IF_ERROR(models[static_cast<size_t>(s)].Train(
        x, y, options_.kernel, options_.smo, &rng_));
  }
  result->online_seconds = sw.ElapsedSeconds();
  result->labels_used = labels_used;

  const auto predict = [&](const std::vector<double>& row) -> double {
    for (int64_t s = 0; s < active; ++s) {
      std::vector<double> point;
      const data::Subspace& subspace = uir.subspaces[static_cast<size_t>(s)];
      for (int64_t a : subspace.attribute_indices) {
        point.push_back(row[static_cast<size_t>(a)]);
      }
      if (models[static_cast<size_t>(s)].Predict(featurize(s, point)) < 0.5) {
        return 0.0;
      }
    }
    return 1.0;
  };
  Score(uir, predict, result);
  return Status::OK();
}

Status ExperimentRunner::RunPoolBaseline(Method method,
                                         const GroundTruthUir& uir,
                                         int64_t budget,
                                         ExperimentResult* result) {
  // Restrict features to the attributes of the active subspaces (the
  // dimensionality sweeps explore 2-8 attribute prefixes).
  std::vector<int64_t> attrs;
  std::vector<std::vector<int64_t>> rel_subspaces;
  for (const data::Subspace& s : uir.subspaces) {
    std::vector<int64_t> rel;
    for (int64_t a : s.attribute_indices) {
      rel.push_back(static_cast<int64_t>(attrs.size()));
      attrs.push_back(a);
    }
    rel_subspaces.push_back(std::move(rel));
  }

  std::vector<std::vector<double>> pool;
  pool.reserve(pool_rows_.size());
  for (int64_t r : pool_rows_) {
    pool.push_back(normalized_table_.RowProjected(r, attrs));
  }
  const auto oracle = [&](int64_t pool_index) -> double {
    const int64_t row = pool_rows_[static_cast<size_t>(pool_index)];
    return MaybeFlip(uir.Contains(normalized_table_.Row(row)) ? 1.0 : 0.0,
                     options_.label_noise, &rng_);
  };

  Stopwatch sw;
  if (method == Method::kAide) {
    baselines::AideOptions opt;
    opt.initial_samples = options_.al_initial_samples;
    opt.batch_size = options_.al_batch;
    baselines::Aide aide(opt);
    LTE_RETURN_IF_ERROR(aide.Explore(pool, oracle, budget, &rng_));
    result->online_seconds = sw.ElapsedSeconds();
    result->labels_used = aide.labels_used();
    Score(uir,
          [&](const std::vector<double>& row) {
            std::vector<double> x;
            for (int64_t a : attrs) x.push_back(row[static_cast<size_t>(a)]);
            return aide.Predict(x);
          },
          result);
    return Status::OK();
  }
  if (method == Method::kAlSvm) {
    baselines::ActiveLearnerOptions opt;
    opt.initial_samples = options_.al_initial_samples;
    opt.batch_size = options_.al_batch;
    opt.kernel = options_.kernel;
    opt.smo = options_.smo;
    baselines::ActiveLearnerSvm learner(opt);
    LTE_RETURN_IF_ERROR(learner.Explore(pool, oracle, budget, &rng_));
    result->online_seconds = sw.ElapsedSeconds();
    result->labels_used = learner.labels_used();
    Score(uir,
          [&](const std::vector<double>& row) {
            std::vector<double> x;
            for (int64_t a : attrs) x.push_back(row[static_cast<size_t>(a)]);
            return learner.Predict(x);
          },
          result);
    return Status::OK();
  }

  LTE_CHECK(method == Method::kDsm);
  baselines::DsmOptions opt;
  opt.initial_samples = options_.al_initial_samples;
  opt.batch_size = options_.al_batch;
  opt.kernel = options_.kernel;
  opt.smo = options_.smo;
  baselines::Dsm dsm(opt, rel_subspaces);
  LTE_RETURN_IF_ERROR(dsm.Explore(pool, oracle, budget, &rng_));
  result->online_seconds = sw.ElapsedSeconds();
  result->labels_used = dsm.labels_used();
  Score(uir,
        [&](const std::vector<double>& row) {
          std::vector<double> x;
          for (int64_t a : attrs) x.push_back(row[static_cast<size_t>(a)]);
          return dsm.Predict(x);
        },
        result);
  return Status::OK();
}

Status ExperimentRunner::Run(Method method, const GroundTruthUir& uir,
                             int64_t budget, ExperimentResult* result) {
  LTE_CHECK_MSG(initialized_, "runner: Init has not run");
  *result = ExperimentResult{};
  switch (method) {
    case Method::kBasic:
      return RunLte(core::Variant::kBasic, uir, budget, result);
    case Method::kMeta:
      return RunLte(core::Variant::kMeta, uir, budget, result);
    case Method::kMetaStar:
      return RunLte(core::Variant::kMetaStar, uir, budget, result);
    case Method::kSvm:
      return RunSubspaceSvm(/*encoded=*/false, uir, budget, result);
    case Method::kSvmR:
      return RunSubspaceSvm(/*encoded=*/true, uir, budget, result);
    case Method::kAide:
    case Method::kAlSvm:
    case Method::kDsm:
      return RunPoolBaseline(method, uir, budget, result);
  }
  return Status::InvalidArgument("unknown method");
}

Status ExperimentRunner::MeanF1(Method method,
                                const std::vector<GroundTruthUir>& uirs,
                                int64_t budget, double* mean_f1) {
  if (uirs.empty()) return Status::InvalidArgument("runner: no test UIRs");
  double sum = 0.0;
  for (const GroundTruthUir& uir : uirs) {
    ExperimentResult res;
    LTE_RETURN_IF_ERROR(Run(method, uir, budget, &res));
    sum += res.f1;
  }
  *mean_f1 = sum / static_cast<double>(uirs.size());
  return Status::OK();
}

Status ExperimentRunner::FindBudgetForTarget(
    Method method, const std::vector<GroundTruthUir>& uirs, double target_f1,
    const std::vector<int64_t>& budgets, int64_t* budget_out) {
  for (int64_t b : budgets) {
    double f1 = 0.0;
    LTE_RETURN_IF_ERROR(MeanF1(method, uirs, b, &f1));
    if (f1 >= target_f1) {
      *budget_out = b;
      return Status::OK();
    }
  }
  *budget_out = -1;
  return Status::OK();
}

double ExperimentRunner::PretrainSeconds(int64_t budget) const {
  auto it = models_.find(budget);
  return it == models_.end() ? 0.0 : it->second.model->meta_training_seconds();
}

double ExperimentRunner::TaskGenSeconds(int64_t budget) const {
  auto it = models_.find(budget);
  return it == models_.end() ? 0.0
                             : it->second.model->task_generation_seconds();
}

}  // namespace lte::eval
