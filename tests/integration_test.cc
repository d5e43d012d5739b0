// End-to-end integration test of the LTE framework: offline meta-training on
// a synthetic dataset, online few-shot exploration against generated ground
// truth, and a sanity comparison of the method ordering the paper reports
// (NN-based variants beat the plain SVM under a small labelling budget).

#include <gtest/gtest.h>

#include "core/lte.h"
#include "data/synthetic.h"
#include "eval/experiment.h"

namespace lte {
namespace {

eval::RunnerOptions IntegrationOptions() {
  eval::RunnerOptions opt;
  opt.explorer.task_gen.k_u = 40;
  opt.explorer.task_gen.k_q = 40;
  opt.explorer.task_gen.delta = 5;
  opt.explorer.task_gen.alpha = 2;
  opt.explorer.task_gen.psi = 10;
  opt.explorer.learner.embedding_size = 16;
  opt.explorer.learner.clf_hidden = {16};
  opt.explorer.learner.num_memory_modes = 4;
  opt.explorer.num_meta_tasks = 150;
  opt.explorer.trainer.task_batch_size = 10;
  opt.explorer.trainer.local_steps = 3;
  opt.explorer.trainer.local_batch_size = 8;
  opt.explorer.online_steps = 40;
  opt.explorer.online_lr = 0.2;
  opt.explorer.encoder.num_gmm_components = 4;
  opt.explorer.encoder.num_jenks_intervals = 4;
  opt.eval_sample_rows = 500;
  opt.pool_rows = 400;
  opt.seed = 99;
  return opt;
}

TEST(IntegrationTest, MetaBeatsPlainSvmOnGeneratedUirs) {
  Rng rng(3);
  data::Table table = data::MakeSdssLike(6000, &rng);
  std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                           data::Subspace{{2, 3}}};
  eval::ExperimentRunner runner(std::move(table), subspaces,
                                IntegrationOptions());
  ASSERT_TRUE(runner.Init().ok());

  // Complex (concave/disconnected) targets — the regime where the paper
  // shows NN-based variants dominating SVM (Table II). On simple convex 2-D
  // regions a well-tuned SVM legitimately competes.
  std::vector<eval::GroundTruthUir> uirs;
  for (int i = 0; i < 3; ++i) {
    uirs.push_back(runner.GenerateUir({"M1", 4, 10}, 2));
  }
  double f1_meta = 0.0;
  double f1_svm = 0.0;
  ASSERT_TRUE(runner.MeanF1(eval::Method::kMeta, uirs, 25, &f1_meta).ok());
  ASSERT_TRUE(runner.MeanF1(eval::Method::kSvm, uirs, 25, &f1_svm).ok());
  EXPECT_GT(f1_meta, f1_svm) << "meta=" << f1_meta << " svm=" << f1_svm;
  EXPECT_GT(f1_meta, 0.3);
}

TEST(IntegrationTest, FullPipelineOnCarLikeData) {
  Rng rng(5);
  data::Table table = data::MakeCarLike(5000, &rng);

  // Normalize (the model consumes comparable scales).
  preprocess::MinMaxNormalizer norm;
  ASSERT_TRUE(norm.Fit(table).ok());
  data::Table normalized(table.AttributeNames());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_TRUE(normalized.AppendRow(norm.TransformRow(table.Row(r))).ok());
  }

  std::vector<int64_t> attrs = {0, 1, 2, 3};
  std::vector<data::Subspace> subspaces = data::DecomposeSpace(attrs, 2, &rng);

  auto model =
      std::make_shared<core::ExplorationModel>(IntegrationOptions().explorer);
  ASSERT_TRUE(
      model->Pretrain(normalized, subspaces, /*train_meta=*/true, &rng).ok());
  core::ExplorationSession session(model);

  // Ground truth: a box region per subspace around the data median.
  const auto in_region = [](const std::vector<double>& p) {
    for (double v : p) {
      if (v < 0.25 || v > 0.75) return false;
    }
    return true;
  };
  std::vector<std::vector<double>> labels(subspaces.size());
  for (size_t s = 0; s < subspaces.size(); ++s) {
    for (const auto& tuple : *model->InitialTuples(static_cast<int64_t>(s))) {
      labels[s].push_back(in_region(tuple) ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, core::Variant::kMetaStar, &rng).ok());

  // Evaluate F1 against the box ground truth on a row sample.
  eval::ConfusionCounts counts;
  for (int64_t r = 0; r < 800; ++r) {
    const std::vector<double> row = normalized.Row(r);
    bool truth = true;
    for (const data::Subspace& s : subspaces) {
      std::vector<double> p;
      for (int64_t a : s.attribute_indices) {
        p.push_back(row[static_cast<size_t>(a)]);
      }
      truth = truth && in_region(p);
    }
    counts.Add(truth ? 1.0 : 0.0, session.PredictRow(row).value_or(0.0));
  }
  // The adapted model must do clearly better than chance on this easy box.
  EXPECT_GT(eval::F1Score(counts), 0.3);
}

TEST(IntegrationTest, DeterministicGivenSeed) {
  auto run_once = [] {
    Rng rng(42);
    data::Table table = data::MakeBlobs(2500, 4, 4, &rng);
    eval::ExperimentRunner runner(
        std::move(table),
        {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}},
        IntegrationOptions());
    EXPECT_TRUE(runner.Init().ok());
    const eval::GroundTruthUir uir = runner.GenerateUir({"t", 1, 10}, 2);
    eval::ExperimentResult res;
    EXPECT_TRUE(runner.Run(eval::Method::kMeta, uir, 20, &res).ok());
    return res.f1;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lte
