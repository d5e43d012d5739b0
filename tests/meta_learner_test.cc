#include "core/meta_learner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"

namespace lte::core {
namespace {

MetaLearnerOptions SmallOptions(bool memory) {
  MetaLearnerOptions opt;
  opt.uis_feature_dim = 12;
  opt.tuple_feature_dim = 6;
  opt.embedding_size = 8;
  opt.clf_hidden = {8};
  opt.use_memory = memory;
  opt.num_memory_modes = 4;
  opt.sigma = 0.1;
  return opt;
}

std::vector<double> RandomVec(Rng* rng, int64_t n, bool binary = false) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) {
    x = binary ? (rng->Bernoulli(0.4) ? 1.0 : 0.0) : rng->Uniform();
  }
  return v;
}

TEST(MetaLearnerTest, AttentionIsDistribution) {
  Rng rng(1);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> a = learner.Attention(RandomVec(&rng, 12, true));
  ASSERT_EQ(a.size(), 4u);
  double sum = 0.0;
  for (double x : a) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MetaLearnerTest, AttentionEmptyWithoutMemory) {
  Rng rng(2);
  MetaLearner learner(SmallOptions(false), &rng);
  EXPECT_TRUE(learner.Attention(RandomVec(&rng, 12, true)).empty());
}

TEST(MetaLearnerTest, TaskModelInitializedFromGlobals) {
  Rng rng(3);
  MetaLearner learner(SmallOptions(false), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // Without memory, θ == φ exactly.
  EXPECT_EQ(tm.f_tau().GetParameters(), learner.phi_tau().GetParameters());
  EXPECT_EQ(tm.f_clf().GetParameters(), learner.phi_clf().GetParameters());
  EXPECT_EQ(tm.f_r().GetParameters(), learner.phi_r().GetParameters());
}

TEST(MetaLearnerTest, MemoryBiasesThetaR) {
  Rng rng(4);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // With memory, θ_R = φ_R − σ ω_R ≠ φ_R (ω_R ~ N(0, 0.01) rows, almost
  // surely non-zero).
  EXPECT_NE(tm.f_r().GetParameters(), learner.phi_r().GetParameters());
  // But still close (σ and memory rows are small).
  const std::vector<double> a = tm.f_r().GetParameters();
  const std::vector<double> b = learner.phi_r().GetParameters();
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 0.1);
}

TEST(MetaLearnerTest, ForwardProducesFiniteLogit) {
  Rng rng(5);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
    const double logit = tm.Logit(RandomVec(&rng, 6));
    EXPECT_TRUE(std::isfinite(logit));
    const double p = tm.PredictProbability(RandomVec(&rng, 6));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MetaLearnerTest, TrainingReducesLossOnTinyTask) {
  Rng rng(6);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
    // Tiny synthetic task: label = 1 iff first feature > 0.5.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
      std::vector<double> t = RandomVec(&rng, 6);
      y.push_back(t[0] > 0.5 ? 1.0 : 0.0);
      x.push_back(std::move(t));
    }
    const double before = tm.EvaluateLoss(x, y);
    for (int step = 0; step < 150; ++step) {
      tm.ZeroGrad();
      tm.AccumulateBatch(x, y);
      tm.ApplyAccumulated(0.3);
    }
    const double after = tm.EvaluateLoss(x, y);
    EXPECT_LT(after, before) << "memory=" << memory;
    EXPECT_LT(after, 0.4) << "memory=" << memory;
  }
}

// Gradient check of the full composed model (f_R + f_tau + M_cp + f_clf)
// against finite differences, for both memory settings.
TEST(MetaLearnerTest, ComposedGradientsMatchFiniteDifference) {
  Rng rng(7);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    const std::vector<double> v_r = RandomVec(&rng, 12, true);
    TaskModel tm = learner.CreateTaskModel(v_r);
    const std::vector<std::vector<double>> x = {RandomVec(&rng, 6)};
    const std::vector<double> y = {1.0};

    tm.ZeroGrad();
    tm.AccumulateBatch(x, y);
    const std::vector<double> g_tau = tm.f_tau().GetGradients();

    // Perturb each f_tau parameter and compare.
    nn::Mlp probe = tm.f_tau();
    const std::vector<double> params = probe.GetParameters();
    const double eps = 1e-6;
    for (size_t i = 0; i < params.size(); i += 11) {
      auto loss_with = [&](double delta) {
        std::vector<double> p = params;
        p[i] += delta;
        TaskModel copy = tm;  // Identical blocks, perturbed f_tau.
        copy.mutable_f_tau()->SetParameters(p);
        return copy.EvaluateLoss(x, y);
      };
      const double numeric = (loss_with(eps) - loss_with(-eps)) / (2 * eps);
      EXPECT_NEAR(g_tau[i], numeric, 1e-5)
          << "param " << i << " memory=" << memory;
    }
  }
}

TEST(MetaLearnerTest, UpdateMemoriesMovesMemoryTowardTask) {
  Rng rng(8);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // One local step so support_grad_r is non-zero.
  tm.ZeroGrad();
  tm.AccumulateBatch({RandomVec(&rng, 6)}, {1.0});
  tm.ApplyAccumulated(0.1);

  const nn::Matrix before = learner.memory_vr();
  learner.UpdateMemories(tm, /*eta=*/0.5, /*beta=*/0.5, /*gamma=*/0.5);
  const nn::Matrix& after = learner.memory_vr();
  // The attended rows blend toward v_R: the matrix must change.
  bool changed = false;
  for (int64_t r = 0; r < before.rows() && !changed; ++r) {
    for (int64_t c = 0; c < before.cols(); ++c) {
      if (before(r, c) != after(r, c)) {
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(MetaLearnerTest, ZeroEtaKeepsMemoryScaled) {
  Rng rng(9);
  MetaLearner learner(SmallOptions(true), &rng);
  TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
  const nn::Matrix before = learner.memory_vr();
  learner.UpdateMemories(tm, /*eta=*/0.0, /*beta=*/0.0, /*gamma=*/0.0);
  // eta = 0 leaves M_vR unchanged.
  for (int64_t r = 0; r < before.rows(); ++r) {
    for (int64_t c = 0; c < before.cols(); ++c) {
      EXPECT_DOUBLE_EQ(before(r, c), learner.memory_vr()(r, c));
    }
  }
}

TEST(MetaLearnerTest, RequiresTupleFeatureDim) {
  Rng rng(10);
  MetaLearnerOptions opt = SmallOptions(false);
  opt.tuple_feature_dim = 0;
  EXPECT_DEATH(MetaLearner(opt, &rng), "tuple_feature_dim");
}

// A tuple span shorter than count x f_tau's input width must die before the
// batch forward slices past its end.
TEST(MetaLearnerTest, PredictProbabilityBatchRejectsShortInput) {
  Rng rng(12);
  MetaLearner learner(SmallOptions(true), &rng);
  const TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
  TaskModel::BatchScratch scratch;
  std::vector<double> out(3);
  const std::vector<double> two_tuples(2 * 6, 0.5);
  EXPECT_DEATH(tm.PredictProbabilityBatch(two_tuples, 3, &scratch, out),
               "tuples\\.size\\(\\)");
}

}  // namespace
}  // namespace lte::core
