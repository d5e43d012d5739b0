#include "core/meta_trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/uis_feature.h"
#include "data/table.h"
#include "preprocess/tabular_encoder.h"

namespace lte::core {
namespace {

// Raw points as full-width code rows: the identity encoding's training
// layout.
std::vector<Code> Pack(const std::vector<std::vector<double>>& points) {
  std::vector<Code> packed;
  for (const auto& p : points) {
    for (size_t c = 0; c < p.size(); ++c) {
      packed.push_back({static_cast<int64_t>(c), p[c]});
    }
  }
  return packed;
}

// A miniature meta-learning problem over a 2-D unit square. Encoding is the
// identity (raw coordinates), so everything stays tiny and fast.
class MetaTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(17);
    for (int i = 0; i < 3000; ++i) {
      points_.push_back({rng_->Uniform(), rng_->Uniform()});
    }
    MetaTaskGenOptions gopt;
    gopt.k_u = 30;
    gopt.k_s = 10;
    gopt.k_q = 30;
    gopt.delta = 5;
    gopt.alpha = 2;
    gopt.psi = 8;
    generator_ = std::make_unique<MetaTaskGenerator>(gopt);
    ASSERT_TRUE(generator_->Init(points_, rng_.get()).ok());
  }

  MetaLearnerOptions LearnerOptions(bool memory) const {
    MetaLearnerOptions opt;
    opt.uis_feature_dim = 30;
    opt.tuple_feature_dim = 2;  // Identity encoding.
    opt.embedding_size = 12;
    opt.clf_hidden = {12};
    opt.use_memory = memory;
    opt.num_memory_modes = 3;
    return opt;
  }

  std::vector<EncodedMetaTask> MakeTasks(int64_t n) {
    std::vector<EncodedMetaTask> tasks;
    for (const MetaTask& t : generator_->GenerateTaskSet(n, rng_.get())) {
      tasks.push_back({t.uis_feature, Pack(t.support_points), t.support_labels,
                       Pack(t.query_points), t.query_labels,
                       /*codes_per_row=*/2});
    }
    return tasks;
  }

  std::vector<std::vector<double>> points_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<MetaTaskGenerator> generator_;
};

TEST_F(MetaTrainerTest, EncodeTasksPreservesShapes) {
  // A fitted min-max encoder writes one code per attribute, so every
  // encoded row has 2 codes.
  data::Table table({"x", "y"});
  for (const auto& p : points_) ASSERT_TRUE(table.AppendRow(p).ok());
  preprocess::EncoderOptions eopt;
  eopt.mode = preprocess::EncodingMode::kMinMaxOnly;
  preprocess::TabularEncoder encoder(eopt);
  ASSERT_TRUE(encoder.Fit(table, rng_.get()).ok());
  const std::vector<MetaTask> raw = generator_->GenerateTaskSet(3, rng_.get());
  const std::vector<EncodedMetaTask> tasks =
      EncodeTasks(raw, encoder, {0, 1}, /*num_threads=*/1);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].support_y.size(), 15u);
  EXPECT_EQ(tasks[0].query_y.size(), 35u);
  EXPECT_EQ(tasks[0].uis_feature.size(), 30u);
  EXPECT_EQ(tasks[0].codes_per_row, 2);
  EXPECT_EQ(tasks[0].support_x.size(), 15u * 2);
  EXPECT_EQ(tasks[0].query_x.size(), 35u * 2);
  // Row 0 is support point 0, encoded attribute by attribute.
  std::vector<Code> row0(2);
  encoder.EncodeValueCodes(0, raw[0].support_points[0][0], 0, &row0[0]);
  encoder.EncodeValueCodes(1, raw[0].support_points[0][1], 1, &row0[1]);
  EXPECT_EQ(std::vector<Code>(tasks[0].support_x.begin(),
                              tasks[0].support_x.begin() + 2),
            row0);
  // The fan-out writes the same bytes at any lane count.
  const std::vector<EncodedMetaTask> parallel =
      EncodeTasks(raw, encoder, {0, 1}, /*num_threads=*/4);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(parallel[i].support_x, tasks[i].support_x);
    EXPECT_EQ(parallel[i].query_x, tasks[i].query_x);
  }
}

TEST_F(MetaTrainerTest, LocallyAdaptFitsSupportSet) {
  const std::vector<EncodedMetaTask> tasks = MakeTasks(1);
  MetaLearner learner(LearnerOptions(false), rng_.get());
  TaskModel tm = learner.CreateTaskModel(tasks[0].uis_feature);
  const double before =
      tm.EvaluateLoss(tasks[0].support(), tasks[0].support_y);
  LocallyAdapt(&tm, tasks[0].support(), tasks[0].support_y, /*steps=*/120,
               /*batch_size=*/8, /*lr=*/0.3, rng_.get());
  const double after =
      tm.EvaluateLoss(tasks[0].support(), tasks[0].support_y);
  EXPECT_LT(after, before);
}

TEST_F(MetaTrainerTest, MetaTrainingReducesQueryLoss) {
  for (bool memory : {false, true}) {
    const std::vector<EncodedMetaTask> tasks = MakeTasks(100);
    MetaLearner learner(LearnerOptions(memory), rng_.get());
    MetaTrainerOptions topt;
    topt.epochs = 12;
    topt.task_batch_size = 10;
    topt.local_steps = 2;
    topt.local_batch_size = 8;
    topt.local_lr = 0.2;
    topt.global_lr = 0.3;
    MetaTrainStats stats;
    ASSERT_TRUE(MetaTrain(tasks, topt, rng_.get(), &learner, &stats).ok());
    ASSERT_EQ(stats.epoch_query_loss.size(), 12u);
    // Epoch losses fluctuate; the tail must improve on the head.
    const double head = std::min(stats.epoch_query_loss[0],
                                 stats.epoch_query_loss[1]);
    const double tail = std::min(stats.epoch_query_loss[10],
                                 stats.epoch_query_loss[11]);
    EXPECT_LT(tail, head) << "memory=" << memory;
  }
}

TEST_F(MetaTrainerTest, MetaInitializationAdaptsFasterThanRandom) {
  // The headline claim of the paper in miniature: after meta-training, a few
  // local steps on a *new* task reach a lower query loss than the same steps
  // from random initialization. Needs enough global update steps
  // (epochs x tasks / batch) to show a robust gap.
  const std::vector<EncodedMetaTask> train_tasks = MakeTasks(150);
  MetaLearner meta(LearnerOptions(true), rng_.get());
  MetaTrainerOptions topt;
  topt.epochs = 20;
  topt.task_batch_size = 10;
  topt.local_steps = 2;
  topt.local_batch_size = 8;
  topt.local_lr = 0.2;
  topt.global_lr = 0.3;
  ASSERT_TRUE(MetaTrain(train_tasks, topt, rng_.get(), &meta, nullptr).ok());

  MetaLearner random(LearnerOptions(true), rng_.get());

  const std::vector<EncodedMetaTask> test_tasks = MakeTasks(10);
  double meta_loss = 0.0;
  double random_loss = 0.0;
  for (const EncodedMetaTask& task : test_tasks) {
    TaskModel tm_meta = meta.CreateTaskModel(task.uis_feature);
    TaskModel tm_rand = random.CreateTaskModel(task.uis_feature);
    // Paired adaptation randomness so the comparison is apples-to-apples.
    Rng rng_a(1234);
    Rng rng_b(1234);
    LocallyAdapt(&tm_meta, task.support(), task.support_y, 8, 8, 0.2, &rng_a);
    LocallyAdapt(&tm_rand, task.support(), task.support_y, 8, 8, 0.2, &rng_b);
    meta_loss += tm_meta.EvaluateLoss(task.query(), task.query_y);
    random_loss += tm_rand.EvaluateLoss(task.query(), task.query_y);
  }
  EXPECT_LT(meta_loss, random_loss);
}

TEST_F(MetaTrainerTest, ReptileAlsoBeatsRandomInitialization) {
  // The framework claims orthogonality to the meta-learning algorithm
  // (paper Section VI-B); Reptile must also produce an initialization that
  // adapts better than random.
  const std::vector<EncodedMetaTask> train_tasks = MakeTasks(150);
  MetaLearner meta(LearnerOptions(true), rng_.get());
  MetaTrainerOptions topt;
  topt.algorithm = MetaAlgorithm::kReptile;
  topt.epochs = 20;
  topt.task_batch_size = 10;
  topt.local_steps = 4;
  topt.local_batch_size = 8;
  topt.local_lr = 0.2;
  topt.global_lr = 0.5;  // Reptile steps are parameter deltas, not grads.
  ASSERT_TRUE(MetaTrain(train_tasks, topt, rng_.get(), &meta, nullptr).ok());

  MetaLearner random(LearnerOptions(true), rng_.get());
  const std::vector<EncodedMetaTask> test_tasks = MakeTasks(10);
  double meta_loss = 0.0;
  double random_loss = 0.0;
  for (const EncodedMetaTask& task : test_tasks) {
    TaskModel tm_meta = meta.CreateTaskModel(task.uis_feature);
    TaskModel tm_rand = random.CreateTaskModel(task.uis_feature);
    Rng rng_a(77);
    Rng rng_b(77);
    LocallyAdapt(&tm_meta, task.support(), task.support_y, 8, 8, 0.2, &rng_a);
    LocallyAdapt(&tm_rand, task.support(), task.support_y, 8, 8, 0.2, &rng_b);
    meta_loss += tm_meta.EvaluateLoss(task.query(), task.query_y);
    random_loss += tm_rand.EvaluateLoss(task.query(), task.query_y);
  }
  EXPECT_LT(meta_loss, random_loss);
}

TEST_F(MetaTrainerTest, ParallelTrainingIsThreadCountInvariant) {
  // The batch parallelization must be bit-identical to sequential training:
  // per-task forked RNGs, ordered aggregation, ordered memory writes.
  const std::vector<EncodedMetaTask> tasks = MakeTasks(30);
  auto train_with = [&](int64_t threads) {
    Rng rng(1234);
    MetaLearner learner(LearnerOptions(true), &rng);
    MetaTrainerOptions topt;
    topt.epochs = 3;
    topt.task_batch_size = 10;
    topt.local_steps = 3;
    topt.local_batch_size = 8;
    topt.num_threads = threads;
    MetaTrainStats stats;
    EXPECT_TRUE(MetaTrain(tasks, topt, &rng, &learner, &stats).ok());
    std::vector<double> params = learner.phi_r().GetParameters();
    const std::vector<double> tau = learner.phi_tau().GetParameters();
    const std::vector<double> clf = learner.phi_clf().GetParameters();
    params.insert(params.end(), tau.begin(), tau.end());
    params.insert(params.end(), clf.begin(), clf.end());
    params.insert(params.end(), stats.epoch_query_loss.begin(),
                  stats.epoch_query_loss.end());
    return params;
  };
  const std::vector<double> sequential = train_with(1);
  const std::vector<double> parallel4 = train_with(4);
  ASSERT_EQ(sequential.size(), parallel4.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_DOUBLE_EQ(sequential[i], parallel4[i]) << "param " << i;
  }
}

TEST_F(MetaTrainerTest, InvalidOptionsRejected) {
  const std::vector<EncodedMetaTask> tasks = MakeTasks(2);
  MetaLearner learner(LearnerOptions(false), rng_.get());
  MetaTrainerOptions topt;
  topt.epochs = 0;
  EXPECT_FALSE(MetaTrain(tasks, topt, rng_.get(), &learner, nullptr).ok());
  topt = MetaTrainerOptions{};
  EXPECT_FALSE(MetaTrain({}, topt, rng_.get(), &learner, nullptr).ok());
}

// Learning rates that are NaN, infinite or not positive, and memory rates
// outside [0, 1], are refused before any work: the learner and the caller's
// stream are untouched. A NaN global_lr used to train every parameter of
// phi_clf to NaN and return OK.
TEST_F(MetaTrainerTest, InvalidRatesRejectedBeforeAnyWork) {
  const std::vector<EncodedMetaTask> tasks = MakeTasks(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, MetaTrainerOptions>> bad;
  for (const double lr : {nan, inf, 0.0, -1.0}) {
    MetaTrainerOptions topt;
    topt.local_lr = lr;
    bad.emplace_back("local_lr=" + std::to_string(lr), topt);
    topt = MetaTrainerOptions{};
    topt.global_lr = lr;
    bad.emplace_back("global_lr=" + std::to_string(lr), topt);
  }
  for (const double rate : {nan, -0.1, 1.5, inf}) {
    for (double MetaTrainerOptions::*field :
         {&MetaTrainerOptions::eta, &MetaTrainerOptions::beta,
          &MetaTrainerOptions::gamma}) {
      MetaTrainerOptions topt;
      topt.*field = rate;
      bad.emplace_back("memory rate=" + std::to_string(rate), topt);
    }
  }
  for (auto& [what, topt] : bad) {
    topt.epochs = 1;
    MetaLearner learner(LearnerOptions(true), rng_.get());
    const std::vector<double> clf = learner.phi_clf().GetParameters();
    const std::vector<double> cp = learner.memory_cp().front().data();
    Rng rng(3);
    const Status st = MetaTrain(tasks, topt, &rng, &learner, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_EQ(learner.phi_clf().GetParameters(), clf) << what;
    EXPECT_EQ(learner.memory_cp().front().data(), cp) << what;
    EXPECT_EQ(rng.engine()(), Rng(3).engine()()) << what;
  }
  // The ends of the memory rates' range are valid.
  MetaTrainerOptions edges;
  edges.epochs = 1;
  edges.eta = 0.0;
  edges.beta = 1.0;
  edges.gamma = 1.0;
  MetaLearner learner(LearnerOptions(true), rng_.get());
  EXPECT_TRUE(MetaTrain(tasks, edges, rng_.get(), &learner, nullptr).ok());
}

}  // namespace
}  // namespace lte::core
