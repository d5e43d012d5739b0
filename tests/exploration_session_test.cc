#include "core/exploration_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "data/synthetic.h"
#include "small_explorer_options.h"

namespace lte::core {
namespace {

class ExplorationSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    table_ = data::MakeBlobs(4000, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(
        model_->Pretrain(table_, subspaces_, /*train_meta=*/true,
                         &pretrain_rng)
            .ok());
  }

  // Simulated user `u`: interesting iff the subspace point's first
  // coordinate is below a per-user fraction of that attribute's range.
  // Distinct users get distinct thresholds (and therefore distinct adapted
  // models).
  std::vector<std::vector<double>> UserLabels(int64_t u) const {
    const double fraction = 0.35 + 0.12 * static_cast<double>(u);
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + fraction * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  static Variant UserVariant(int64_t u) {
    switch (u % 3) {
      case 0:
        return Variant::kMetaStar;
      case 1:
        return Variant::kMeta;
      default:
        return Variant::kBasic;
    }
  }

  // One user's complete exploration outcome, for exact comparison.
  struct Outcome {
    std::vector<double> predictions;
    std::vector<int64_t> matches;

    bool operator==(const Outcome& other) const {
      return predictions == other.predictions && matches == other.matches;
    }
  };

  // Runs user `u` start to finish on `session`: adapt, batch-predict a row
  // sample, and retrieve all matches.
  Outcome RunUser(ExplorationSession* session, int64_t u) const {
    Outcome out;
    Rng rng(100 + static_cast<uint64_t>(u));
    EXPECT_TRUE(
        session->StartExploration(UserLabels(u), UserVariant(u), &rng).ok());
    std::vector<int64_t> rows(500);
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_TRUE(session->PredictRows(table_, rows, &out.predictions).ok());
    EXPECT_TRUE(session->RetrieveMatches(table_, -1, &out.matches).ok());
    return out;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

TEST_F(ExplorationSessionTest, SessionServesModelQueries) {
  ExplorationSession session(model_);
  Rng rng(99);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMetaStar, &rng).ok());
  EXPECT_EQ(session.active_subspaces(), 2);
  const std::optional<double> pred = session.PredictRow(table_.Row(0));
  ASSERT_TRUE(pred.has_value());
  EXPECT_TRUE(*pred == 0.0 || *pred == 1.0);
}

// The tentpole contract: N sessions exploring concurrently against one
// shared model produce byte-identical results to N sequential standalone
// runs. Each user runs a different variant and distinct labels, every
// session fans its own scans out on the shared pool, and all adaptation
// happens concurrently too — the strongest interleaving the serving
// architecture promises to survive.
TEST_F(ExplorationSessionTest, ConcurrentSessionsMatchSequentialRuns) {
  constexpr int64_t kUsers = 4;

  std::vector<Outcome> sequential(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) {
    ExplorationSession session(model_, /*num_threads=*/2);
    sequential[static_cast<size_t>(u)] = RunUser(&session, u);
  }

  std::vector<Outcome> concurrent(kUsers);
  {
    std::vector<std::thread> users;
    users.reserve(kUsers);
    for (int64_t u = 0; u < kUsers; ++u) {
      users.emplace_back([&, u] {
        ExplorationSession session(model_, /*num_threads=*/2);
        concurrent[static_cast<size_t>(u)] = RunUser(&session, u);
      });
    }
    for (std::thread& t : users) t.join();
  }

  for (int64_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(concurrent[static_cast<size_t>(u)],
              sequential[static_cast<size_t>(u)])
        << "user " << u << " diverged under concurrency";
  }
  // Distinct users genuinely explored distinct regions (the test would be
  // vacuous if every outcome were identical).
  EXPECT_NE(sequential[0], sequential[2]);
}

TEST_F(ExplorationSessionTest, SessionThreadOverrideIsResultInvariant) {
  // A session's private thread knob changes scheduling, never results.
  ExplorationSession seq(model_, /*num_threads=*/1);
  ExplorationSession par(model_, /*num_threads=*/4);
  EXPECT_EQ(seq.num_threads(), 1);
  EXPECT_EQ(par.num_threads(), 4);
  const Outcome a = RunUser(&seq, 1);
  const Outcome b = RunUser(&par, 1);
  EXPECT_EQ(a, b);
}

TEST_F(ExplorationSessionTest, InheritsModelThreadKnobByDefault) {
  ExplorationSession session(model_);
  EXPECT_EQ(session.num_threads(), model_->options().num_threads);
}

TEST_F(ExplorationSessionTest, MisuseReturnsStatusNotAbort) {
  ExplorationSession session(model_);
  // Query surface before StartExploration.
  EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
  EXPECT_FALSE(session.PredictSubspace(0, {0.5, 0.5}).has_value());
  std::vector<double> preds;
  std::vector<int64_t> rows = {0, 1};
  EXPECT_EQ(session.PredictRows(table_, rows, &preds).code(),
            StatusCode::kFailedPrecondition);
  std::vector<int64_t> matches;
  EXPECT_EQ(session.RetrieveMatches(table_, -1, &matches).code(),
            StatusCode::kFailedPrecondition);
  std::vector<int64_t> suggested;
  EXPECT_EQ(session.SuggestTuples(0, {{0.1, 0.2}}, 1, &suggested).code(),
            StatusCode::kFailedPrecondition);
  Rng rng(1);
  EXPECT_EQ(session.ContinueExploration(0, {{0.1, 0.2}}, {1.0}, &rng).code(),
            StatusCode::kInvalidArgument);

  // Untrained model.
  auto cold = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ExplorationSession cold_session(cold);
  EXPECT_EQ(
      cold_session.StartExploration({{1.0}}, Variant::kBasic, &rng).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ExplorationSessionTest, ContinueExplorationNullRngIsError) {
  // Regression: a null rng used to reach the local-update path and
  // dereference, aborting the process; it must come back as a misuse error
  // like every other bad argument.
  ExplorationSession session(model_);
  Rng rng(7);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMeta, &rng).ok());
  const Status s =
      session.ContinueExploration(0, {{0.1, 0.2}}, {1.0}, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The session is untouched and still serves queries.
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
}

// A NaN or out-of-range label, or a non-finite point, is refused before any
// state changes: one NaN would otherwise turn every adapted parameter into
// NaN, and the session would checkpoint that state.
TEST_F(ExplorationSessionTest, RejectsNonFiniteInputsWithoutStateChange) {
  ExplorationSession session(model_, 1);
  session.SeedRng(9);
  ASSERT_TRUE(session
                  .StartExploration(UserLabels(0), Variant::kMetaStar,
                                    session.session_rng())
                  .ok());
  const auto saved = [&session] {
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(session.SaveToStream(&out).ok());
    return out.str();
  };
  const std::string before = saved();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> point = (*model_->InitialTuples(0))[0];

  for (const double bad : {nan, inf, -0.5, 1.5}) {
    EXPECT_EQ(session
                  .ContinueExploration(0, {point, point}, {1.0, bad},
                                       session.session_rng())
                  .code(),
              StatusCode::kInvalidArgument)
        << "label " << bad;
    std::vector<double> bad_point = point;
    bad_point[1] = bad;
    if (!std::isfinite(bad)) {
      EXPECT_EQ(session
                    .ContinueExploration(0, {point, bad_point}, {1.0, 0.0},
                                         session.session_rng())
                    .code(),
                StatusCode::kInvalidArgument)
          << "coordinate " << bad;
    }
    std::vector<std::vector<double>> labels = UserLabels(1);
    labels[1][3] = bad;
    EXPECT_EQ(session
                  .StartExploration(labels, Variant::kMetaStar,
                                    session.session_rng())
                  .code(),
              StatusCode::kInvalidArgument)
        << "start label " << bad;
  }
  EXPECT_EQ(saved(), before);
}

TEST_F(ExplorationSessionTest, ResetDropsAdaptedState) {
  ExplorationSession session(model_);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMeta, &rng).ok());
  ASSERT_EQ(session.active_subspaces(), 2);
  session.Reset();
  EXPECT_EQ(session.active_subspaces(), 0);
  EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
  // The model is untouched: a fresh exploration still works.
  ASSERT_TRUE(
      session.StartExploration(UserLabels(1), Variant::kMeta, &rng).ok());
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
}

TEST_F(ExplorationSessionTest, ModelAccessorsRejectOutOfRange) {
  EXPECT_EQ(model_->subspace(-1), nullptr);
  EXPECT_EQ(model_->subspace(2), nullptr);
  EXPECT_EQ(model_->InitialTuples(99), nullptr);
  EXPECT_EQ(model_->generator(-3), nullptr);
  EXPECT_EQ(model_->meta_learner(2), nullptr);
  EXPECT_NE(model_->meta_learner(0), nullptr);
}

// The offline-to-online flow of a single user: pretrain a model (with or
// without meta-training) from the fixture's rng stream, attach a session,
// explore, and query.
class ExplorationSessionEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(23);
    table_ = data::MakeBlobs(4000, 4, 5, rng_.get());
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
  }

  std::unique_ptr<Rng> rng_;
  data::Table table_;
  std::vector<data::Subspace> subspaces_;
};

TEST_F(ExplorationSessionEndToEndTest, PretrainWithoutMetaPreparesContexts) {
  ExplorationModel model(SmallExplorerOptions());
  ASSERT_TRUE(
      model.Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  EXPECT_EQ(model.num_subspaces(), 2);
  EXPECT_FALSE(model.meta_trained());
  ASSERT_NE(model.InitialTuples(0), nullptr);
  EXPECT_EQ(model.InitialTuples(0)->size(), 15u);  // k_s + delta.
  EXPECT_DOUBLE_EQ(model.meta_training_seconds(), 0.0);
}

TEST_F(ExplorationSessionEndToEndTest, OfflineTrainingIsThreadCountInvariant) {
  // The per-subspace fan-out must not change the trained model: every
  // subspace trains on its own Rng::Fork(s) stream, so one lane and four
  // lanes serialize to the very same bytes. (Trainer options are not part
  // of the serialized state, so a byte comparison is exact.)
  auto pretrain_bytes = [&](int64_t threads) {
    ExplorerOptions opt = SmallExplorerOptions();
    opt.num_threads = threads;
    opt.trainer.num_threads = threads;
    ExplorationModel model(opt);
    Rng rng(23);
    EXPECT_TRUE(
        model.Pretrain(table_, subspaces_, /*train_meta=*/true, &rng).ok());
    const std::string path =
        testing::TempDir() + "lte_threads_" + std::to_string(threads) +
        ".ltemodel";
    EXPECT_TRUE(model.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string sequential = pretrain_bytes(1);
  const std::string parallel4 = pretrain_bytes(4);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel4);
}

TEST_F(ExplorationSessionEndToEndTest, MetaVariantRequiresMetaTraining) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    labels[static_cast<size_t>(s)].assign(model->InitialTuples(s)->size(),
                                          0.0);
    labels[static_cast<size_t>(s)][0] = 1.0;
  }
  const Status status =
      session.StartExploration(labels, Variant::kMeta, rng_.get());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // Basic works without meta-training.
  EXPECT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
}

TEST_F(ExplorationSessionEndToEndTest, EndToEndBasicExploration) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);

  // Ground truth: interesting iff attr0 below its median (per subspace 0)
  // — a simple axis-aligned region.
  const double median0 = 0.5 * (table_.column(0).min() + table_.column(0).max());
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& tuple : *model->InitialTuples(s)) {
      const bool interesting = s == 0 ? tuple[0] < median0 : true;
      labels[static_cast<size_t>(s)].push_back(interesting ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  EXPECT_EQ(session.active_subspaces(), 2);

  // Prediction shape checks on arbitrary rows.
  for (int64_t r = 0; r < 10; ++r) {
    const double p = session.PredictRow(table_.Row(r)).value_or(-1.0);
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

TEST_F(ExplorationSessionEndToEndTest, MetaAndMetaStarExploration) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/true, rng_.get())
          .ok());
  EXPECT_TRUE(model->meta_trained());
  EXPECT_GT(model->meta_training_seconds(), 0.0);
  EXPECT_GT(model->task_generation_seconds(), 0.0);
  ExplorationSession session(model);

  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& tuple : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(tuple[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMeta, rng_.get()).ok());
  const double meta_pred = session.PredictRow(table_.Row(0)).value_or(-1.0);
  EXPECT_TRUE(meta_pred == 0.0 || meta_pred == 1.0);

  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMetaStar, rng_.get()).ok());
  // Meta*'s FP repair: a far-away point must be negative.
  std::vector<double> far_row = {1e6, 1e6, 1e6, 1e6};
  EXPECT_DOUBLE_EQ(session.PredictRow(far_row).value_or(-1.0), 0.0);
}

TEST_F(ExplorationSessionEndToEndTest, PrefixExploration) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(model->InitialTuples(0)->size(), 1.0);
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  EXPECT_EQ(session.active_subspaces(), 1);
  // PredictRow conjoins only the first subspace.
  const double p = session.PredictRow(table_.Row(0)).value_or(-1.0);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
}

TEST_F(ExplorationSessionEndToEndTest, LabelShapeMismatchRejected) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  labels[0].assign(3, 1.0);  // Wrong size.
  labels[1].assign(model->InitialTuples(1)->size(), 1.0);
  EXPECT_FALSE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  // Too many label sets.
  std::vector<std::vector<double>> too_many(3);
  EXPECT_FALSE(
      session.StartExploration(too_many, Variant::kBasic, rng_.get()).ok());
}

TEST_F(ExplorationSessionEndToEndTest, EncoderOptionsPropagate) {
  ExplorerOptions opt = SmallExplorerOptions();
  opt.encoder.mode = preprocess::EncodingMode::kMinMaxOnly;
  ExplorationModel minmax(opt);
  ASSERT_TRUE(
      minmax.Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  // Min-max encoding is one value per attribute.
  EXPECT_EQ(minmax.encoder().ProjectedWidth({0, 1}), 2);

  opt.encoder.mode = preprocess::EncodingMode::kCombined;
  ExplorationModel combined(opt);
  ASSERT_TRUE(
      combined.Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  EXPECT_GT(combined.encoder().ProjectedWidth({0, 1}), 2);
}

TEST_F(ExplorationSessionEndToEndTest, SuggestTuplesRanksByUncertainty) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(1);
  for (const auto& t : *model->InitialTuples(0)) {
    labels[0].push_back(t[0] < 5.0 ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  std::vector<std::vector<double>> candidates;
  for (int64_t r = 0; r < 200; ++r) {
    const std::vector<double> row = table_.Row(r);
    candidates.push_back({row[0], row[1]});
  }
  std::vector<int64_t> picked;
  ASSERT_TRUE(session.SuggestTuples(0, candidates, 5, &picked).ok());
  ASSERT_EQ(picked.size(), 5u);
  // Every index valid and distinct.
  std::set<int64_t> uniq(picked.begin(), picked.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (int64_t i : picked) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 200);
  }
  // k larger than the candidate set clamps.
  ASSERT_TRUE(session.SuggestTuples(0, candidates, 1000, &picked).ok());
  EXPECT_EQ(picked.size(), 200u);
}

TEST_F(ExplorationSessionEndToEndTest, ContinueExplorationRefinesModel) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  const double threshold = 5.0;
  std::vector<std::vector<double>> labels(1);
  for (const auto& t : *model->InitialTuples(0)) {
    labels[0].push_back(t[0] < threshold ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  // Accuracy over a probe set before and after extra labelled rounds.
  auto accuracy = [&]() {
    int correct = 0;
    for (int64_t r = 0; r < 600; ++r) {
      const std::vector<double> row = table_.Row(r);
      const std::vector<double> p = {row[0], row[1]};
      const double truth = p[0] < threshold ? 1.0 : 0.0;
      if (session.PredictSubspace(0, p).value_or(-1.0) == truth) ++correct;
    }
    return static_cast<double>(correct) / 600.0;
  };
  const double before = accuracy();
  // Feed 100 extra labelled tuples (cumulative with the initial ones).
  std::vector<std::vector<double>> points;
  std::vector<double> extra_labels;
  for (int64_t r = 0; r < 100; ++r) {
    const std::vector<double> row = table_.Row(r);
    points.push_back({row[0], row[1]});
    extra_labels.push_back(row[0] < threshold ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.ContinueExploration(0, points, extra_labels, rng_.get()).ok());
  EXPECT_GE(accuracy(), before - 0.05);  // Must not collapse...
  EXPECT_GT(accuracy(), 0.7);            // ...and should be decent.

  // Invalid uses.
  EXPECT_FALSE(session.ContinueExploration(5, points, extra_labels, rng_.get())
                   .ok());  // Inactive subspace.
  EXPECT_FALSE(
      session.ContinueExploration(0, points, {1.0}, rng_.get()).ok());
  EXPECT_FALSE(session.ContinueExploration(0, {}, {}, rng_.get()).ok());
  // Null rng is a misuse error, not a crash (regression).
  EXPECT_FALSE(
      session.ContinueExploration(0, points, extra_labels, nullptr).ok());
  // The session still serves queries after the rejected call.
  EXPECT_TRUE(session.PredictSubspace(0, {1.0, 1.0}).has_value());
}

TEST_F(ExplorationSessionEndToEndTest, RetrieveMatchesReturnsPredictedRows) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& t : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  std::vector<int64_t> matches;
  ASSERT_TRUE(session.RetrieveMatches(table_, /*limit=*/-1, &matches).ok());
  for (int64_t r : matches) {
    EXPECT_DOUBLE_EQ(session.PredictRow(table_.Row(r)).value_or(-1.0), 1.0);
  }
  // A limit caps and preserves the prefix.
  if (matches.size() > 3) {
    std::vector<int64_t> limited;
    ASSERT_TRUE(session.RetrieveMatches(table_, 3, &limited).ok());
    ASSERT_EQ(limited.size(), 3u);
    EXPECT_EQ(limited[0], matches[0]);
    EXPECT_EQ(limited[2], matches[2]);
  }
  // limit == 0 is an empty result, not "scan everything".
  std::vector<int64_t> none = {123};
  ASSERT_TRUE(session.RetrieveMatches(table_, 0, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST_F(ExplorationSessionEndToEndTest, OneDimensionalSubspaceEndToEnd) {
  // A 5-attribute table split as 2D + 2D + 1D (the CAR layout).
  data::Table table = data::MakeBlobs(4000, 5, 4, rng_.get());
  std::vector<data::Subspace> subspaces = {
      data::Subspace{{0, 1}}, data::Subspace{{2, 3}}, data::Subspace{{4}}};
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table, subspaces, /*train_meta=*/true, rng_.get()).ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(3);
  for (int s = 0; s < 3; ++s) {
    for (const auto& t : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMetaStar, rng_.get()).ok());
  for (int64_t r = 0; r < 20; ++r) {
    const double p = session.PredictRow(table.Row(r)).value_or(-1.0);
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

TEST_F(ExplorationSessionEndToEndTest, PredictionMisuseYieldsNullopt) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  // Adapt only subspace 0.
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(model->InitialTuples(0)->size(), 1.0);
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  EXPECT_TRUE(session.PredictSubspace(0, {0.5, 0.5}).has_value());
  EXPECT_FALSE(
      session.PredictSubspace(1, {0.5, 0.5}).has_value());  // Un-adapted.
  EXPECT_FALSE(session.PredictSubspace(-1, {0.5, 0.5}).has_value());
  EXPECT_FALSE(session.PredictSubspace(9, {0.5, 0.5}).has_value());
  EXPECT_FALSE(
      session.PredictSubspace(0, {0.5}).has_value());  // Width mismatch.
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
  EXPECT_FALSE(session.PredictRow({0.5}).has_value());  // Row too narrow.
}

TEST_F(ExplorationSessionEndToEndTest, StartBeforePretrainFails) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ExplorationSession session(model);
  EXPECT_EQ(
      session.StartExploration({{1.0}}, Variant::kBasic, rng_.get()).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ExplorationSessionEndToEndTest, QueryAccessorsReturnNullOnMisuse) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ExplorationSession session(model);
  // Before Pretrain every accessor reports "nothing there" instead of
  // aborting.
  EXPECT_EQ(model->subspace(0), nullptr);
  EXPECT_EQ(model->InitialTuples(0), nullptr);
  EXPECT_EQ(model->generator(0), nullptr);
  EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
  EXPECT_FALSE(session.PredictSubspace(0, {0.0, 0.0}).has_value());

  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  EXPECT_NE(model->subspace(0), nullptr);
  EXPECT_NE(model->InitialTuples(1), nullptr);
  EXPECT_NE(model->generator(1), nullptr);
  EXPECT_EQ(model->subspace(-1), nullptr);
  EXPECT_EQ(model->subspace(2), nullptr);
  EXPECT_EQ(model->InitialTuples(7), nullptr);
  EXPECT_EQ(model->generator(-3), nullptr);
}

TEST_F(ExplorationSessionEndToEndTest, BatchQueryMisuseYieldsStatus) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ExplorationSession session(model);
  std::vector<int64_t> matches;
  std::vector<double> preds;
  const std::vector<int64_t> rows = {0, 1, 2};
  // Before StartExploration both batch entry points fail cleanly.
  EXPECT_EQ(session.RetrieveMatches(table_, -1, &matches).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.PredictRows(table_, rows, &preds).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    labels[static_cast<size_t>(s)].assign(model->InitialTuples(s)->size(),
                                          1.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  // Out-of-range row indices.
  const std::vector<int64_t> negative = {-1};
  const std::vector<int64_t> past_end = {table_.num_rows()};
  EXPECT_EQ(session.PredictRows(table_, negative, &preds).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.PredictRows(table_, past_end, &preds).code(),
            StatusCode::kOutOfRange);
  // A table narrower than the active subspaces' attributes.
  const data::Table narrow = table_.Project({0, 1});
  EXPECT_EQ(session.RetrieveMatches(narrow, -1, &matches).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.PredictRows(narrow, rows, &preds).code(),
            StatusCode::kInvalidArgument);

  // SuggestTuples misuse: un-adapted subspace, bad k, bad candidate width,
  // a non-finite candidate coordinate. The last is refused before any draw:
  // under a stochastic policy the session rng's next draw is unchanged.
  std::vector<int64_t> picked;
  EXPECT_EQ(session.SuggestTuples(5, {{0.5, 0.5}}, 1, &picked).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SuggestTuples(0, {{0.5, 0.5}}, -1, &picked).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.SuggestTuples(0, {{0.5, 0.5, 0.5}}, 1, &picked).code(),
            StatusCode::kInvalidArgument);
  session.SeedRng(17);
  policy::PolicyOptions softmax;
  softmax.kind = policy::PolicyKind::kSoftmax;
  ASSERT_TRUE(session.ConfigureSuggestPolicy(0, softmax).ok());
  Rng unchanged = *session.session_rng();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_EQ(
        session.SuggestTuples(0, {{0.5, 0.5}, {bad, 0.5}}, 1, &picked).code(),
        StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(session.session_rng()->Uniform(), unchanged.Uniform());
}

class ExplorationSessionParallelTest : public ExplorationSessionEndToEndTest {
 protected:
  // A session adapted on a freshly pretrained model at the given online
  // thread count. Every call pretrains from the same seed, so two sessions
  // differ only in the number of pool lanes their online path may use.
  std::unique_ptr<ExplorationSession> AdaptedSession(int64_t threads) {
    ExplorerOptions opt = SmallExplorerOptions();
    opt.num_threads = threads;
    auto model = std::make_shared<ExplorationModel>(opt);
    Rng rng(23);
    EXPECT_TRUE(
        model->Pretrain(table_, subspaces_, /*train_meta=*/false, &rng).ok());
    auto session = std::make_unique<ExplorationSession>(model);
    std::vector<std::vector<double>> labels(2);
    for (int s = 0; s < 2; ++s) {
      for (const auto& t : *model->InitialTuples(s)) {
        labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
      }
    }
    Rng online_rng(99);
    EXPECT_TRUE(
        session->StartExploration(labels, Variant::kBasic, &online_rng).ok());
    return session;
  }

  std::vector<int64_t> AllRows() const {
    std::vector<int64_t> rows(static_cast<size_t>(table_.num_rows()));
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
  }
};

TEST_F(ExplorationSessionParallelTest, StartExplorationThreadCountInvariant) {
  // The per-subspace adaptation lanes read key-split RNG streams, so the
  // adapted models — observed through their predictions over the whole
  // table — must be bit-identical at 1, 2, and 4 threads.
  const std::unique_ptr<ExplorationSession> s1 = AdaptedSession(1);
  const std::vector<int64_t> rows = AllRows();
  std::vector<double> p1;
  ASSERT_TRUE(s1->PredictRows(table_, rows, &p1).ok());
  ASSERT_EQ(p1.size(), rows.size());
  for (int64_t threads : {int64_t{2}, int64_t{4}}) {
    const std::unique_ptr<ExplorationSession> session = AdaptedSession(threads);
    std::vector<double> p;
    ASSERT_TRUE(session->PredictRows(table_, rows, &p).ok());
    EXPECT_EQ(p, p1) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lte::core
