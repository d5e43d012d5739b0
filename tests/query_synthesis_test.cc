#include "core/query_synthesis.h"

#include <gtest/gtest.h>

#include "core/exploration_model.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace lte::core {
namespace {

class QuerySynthesisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(7);
    table_ = data::MakeBlobs(4000, 4, 4, rng_.get());
    // Normalize to [0,1] so box bounds are easy to reason about.
    preprocess::MinMaxNormalizer norm;
    ASSERT_TRUE(norm.Fit(table_).ok());
    normalizer_ = norm;
    data::Table normalized(table_.AttributeNames());
    for (int64_t r = 0; r < table_.num_rows(); ++r) {
      ASSERT_TRUE(normalized.AppendRow(norm.TransformRow(table_.Row(r))).ok());
    }
    table_ = std::move(normalized);

    ExplorerOptions opt;
    opt.task_gen.k_u = 30;
    opt.task_gen.k_s = 10;
    opt.task_gen.k_q = 30;
    opt.learner.embedding_size = 12;
    opt.learner.clf_hidden = {12};
    opt.learner.num_memory_modes = 3;
    opt.num_meta_tasks = 25;
    opt.trainer.epochs = 3;
    opt.trainer.local_steps = 3;
    auto model = std::make_shared<ExplorationModel>(opt);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    ASSERT_TRUE(
        model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
            .ok());
    session_ = std::make_unique<ExplorationSession>(model);
  }

  void Explore(double threshold) {
    std::vector<std::vector<double>> labels(2);
    for (int s = 0; s < 2; ++s) {
      for (const auto& t : *session_->model().InitialTuples(s)) {
        labels[static_cast<size_t>(s)].push_back(t[0] < threshold ? 1.0 : 0.0);
      }
    }
    ASSERT_TRUE(
        session_->StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  }

  std::unique_ptr<Rng> rng_;
  data::Table table_;
  preprocess::MinMaxNormalizer normalizer_;
  std::vector<data::Subspace> subspaces_;
  std::unique_ptr<ExplorationSession> session_;
};

TEST_F(QuerySynthesisTest, RequiresExploration) {
  SynthesizedQuery query;
  EXPECT_EQ(SynthesizeQuery(*session_, QuerySynthesisOptions{}, &query).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QuerySynthesisTest, QueryAgreesWithClassifier) {
  Explore(0.5);
  SynthesizedQuery query;
  ASSERT_TRUE(
      SynthesizeQuery(*session_, QuerySynthesisOptions{}, &query).ok());
  ASSERT_EQ(query.clauses.size(), 2u);

  // The synthesized predicate should closely agree with the classifier it
  // distilled, on held-out rows.
  eval::ConfusionCounts counts;
  for (int64_t r = 0; r < 1000; ++r) {
    const std::vector<double> row = table_.Row(r);
    counts.Add(session_->PredictRow(row).value_or(0.0),
               query.Matches(row) ? 1.0 : 0.0);
  }
  EXPECT_GT(eval::F1Score(counts), 0.8);
}

TEST_F(QuerySynthesisTest, SqlRendering) {
  Explore(0.5);
  SynthesizedQuery query;
  ASSERT_TRUE(
      SynthesizeQuery(*session_, QuerySynthesisOptions{}, &query).ok());
  const std::string sql =
      query.ToSql("blobs", table_.AttributeNames(), nullptr);
  EXPECT_NE(sql.find("SELECT * FROM blobs"), std::string::npos);
  EXPECT_NE(sql.find("BETWEEN"), std::string::npos);
  EXPECT_NE(sql.find("a0"), std::string::npos);
}

TEST_F(QuerySynthesisTest, SqlDenormalizesBounds) {
  Explore(0.5);
  SynthesizedQuery query;
  ASSERT_TRUE(
      SynthesizeQuery(*session_, QuerySynthesisOptions{}, &query).ok());
  const std::string raw_sql =
      query.ToSql("blobs", table_.AttributeNames(), &normalizer_);
  // Denormalized bounds live on the raw blob scale (roughly [-5, 15]), so
  // the SQL should not be identical to the normalized rendering.
  const std::string norm_sql =
      query.ToSql("blobs", table_.AttributeNames(), nullptr);
  EXPECT_NE(raw_sql, norm_sql);
}

TEST_F(QuerySynthesisTest, AllNegativeYieldsFalseClause) {
  // Label everything uninteresting: the synthesized query matches nothing.
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    labels[static_cast<size_t>(s)].assign(
        session_->model().InitialTuples(s)->size(), 0.0);
  }
  ASSERT_TRUE(
      session_->StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  SynthesizedQuery query;
  ASSERT_TRUE(
      SynthesizeQuery(*session_, QuerySynthesisOptions{}, &query).ok());
  int matches = 0;
  int classifier_positives = 0;
  for (int64_t r = 0; r < 500; ++r) {
    matches += query.Matches(table_.Row(r)) ? 1 : 0;
    classifier_positives +=
        session_->PredictRow(table_.Row(r)).value_or(0.0) > 0.5;
  }
  // The query may only match rows the classifier also accepts (both should
  // be near zero on all-negative labels).
  EXPECT_LE(matches, classifier_positives + 25);
}

TEST_F(QuerySynthesisTest, MaxBoxesRespected) {
  Explore(0.5);
  QuerySynthesisOptions opt;
  opt.max_boxes_per_subspace = 2;
  SynthesizedQuery query;
  ASSERT_TRUE(SynthesizeQuery(*session_, opt, &query).ok());
  for (const SubspaceClause& clause : query.clauses) {
    EXPECT_LE(clause.boxes.size(), 2u);
  }
}

}  // namespace
}  // namespace lte::core
