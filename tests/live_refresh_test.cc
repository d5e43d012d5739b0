// serving::DriftRefreshController: the drift-triggered background refresh
// loop over a live table (DESIGN.md §2e). Same-distribution appends never
// trigger a rebuild; drifting appends publish exactly one new epoch through
// the registry; the rebuild is a deterministic function of (watermark rows,
// options, seed, epoch); and — the end-to-end property — sessions pinned to
// the pre-swap epoch keep answering byte-identically to a static run while
// the swap happens under them; and the refreshed model beats the stale one
// on a user interest inside the drifted region. The serve-across-swap test
// runs real reader threads against the ingest thread and is part of the
// TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "data/table.h"
#include "serving/live_refresh.h"
#include "serving/model_registry.h"
#include "small_explorer_options.h"

namespace lte::serving {
namespace {

// This suite pretrains at the trainer's default global rate.
core::ExplorerOptions SmallExplorerOptions() {
  core::ExplorerOptions opt = core::SmallExplorerOptions();
  opt.trainer.global_lr = core::MetaTrainerOptions{}.global_lr;
  return opt;
}

// The explorer options of the benches' convex-UIR runs at their default
// scale (k_u = 50, psi = k_u / 2), for the drifted-workload quality test.
// Every field not set here has the same value there.
core::ExplorerOptions SdssExplorerOptions() {
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 50;
  opt.task_gen.k_q = 60;
  opt.task_gen.alpha = 1;
  opt.task_gen.psi = 25;
  opt.learner.embedding_size = 24;
  opt.learner.clf_hidden = {24};
  opt.num_meta_tasks = 150;
  opt.online_steps = 40;
  opt.online_batch_size = 10;
  opt.online_lr = 0.2;
  return opt;
}

constexpr int64_t kBaseRows = 1200;
constexpr int64_t kBatchRows = 64;

class LiveRefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng data_rng(23);
    base_table_ = data::MakeBlobs(kBaseRows, 4, 3, &data_rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    // Contexts + initial tuples only (Basic-variant serving): keeps both the
    // initial pretrain and every background rebuild fast enough for TSan.
    model_ = std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(base_table_, subspaces_, /*train_meta=*/false,
                               &pretrain_rng)
                    .ok());
  }

  DriftRefreshOptions RefreshOptions() const {
    DriftRefreshOptions options;
    // One kBatchRows append completes a detector window, so a drifting batch
    // triggers on arrival.
    options.drift.window_size = kBatchRows;
    return options;
  }

  /// `n` rows cycled from the base table: the no-drift ingest stream.
  std::vector<std::vector<double>> SameDistributionRows(int64_t n) const {
    std::vector<std::vector<double>> rows;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back(base_table_.Row((i * 13) % kBaseRows));
    }
    return rows;
  }

  /// `n` rows pushed far outside every attribute's observed range: the
  /// quantization error explodes past any threshold, so drift is certain.
  std::vector<std::vector<double>> ShiftedRows(int64_t n) const {
    std::vector<std::vector<double>> rows = SameDistributionRows(n);
    for (auto& row : rows) {
      for (int64_t c = 0; c < base_table_.num_columns(); ++c) {
        const data::Column& col = base_table_.column(c);
        row[static_cast<size_t>(c)] += 8.0 * (col.max() - col.min() + 1.0);
      }
    }
    return rows;
  }

  std::vector<std::vector<double>> UserLabels(
      const core::ExplorationModel& model) const {
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          base_table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + 0.45 * (col.max() - col.min());
      for (const auto& tuple : *model.InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  data::Table base_table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<core::ExplorationModel> model_;
};

TEST_F(LiveRefreshTest, SameDistributionAppendsNeverTriggerARefresh) {
  data::Table table = base_table_;
  ModelRegistry registry(model_);
  DriftRefreshController controller(&registry, &table, subspaces_,
                                    RefreshOptions());
  for (int64_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(controller.AppendAndObserve(SameDistributionRows(kBatchRows))
                    .ok());
  }
  controller.WaitForRefresh();

  const DriftRefreshStats stats = controller.stats();
  EXPECT_EQ(stats.batches_observed, 3);
  EXPECT_EQ(stats.rows_observed, 3 * kBatchRows);
  EXPECT_EQ(stats.refreshes_triggered, 0);
  EXPECT_FALSE(controller.AnySubspaceDrifted());
  EXPECT_EQ(registry.current_epoch(), 1u);
  EXPECT_EQ(table.num_rows(), kBaseRows + 3 * kBatchRows);
}

TEST_F(LiveRefreshTest, DriftPublishesExactlyOneNewEpoch) {
  data::Table table = base_table_;
  ModelRegistry registry(model_);
  DriftRefreshController controller(&registry, &table, subspaces_,
                                    RefreshOptions());
  const uint64_t old_fingerprint = registry.Current().fingerprint;

  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(kBatchRows)).ok());
  controller.WaitForRefresh();

  const DriftRefreshStats stats = controller.stats();
  EXPECT_EQ(stats.refreshes_triggered, 1);
  EXPECT_EQ(stats.refreshes_completed, 1);
  EXPECT_EQ(stats.refresh_failures, 0);
  EXPECT_EQ(stats.last_published_epoch, 2u);
  const ModelSnapshot current = registry.Current();
  EXPECT_EQ(current.epoch, 2u);
  EXPECT_NE(current.fingerprint, old_fingerprint);
  EXPECT_TRUE(current.model->pretrained());

  // The detectors re-seeded from the refreshed model's contexts: the drift
  // verdict resets instead of latching on the old baseline forever.
  EXPECT_FALSE(controller.AnySubspaceDrifted());
}

TEST_F(LiveRefreshTest, RebuildIsDeterministic) {
  // Two independent stacks fed the same script publish identical models.
  uint64_t fingerprints[2] = {0, 0};
  int64_t watermarks[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    data::Table table = base_table_;
    ModelRegistry registry(model_);
    DriftRefreshController controller(&registry, &table, subspaces_,
                                      RefreshOptions());
    ASSERT_TRUE(controller.AppendAndObserve(SameDistributionRows(kBatchRows))
                    .ok());
    ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(kBatchRows)).ok());
    controller.WaitForRefresh();
    ASSERT_EQ(controller.stats().refreshes_completed, 1);
    fingerprints[run] = registry.Current().fingerprint;
    watermarks[run] = table.num_rows();
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  ASSERT_EQ(watermarks[0], watermarks[1]);

  // And the published model is exactly what a foreground pretrain of the
  // watermark prefix with the epoch-derived seed produces: the background
  // rebuild is a pure function of (prefix rows, options, seed, epoch).
  data::Table table = base_table_;
  ASSERT_TRUE(table.AppendRows(SameDistributionRows(kBatchRows)).ok());
  ASSERT_TRUE(table.AppendRows(ShiftedRows(kBatchRows)).ok());
  const data::Table snapshot = table.SnapshotPrefix(watermarks[0]);
  core::ExplorationModel foreground(SmallExplorerOptions());
  Rng rng(RefreshOptions().rebuild_seed + 2);  // Publishing epoch 2.
  ASSERT_TRUE(foreground
                  .Pretrain(snapshot, subspaces_, /*train_meta=*/false, &rng)
                  .ok());
  EXPECT_EQ(foreground.fingerprint(), fingerprints[0]);
}

TEST_F(LiveRefreshTest, DriftDuringRebuildNeverQueuesASecondRebuild) {
  data::Table table = base_table_;
  ModelRegistry registry(model_);
  DriftRefreshOptions options = RefreshOptions();
  options.drift.window_size = 8;  // Trigger off tiny batches.
  DriftRefreshController controller(&registry, &table, subspaces_, options);
  // The second drifting batch lands either while the first rebuild is still
  // in flight (coalesced into it: one trigger) or after it published (a
  // fresh trigger of its own). Both are correct; what must never happen is a
  // triggered rebuild that doesn't finish, or two in flight at once.
  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(8)).ok());
  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(8)).ok());
  controller.WaitForRefresh();
  const DriftRefreshStats stats = controller.stats();
  EXPECT_GE(stats.refreshes_triggered, 1);
  EXPECT_EQ(stats.refreshes_completed, stats.refreshes_triggered);
  EXPECT_EQ(stats.refresh_failures, 0);
  EXPECT_GE(registry.current_epoch(), 2u);
}

// A rebuild whose Pretrain fails publishes nothing: the registry keeps the
// old epoch, sessions on it keep their answers, and the next drifting batch
// tries again. The failure needs no seam: `Load` keeps the host knobs the
// file does not carry, so a saved model loaded into one built with encoder
// options `Fit` refuses serves normally, and every rebuild from its options
// fails before any work.
TEST_F(LiveRefreshTest, FailedRebuildKeepsServingTheOldEpoch) {
  core::ExplorerOptions refused = SmallExplorerOptions();
  refused.encoder.categorical_attributes = {0};
  refused.encoder.max_categories = 0;
  std::stringstream file;
  ASSERT_TRUE(model_->SaveToStream(&file).ok());
  auto loaded = std::make_shared<core::ExplorationModel>(refused);
  ASSERT_TRUE(loaded->LoadFromStream(&file).ok());
  {
    core::ExplorationModel rebuild(loaded->options());
    Rng rng(1);
    EXPECT_EQ(
        rebuild.Pretrain(base_table_, subspaces_, /*train_meta=*/false, &rng)
            .code(),
        StatusCode::kInvalidArgument);
  }

  data::Table table = base_table_;
  ModelRegistry registry(loaded);
  DriftRefreshController controller(&registry, &table, subspaces_,
                                    RefreshOptions());
  const ModelSnapshot before = registry.Current();
  // A session on the current model: its matches over the base rows.
  const auto current_matches = [&] {
    const ModelSnapshot current = registry.Current();
    core::ExplorationSession session(current.model, /*num_threads=*/1);
    Rng rng(1000);
    EXPECT_TRUE(session
                    .StartExploration(UserLabels(*current.model),
                                      core::Variant::kBasic, &rng)
                    .ok());
    std::vector<int64_t> matches;
    EXPECT_TRUE(session.RetrieveMatches(base_table_, -1, &matches).ok());
    return matches;
  };
  const std::vector<int64_t> served = current_matches();
  EXPECT_FALSE(served.empty());

  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(kBatchRows)).ok());
  controller.WaitForRefresh();
  DriftRefreshStats stats = controller.stats();
  EXPECT_EQ(stats.refreshes_triggered, 1);
  EXPECT_EQ(stats.refreshes_completed, 0);
  EXPECT_EQ(stats.refresh_failures, 1);
  EXPECT_EQ(stats.last_published_epoch, 0u);
  const ModelSnapshot after = registry.Current();
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.model, before.model);
  EXPECT_EQ(current_matches(), served);

  // The detectors kept their state, so the next drifting batch retries.
  EXPECT_TRUE(controller.AnySubspaceDrifted());
  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(kBatchRows)).ok());
  controller.WaitForRefresh();
  stats = controller.stats();
  EXPECT_EQ(stats.refreshes_triggered, 2);
  EXPECT_EQ(stats.refresh_failures, 2);
  EXPECT_EQ(registry.current_epoch(), 1u);
}

// The end-to-end hot-swap property (ISSUE acceptance): reader threads serve
// through sessions pinned to epoch 1 while the ingest thread appends
// drifting batches and the background rebuild publishes epoch 2. Every
// pre-swap-pinned answer is byte-identical to a static (never-appended,
// never-refreshed) run; post-swap sessions bind to the new model; stale
// checkpoints meet FailedPrecondition, never a torn model.
TEST_F(LiveRefreshTest, ServeAcrossSwapIsByteIdenticalToStaticRun) {
  // Static twin: the baseline bytes any pinned session must keep producing.
  std::vector<int64_t> rows(static_cast<size_t>(kBaseRows));
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> baseline;
  {
    core::ExplorationSession static_session(model_, /*num_threads=*/1);
    Rng rng(1000);
    ASSERT_TRUE(static_session
                    .StartExploration(UserLabels(*model_),
                                      core::Variant::kBasic, &rng)
                    .ok());
    ASSERT_TRUE(
        static_session.PredictRows(base_table_, rows, &baseline).ok());
  }

  data::Table table = base_table_;
  ModelRegistry registry(model_);
  DriftRefreshController controller(&registry, &table, subspaces_,
                                    RefreshOptions());

  // Readers pin the epoch-1 snapshot up front, then serve throughout the
  // append + swap. Each scans only rows [0, kBaseRows) — rows whose bytes a
  // live append never touches.
  const ModelSnapshot pinned = registry.Current();
  ASSERT_EQ(pinned.epoch, 1u);
  std::vector<std::thread> readers;
  std::vector<int64_t> reader_failures(3, 0);
  for (size_t t = 0; t < reader_failures.size(); ++t) {
    readers.emplace_back([&, t] {
      core::ExplorationSession session(pinned.model, /*num_threads=*/1);
      Rng rng(1000);
      if (!session
               .StartExploration(UserLabels(*pinned.model),
                                 core::Variant::kBasic, &rng)
               .ok()) {
        ++reader_failures[t];
        return;
      }
      std::vector<double> predictions;
      for (int64_t iter = 0; iter < 20; ++iter) {
        if (!session.PredictRows(table, rows, &predictions).ok() ||
            predictions != baseline) {
          ++reader_failures[t];
        }
      }
    });
  }

  // Ingest: same-distribution warmup, then drifting batches until the
  // refresh has been triggered and completes.
  ASSERT_TRUE(controller.AppendAndObserve(SameDistributionRows(kBatchRows))
                  .ok());
  ASSERT_TRUE(controller.AppendAndObserve(ShiftedRows(kBatchRows)).ok());
  controller.WaitForRefresh();
  for (std::thread& reader : readers) reader.join();

  for (size_t t = 0; t < reader_failures.size(); ++t) {
    EXPECT_EQ(reader_failures[t], 0) << "reader " << t;
  }
  ASSERT_EQ(controller.stats().refreshes_completed, 1);
  const ModelSnapshot refreshed = registry.Current();
  ASSERT_EQ(refreshed.epoch, 2u);

  // A post-swap session binds to the refreshed model and serves the whole
  // live table, appended rows included.
  {
    core::ExplorationSession session(refreshed.model, /*num_threads=*/1);
    Rng rng(2000);
    ASSERT_TRUE(session
                    .StartExploration(UserLabels(*refreshed.model),
                                      core::Variant::kBasic, &rng)
                    .ok());
    std::vector<int64_t> all_rows(static_cast<size_t>(table.num_rows()));
    std::iota(all_rows.begin(), all_rows.end(), 0);
    std::vector<double> predictions;
    ASSERT_TRUE(session.PredictRows(table, all_rows, &predictions).ok());
    EXPECT_EQ(predictions.size(), all_rows.size());
  }

  // A checkpoint stamped with the epoch-1 fingerprint refuses to load into
  // an epoch-2 session — the stale-session contract across the swap.
  const std::string path = ::testing::TempDir() + "/swap.ltesession";
  {
    core::ExplorationSession old_session(pinned.model, /*num_threads=*/1);
    Rng rng(1000);
    ASSERT_TRUE(old_session
                    .StartExploration(UserLabels(*pinned.model),
                                      core::Variant::kBasic, &rng)
                    .ok());
    ASSERT_TRUE(old_session.Save(path).ok());
  }
  core::ExplorationSession new_session(refreshed.model, /*num_threads=*/1);
  EXPECT_EQ(new_session.Load(path).code(), StatusCode::kFailedPrecondition);
  uint64_t stamped = 0;
  ASSERT_TRUE(core::ExplorationSession::PeekCheckpointFingerprint(path,
                                                                  &stamped)
                  .ok());
  EXPECT_EQ(stamped, pinned.fingerprint);
  EXPECT_NE(stamped, refreshed.fingerprint);
}

// The quality gap a refresh closes (paper §V-E). Drifted rows arrive in a
// new region far outside the base table's range, and the user's interest
// is structure inside that region: rows there whose attribute 1 falls below
// the appended rows' median. The stale encoder, fit before the region
// existed, collapses it to one saturated code point; the refreshed model is
// fit on it. Both models get the same start labels (ground truth on their
// own initial tuples) and the same 20 feedback rounds, and the refreshed one
// must score the higher F1 on the appended rows plus an equal-size base
// sample.
TEST_F(LiveRefreshTest, RefreshedModelBeatsStaleOnDriftedWorkload) {
  constexpr int64_t kRows = 6000;
  constexpr int64_t kDriftBatchRows = 256;
  Rng data_rng(11);
  const data::Table base = data::MakeSdssLike(kRows, &data_rng);
  const std::vector<data::Subspace> subspaces = {
      data::Subspace{{0, 1}}, data::Subspace{{2, 3}}, data::Subspace{{4, 5}},
      data::Subspace{{6, 7}}};
  auto stale = std::make_shared<core::ExplorationModel>(SdssExplorerOptions());
  Rng pretrain_rng(42);
  ASSERT_TRUE(
      stale->Pretrain(base, subspaces, /*train_meta=*/false, &pretrain_rng)
          .ok());

  data::Table live = base;
  ModelRegistry registry(stale);
  DriftRefreshOptions options;
  options.drift.window_size = kDriftBatchRows;
  DriftRefreshController controller(&registry, &live, subspaces, options);

  // One same-distribution batch, then four batches shifted 1.75 ranges past
  // every column: the first of them completes a detector window and
  // triggers the rebuild.
  std::vector<double> shifts;
  for (int64_t c = 0; c < base.num_columns(); ++c) {
    const data::Column& col = base.column(c);
    shifts.push_back(1.75 * (col.max() - col.min() + 1.0));
  }
  const auto batch = [&](int64_t salt, bool shifted) {
    std::vector<std::vector<double>> rows;
    for (int64_t i = 0; i < kDriftBatchRows; ++i) {
      rows.push_back(base.Row((salt * 131 + i * 7) % kRows));
      if (!shifted) continue;
      for (size_t c = 0; c < shifts.size(); ++c) rows.back()[c] += shifts[c];
    }
    return rows;
  };
  ASSERT_TRUE(controller.AppendAndObserve(batch(0, false)).ok());
  for (int64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(controller.AppendAndObserve(batch(b, true)).ok());
  }
  controller.WaitForRefresh();
  const DriftRefreshStats stats = controller.stats();
  ASSERT_GE(stats.refreshes_completed, 1);
  EXPECT_EQ(stats.refresh_failures, 0);
  const ModelSnapshot refreshed = registry.Current();

  const double region_lo = base.column(0).max() +
                           0.25 * (base.column(0).max() - base.column(0).min());
  std::vector<double> appended_attr1;
  for (int64_t r = kRows; r < live.num_rows(); ++r) {
    appended_attr1.push_back(live.Row(r)[1]);
  }
  std::sort(appended_attr1.begin(), appended_attr1.end());
  const double attr1_median = appended_attr1[appended_attr1.size() / 2];
  const auto truth_of = [&](const std::vector<double>& row) {
    return row[0] > region_lo && row[1] < attr1_median;
  };

  // Eval rows: every appended row plus an equal-size base sample, so the new
  // region carries real weight in the score.
  const int64_t appended = live.num_rows() - kRows;
  std::vector<int64_t> eval_rows;
  for (int64_t r = kRows; r < live.num_rows(); ++r) eval_rows.push_back(r);
  const int64_t stride = std::max<int64_t>(1, kRows / appended);
  for (int64_t r = 0;
       r < kRows && static_cast<int64_t>(eval_rows.size()) < 2 * appended;
       r += stride) {
    eval_rows.push_back(r);
  }
  std::vector<bool> truth;
  for (const int64_t r : eval_rows) truth.push_back(truth_of(live.Row(r)));

  std::vector<int64_t> positive_rows;
  std::vector<int64_t> negative_rows;
  for (int64_t r = kRows; r < live.num_rows(); ++r) {
    (truth_of(live.Row(r)) ? positive_rows : negative_rows).push_back(r);
  }
  ASSERT_FALSE(positive_rows.empty());
  ASSERT_FALSE(negative_rows.empty());

  // Subspace-0 exploration: start labels from the ground truth, then 20
  // rounds of 25 new-region positives, 20 new-region negatives and 5 base
  // negatives; F1 of the session's predictions over the eval rows.
  const auto explore_f1 =
      [&](const std::shared_ptr<const core::ExplorationModel>& model) {
        core::ExplorationSession user(model, /*num_threads=*/1);
        std::vector<std::vector<double>> labels(1);
        for (const auto& t : *model->InitialTuples(0)) {
          labels[0].push_back(truth_of(t) ? 1.0 : 0.0);
        }
        Rng rng(2000);
        EXPECT_TRUE(
            user.StartExploration(labels, core::Variant::kBasic, &rng).ok());
        for (int64_t round = 0; round < 20; ++round) {
          std::vector<std::vector<double>> points;
          std::vector<double> point_labels;
          const auto add = [&](const std::vector<double>& row, double label) {
            points.push_back({row[0], row[1]});
            point_labels.push_back(label);
          };
          for (int64_t i = 0; i < 25; ++i) {
            add(live.Row(positive_rows[(round * 25 + i * 13) %
                                       positive_rows.size()]),
                1.0);
          }
          for (int64_t i = 0; i < 20; ++i) {
            add(live.Row(negative_rows[(round * 20 + i * 17) %
                                       negative_rows.size()]),
                0.0);
          }
          for (int64_t i = 0; i < 5; ++i) {
            add(base.Row((round * 977 + i * 101) % kRows), 0.0);
          }
          EXPECT_TRUE(
              user.ContinueExploration(0, points, point_labels, &rng).ok());
        }
        std::vector<double> predictions;
        EXPECT_TRUE(user.PredictRows(live, eval_rows, &predictions).ok());
        int64_t tp = 0;
        int64_t fp = 0;
        int64_t fn = 0;
        for (size_t i = 0; i < predictions.size(); ++i) {
          const bool predicted = predictions[i] > 0.5;
          if (predicted && truth[i]) ++tp;
          if (predicted && !truth[i]) ++fp;
          if (!predicted && truth[i]) ++fn;
        }
        const int64_t denom = 2 * tp + fp + fn;
        return denom > 0 ? 2.0 * static_cast<double>(tp) /
                               static_cast<double>(denom)
                         : 0.0;
      };

  const double stale_f1 = explore_f1(stale);
  const double refreshed_f1 = explore_f1(refreshed.model);
  std::printf("drifted-workload F1: stale %.3f -> refreshed %.3f "
              "(epoch %llu)\n",
              stale_f1, refreshed_f1,
              static_cast<unsigned long long>(refreshed.epoch));
  EXPECT_GT(refreshed_f1, stale_f1);
}

}  // namespace
}  // namespace lte::serving
