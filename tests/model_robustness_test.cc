// Robustness of model loading against damaged files: every truncation of a
// valid model must produce a clean Status error, never a crash or a
// half-initialized model.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/lte.h"
#include "data/synthetic.h"

namespace lte {
namespace {

class ModelRobustnessTest : public ::testing::Test {
 protected:
  static core::ExplorerOptions SmallOptions() {
    core::ExplorerOptions opt;
    opt.task_gen.k_u = 20;
    opt.task_gen.k_s = 8;
    opt.task_gen.k_q = 20;
    opt.learner.embedding_size = 8;
    opt.learner.clf_hidden = {8};
    opt.learner.num_memory_modes = 2;
    opt.num_meta_tasks = 10;
    opt.trainer.epochs = 1;
    opt.trainer.local_steps = 1;
    return opt;
  }

  void SetUp() override {
    Rng rng(5);
    data::Table table = data::MakeBlobs(2500, 2, 3, &rng);
    core::ExplorationModel model(SmallOptions());
    ASSERT_TRUE(model
                    .Pretrain(table, {data::Subspace{{0, 1}}},
                              /*train_meta=*/true, &rng)
                    .ok());
    // Per-test file names: ctest runs the cases of this fixture as parallel
    // processes sharing one TempDir().
    path_ = TestPath("robustness");
    ASSERT_TRUE(model.Save(path_).ok());

    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes_ = buf.str();
    ASSERT_GT(bytes_.size(), 64u);
  }

  void WriteTruncated(size_t n) {
    std::ofstream out(truncated_path(), std::ios::binary);
    out.write(bytes_.data(), static_cast<std::streamsize>(n));
  }

  std::string truncated_path() const { return TestPath("truncated"); }

  static std::string TestPath(const std::string& stem) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + "/" + stem + "_" + info->test_suite_name() +
           "_" + info->name() + ".ltemodel";
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ModelRobustnessTest, FullFileLoads) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_TRUE(model.Load(path_).ok());
}

TEST_F(ModelRobustnessTest, EveryTruncationFailsCleanly) {
  // Sweep truncation points across the file (every ~5% plus the first few
  // bytes, where the header parses).
  std::vector<size_t> cuts = {0, 1, 7, 8, 15, 16, 17};
  for (int i = 1; i < 20; ++i) {
    cuts.push_back(bytes_.size() * static_cast<size_t>(i) / 20);
  }
  for (size_t cut : cuts) {
    if (cut >= bytes_.size()) continue;
    WriteTruncated(cut);
    core::ExplorationModel model(core::ExplorerOptions{});
    const Status s = model.Load(truncated_path());
    EXPECT_FALSE(s.ok()) << "truncation at byte " << cut
                         << " unexpectedly loaded";
  }
}

TEST_F(ModelRobustnessTest, CorruptedMagicRejected) {
  std::string corrupted = bytes_;
  corrupted[0] = static_cast<char>(corrupted[0] ^ 0xFF);
  std::ofstream out(truncated_path(), std::ios::binary);
  out.write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
  out.close();
  core::ExplorationModel model(core::ExplorerOptions{});
  const Status s = model.Load(truncated_path());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelRobustnessTest, FailedLoadLeavesExplorerUnusable) {
  WriteTruncated(bytes_.size() / 2);
  auto model =
      std::make_shared<core::ExplorationModel>(core::ExplorerOptions{});
  ASSERT_FALSE(model->Load(truncated_path()).ok());
  // The failed load must not report a pretrained model.
  core::ExplorationSession session(model);
  EXPECT_EQ(
      session.StartExploration({{1.0}}, core::Variant::kBasic, nullptr).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ModelRobustnessTest, FailedLoadPreservesPreviousModel) {
  core::ExplorationModel model(core::ExplorerOptions{});
  ASSERT_TRUE(model.Load(path_).ok());
  ASSERT_NE(model.InitialTuples(0), nullptr);
  const std::vector<std::vector<double>> initial = *model.InitialTuples(0);
  WriteTruncated(bytes_.size() / 3);
  ASSERT_FALSE(model.Load(truncated_path()).ok());
  // A failed re-load must not clobber the previously loaded model.
  ASSERT_NE(model.InitialTuples(0), nullptr);
  EXPECT_EQ(*model.InitialTuples(0), initial);
}

// A Pretrain that fails leaves the model as its last successful build left
// it, as a failed Load does: still pretrained, with the same fingerprint and
// a fitted encoder, and Save then Load round-trips it byte for byte. Fails
// on the empty table (the encoder's fit) and on one too small to cluster.
TEST_F(ModelRobustnessTest, FailedPretrainPreservesPreviousModel) {
  Rng rng(6);
  const data::Table table = data::MakeBlobs(2000, 2, 3, &rng);
  const std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}}};
  core::ExplorationModel model(SmallOptions());
  ASSERT_TRUE(model.Pretrain(table, subspaces, /*train_meta=*/true, &rng).ok());
  const uint64_t fingerprint = model.fingerprint();
  ASSERT_NE(model.InitialTuples(0), nullptr);
  const std::vector<std::vector<double>> initial = *model.InitialTuples(0);

  data::Table empty({"x", "y"});
  data::Table tiny({"x", "y"});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tiny.AppendRow({0.1 * i, 0.2 * i}).ok());
  }
  for (const data::Table* bad : {&empty, &tiny}) {
    EXPECT_FALSE(model.Pretrain(*bad, subspaces, true, &rng).ok());
    EXPECT_TRUE(model.pretrained());
    EXPECT_TRUE(model.meta_trained());
    EXPECT_TRUE(model.encoder().fitted());
    EXPECT_EQ(model.fingerprint(), fingerprint);
    ASSERT_NE(model.InitialTuples(0), nullptr);
    EXPECT_EQ(*model.InitialTuples(0), initial);
  }
  const std::string path = TestPath("repretrain");
  ASSERT_TRUE(model.Save(path).ok());
  core::ExplorationModel loaded(SmallOptions());
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.fingerprint(), fingerprint);
}

// A model whose online schedule has no batch (or a negative step count, or
// a non-finite or non-positive rate) used to load and then abort the
// process on its first StartExploration. Load refuses it like any other
// undecodable field.
TEST_F(ModelRobustnessTest, InvalidOnlineScheduleRejectedOnLoad) {
  // The serialized schedule: online_steps, online_batch_size, online_lr at
  // their ExplorerOptions defaults (30, 16, 0.1).
  std::string schedule(24, '\0');
  const int64_t steps = 30;
  const int64_t batch = 16;
  const double lr = 0.1;
  std::memcpy(schedule.data(), &steps, 8);
  std::memcpy(schedule.data() + 8, &batch, 8);
  std::memcpy(schedule.data() + 16, &lr, 8);
  const size_t at = bytes_.find(schedule);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes_.find(schedule, at + 1), std::string::npos);

  const auto patched = [&](size_t offset, auto value) {
    std::string bytes = bytes_;
    std::memcpy(bytes.data() + at + offset, &value, 8);
    return bytes;
  };
  const std::vector<std::string> corrupt = {
      patched(0, int64_t{-1}),
      patched(8, int64_t{0}),
      patched(8, int64_t{-3}),
      patched(16, std::numeric_limits<double>::quiet_NaN()),
      patched(16, std::numeric_limits<double>::infinity()),
      patched(16, 0.0),
      patched(16, -0.1)};
  for (size_t i = 0; i < corrupt.size(); ++i) {
    core::ExplorationModel model(core::ExplorerOptions{});
    std::istringstream in(corrupt[i], std::ios::binary);
    const Status st = model.LoadFromStream(&in);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "case " << i;
    EXPECT_FALSE(model.pretrained()) << "case " << i;
  }
  // The unpatched bytes still load: the search found the real fields.
  core::ExplorationModel model(core::ExplorerOptions{});
  std::istringstream in(bytes_, std::ios::binary);
  EXPECT_TRUE(model.LoadFromStream(&in).ok());
}

// Load builds the FP/FN parts over each subspace's value box, read at the
// subspace's attribute indices. An index outside the encoder's attributes
// is refused like any other undecodable field, before any state changes.
TEST_F(ModelRobustnessTest, SubspaceAttributeOutOfRangeRejectedOnLoad) {
  // The subspace's attribute list {0, 1} and the count of its C^u centers
  // (k_u = 20) that follows it.
  std::string attrs(32, '\0');
  const uint64_t words[4] = {2, 0, 1, 20};
  std::memcpy(attrs.data(), words, sizeof(words));
  const size_t at = bytes_.find(attrs);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes_.find(attrs, at + 1), std::string::npos);
  for (const int64_t bad : {int64_t{2}, int64_t{-1}, int64_t{1} << 40}) {
    std::string corrupt = bytes_;
    std::memcpy(corrupt.data() + at + 16, &bad, 8);
    core::ExplorationModel model(core::ExplorerOptions{});
    std::istringstream in(corrupt, std::ios::binary);
    const Status st = model.LoadFromStream(&in);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "attribute " << bad;
    EXPECT_FALSE(model.pretrained()) << "attribute " << bad;
  }
}

// Pretrain refuses the same schedules before doing any work.
TEST(ModelScheduleTest, PretrainRejectsInvalidOnlineSchedule) {
  Rng rng(5);
  const data::Table table = data::MakeBlobs(300, 2, 3, &rng);
  std::vector<core::ExplorerOptions> bad(5);
  bad[0].online_steps = -1;
  bad[1].online_batch_size = 0;
  bad[2].online_lr = std::numeric_limits<double>::quiet_NaN();
  bad[3].online_lr = 0.0;
  bad[4].online_lr = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < bad.size(); ++i) {
    core::ExplorationModel model(bad[i]);
    const Status st = model.Pretrain(table, {data::Subspace{{0, 1}}},
                                     /*train_meta=*/false, &rng);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "case " << i;
    EXPECT_EQ(model.InitialTuples(0), nullptr) << "case " << i;
  }
}

// Pretrain with meta-training refuses a trainer whose learning or memory
// rate MetaTrain would refuse, before any work: the model stays unbuilt and
// the caller's stream is not advanced.
TEST(ModelScheduleTest, PretrainRejectsInvalidTrainerRates) {
  Rng table_rng(6);
  const data::Table table = data::MakeBlobs(300, 2, 3, &table_rng);
  std::vector<core::ExplorerOptions> bad(3);
  bad[0].trainer.global_lr = std::numeric_limits<double>::quiet_NaN();
  bad[1].trainer.local_lr = -1.0;
  bad[2].trainer.gamma = 2.0;
  for (size_t i = 0; i < bad.size(); ++i) {
    core::ExplorationModel model(bad[i]);
    Rng rng(7);
    const Status st = model.Pretrain(table, {data::Subspace{{0, 1}}},
                                     /*train_meta=*/true, &rng);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "case " << i;
    EXPECT_EQ(model.InitialTuples(0), nullptr) << "case " << i;
    EXPECT_EQ(rng.engine()(), Rng(7).engine()()) << "case " << i;
  }
}

}  // namespace
}  // namespace lte
