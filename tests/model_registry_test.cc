// serving::ModelRegistry: epoch-versioned model publication. Snapshots are
// immutable, copies pin their model alive across later publishes (the
// RCU-style guarantee every attachment point relies on), and concurrent
// readers racing a publish always see a whole snapshot — never a torn one.
// The reader/publisher race runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
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

class ModelRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng data_rng(23);
    table_ = data::MakeBlobs(1200, 4, 3, &data_rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
  }

  std::shared_ptr<core::ExplorationModel> PretrainedModel(uint64_t seed) {
    auto model =
        std::make_shared<core::ExplorationModel>(SmallExplorerOptions());
    Rng rng(seed);
    EXPECT_TRUE(
        model->Pretrain(table_, subspaces_, /*train_meta=*/false, &rng).ok());
    return model;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
};

TEST_F(ModelRegistryTest, StartsAtEpochOneWithTheInitialModel) {
  const auto model = PretrainedModel(23);
  ModelRegistry registry(model);
  const ModelSnapshot snapshot = registry.Current();
  EXPECT_EQ(snapshot.epoch, 1u);
  EXPECT_EQ(registry.current_epoch(), 1u);
  EXPECT_EQ(snapshot.model.get(), model.get());
  EXPECT_EQ(snapshot.fingerprint, model->fingerprint());
}

TEST_F(ModelRegistryTest, PublishBumpsEpochAndSwapsTheModel) {
  ModelRegistry registry(PretrainedModel(23));
  const auto next = PretrainedModel(24);
  ASSERT_NE(next->fingerprint(), registry.Current().fingerprint);

  EXPECT_EQ(registry.Publish(next), 2u);
  const ModelSnapshot snapshot = registry.Current();
  EXPECT_EQ(snapshot.epoch, 2u);
  EXPECT_EQ(snapshot.model.get(), next.get());
  EXPECT_EQ(snapshot.fingerprint, next->fingerprint());
  EXPECT_EQ(registry.Publish(PretrainedModel(25)), 3u);
}

TEST_F(ModelRegistryTest, SnapshotsPinTheirEpochAcrossPublishes) {
  ModelRegistry registry(PretrainedModel(23));
  const ModelSnapshot pinned = registry.Current();
  const std::weak_ptr<const core::ExplorationModel> old_model = pinned.model;

  registry.Publish(PretrainedModel(24));
  // The pinned copy is untouched: same epoch, same model, model alive.
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(pinned.model.get(), old_model.lock().get());
  EXPECT_EQ(pinned.fingerprint, pinned.model->fingerprint());
  EXPECT_NE(pinned.fingerprint, registry.Current().fingerprint);

  // A session bound before the publish keeps serving its pinned model even
  // when nothing else references it anymore.
  core::ExplorationSession session(pinned.model);
  EXPECT_EQ(&session.model(), pinned.model.get());
}

TEST_F(ModelRegistryTest, OldModelReclaimedWhenLastHandleDrops) {
  ModelRegistry registry(PretrainedModel(23));
  std::weak_ptr<const core::ExplorationModel> old_model;
  {
    const ModelSnapshot pinned = registry.Current();
    old_model = pinned.model;
    registry.Publish(PretrainedModel(24));
    EXPECT_FALSE(old_model.expired());  // The snapshot copy still pins it.
  }
  EXPECT_TRUE(old_model.expired());  // Last handle dropped => reclaimed.
}

TEST_F(ModelRegistryTest, ConcurrentReadersNeverSeeATornSnapshot) {
  ModelRegistry registry(PretrainedModel(23));
  const auto a = PretrainedModel(24);
  const auto b = PretrainedModel(25);

  std::vector<std::thread> readers;
  for (int64_t t = 0; t < 4; ++t) {
    readers.emplace_back([&registry] {
      uint64_t last_epoch = 0;
      for (int64_t i = 0; i < 2000; ++i) {
        const ModelSnapshot snapshot = registry.Current();
        // Whole or not at all: the fingerprint always matches the model, and
        // epochs are monotone from any single reader's point of view.
        ASSERT_NE(snapshot.model, nullptr);
        EXPECT_EQ(snapshot.fingerprint, snapshot.model->fingerprint());
        EXPECT_GE(snapshot.epoch, last_epoch);
        last_epoch = snapshot.epoch;
      }
    });
  }
  for (int64_t i = 0; i < 50; ++i) {
    registry.Publish(i % 2 == 0 ? a : b);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(registry.current_epoch(), 51u);
}

}  // namespace
}  // namespace lte::serving
