// Session lifecycle test battery, part 2: serving::SessionManager.
//
//  * LRU evict-to-disk and transparent restore, byte-identical to the
//    session never leaving RAM — including a K-of-N churn workload driven by
//    real std::threads (runs under the TSan CI job).
//  * Pinning: a leased session is never evicted mid-request.
//  * Crash consistency: a stale half-written `.tmp` never shadows the
//    previous checkpoint; a corrupted checkpoint surfaces an error Status
//    and leaves the manager usable; a restarted manager adopts the
//    checkpoints a previous process left behind.
//  * Leased sessions route through the CoalescedScanScheduler unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "serving/coalesced_scan_scheduler.h"
#include "serving/model_registry.h"
#include "serving/session_manager.h"
#include "small_explorer_options.h"

namespace lte::serving {
namespace {

using core::ExplorationModel;
using core::ExplorationSession;
using core::ExplorerOptions;
using core::Variant;
using core::SmallExplorerOptions;

SessionManagerOptions ManagerOptions(const std::string& dir, int64_t k) {
  SessionManagerOptions options;
  options.max_resident = k;
  options.checkpoint_dir = dir;
  options.session_num_threads = 1;
  return options;
}

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    table_ = data::MakeBlobs(2500, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(table_, subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());
    registry_ = std::make_unique<ModelRegistry>(model_);
  }

  /// A fresh per-test checkpoint directory (cleared from previous runs).
  std::string TestDir(const std::string& tag) const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir =
        ::testing::TempDir() + "/session_manager_" + info->name() + "_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::string UserId(int64_t u) { return "user" + std::to_string(u); }

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

  std::vector<std::vector<double>> UserLabels(int64_t u) const {
    const double fraction = 0.35 + 0.12 * static_cast<double>(u % 5);
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

  void MakeBatch(int64_t u, int64_t v, int64_t s,
                 std::vector<std::vector<double>>* points,
                 std::vector<double>* labels) const {
    points->clear();
    labels->clear();
    const auto& initial = *model_->InitialTuples(s);
    const data::Column& col = table_.column(subspaces_[s].attribute_indices[0]);
    const double fraction = 0.35 + 0.12 * static_cast<double>(u % 5);
    const double threshold = col.min() + fraction * (col.max() - col.min());
    for (int64_t j = 0; j < 3; ++j) {
      const auto& p =
          initial[static_cast<size_t>((u + 2 * v + j) %
                                      static_cast<int64_t>(initial.size()))];
      points->push_back(p);
      labels->push_back(p[0] < threshold ? 1.0 : 0.0);
    }
  }

  struct Outcome {
    std::vector<double> predictions;
    std::vector<int64_t> matches;

    bool operator==(const Outcome& other) const {
      return predictions == other.predictions && matches == other.matches;
    }
  };

  Outcome Serve(const ExplorationSession& session) const {
    Outcome out;
    std::vector<int64_t> rows(400);
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_TRUE(session.PredictRows(table_, rows, &out.predictions).ok());
    EXPECT_TRUE(session.RetrieveMatches(table_, 100, &out.matches).ok());
    return out;
  }

  /// One scripted visit of user `u`: visit 0 seeds the session rng and
  /// starts exploration; later visits feed one ContinueExploration batch
  /// (alternating subspaces). Everything a visit does is a deterministic
  /// function of (u, v) and the session's own state, so per-user results are
  /// reproducible under any cross-user interleaving.
  void RunVisit(SessionManager* manager, int64_t u, int64_t v) {
    SessionManager::Lease lease;
    const Status st = manager->Acquire(UserId(u), &lease);
    EXPECT_TRUE(st.ok()) << st.message();
    if (!st.ok()) return;
    ExplorationSession* session = lease.session();
    ASSERT_NE(session, nullptr);
    if (v == 0) {
      session->SeedRng(1000 + static_cast<uint64_t>(u));
      EXPECT_TRUE(session
                      ->StartExploration(UserLabels(u), UserVariant(u),
                                         session->session_rng())
                      .ok());
    } else {
      std::vector<std::vector<double>> points;
      std::vector<double> labels;
      const int64_t s = v % 2;
      MakeBatch(u, v, s, &points, &labels);
      EXPECT_TRUE(session
                      ->ContinueExploration(s, points, labels,
                                            session->session_rng())
                      .ok());
    }
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
  std::unique_ptr<ModelRegistry> registry_;
};

// Create, evict to disk, restore: the restored session answers exactly what
// the standalone (never-evicted) session answers.
TEST_F(SessionManagerTest, CreateEvictRestoreRoundTrip) {
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/1));

  // Standalone reference for alice, same seeds.
  ExplorationSession reference(model_, 1);
  reference.SeedRng(7);
  ASSERT_TRUE(reference
                  .StartExploration(UserLabels(0), Variant::kMetaStar,
                                    reference.session_rng())
                  .ok());
  const Outcome expected = Serve(reference);

  {
    SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire("alice", &lease).ok());
    lease.session()->SeedRng(7);
    ASSERT_TRUE(lease.session()
                    ->StartExploration(UserLabels(0), Variant::kMetaStar,
                                       lease.session()->session_rng())
                    .ok());
    EXPECT_TRUE(Serve(*lease.session()) == expected);
  }
  // A second user forces alice out (K = 1): her checkpoint appears on disk.
  {
    SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire("bob", &lease).ok());
    lease.session()->SeedRng(8);
    ASSERT_TRUE(lease.session()
                    ->StartExploration(UserLabels(1), Variant::kBasic,
                                       lease.session()->session_rng())
                    .ok());
  }
  EXPECT_TRUE(std::filesystem::exists(manager.CheckpointPath("alice")));
  EXPECT_EQ(manager.resident_count(), 1);

  // Alice reconnects: restored from disk, byte-identical answers.
  {
    SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire("alice", &lease).ok());
    EXPECT_TRUE(Serve(*lease.session()) == expected);
  }
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.creates, 2);
  EXPECT_EQ(stats.restores, 1);
  EXPECT_GE(stats.evictions, 2);
  EXPECT_EQ(stats.eviction_failures, 0);
}

// A pinned session survives capacity pressure: the lease keeps it resident
// and its pointer valid while another user barges in.
TEST_F(SessionManagerTest, PinnedSessionIsNotEvicted) {
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/1));

  SessionManager::Lease alice;
  ASSERT_TRUE(manager.Acquire("alice", &alice).ok());
  alice.session()->SeedRng(7);
  ASSERT_TRUE(alice.session()
                  ->StartExploration(UserLabels(0), Variant::kMetaStar,
                                     alice.session()->session_rng())
                  .ok());
  const Outcome expected = Serve(*alice.session());

  // Over-capacity while alice is pinned: transient overshoot, no eviction.
  SessionManager::Lease bob;
  ASSERT_TRUE(manager.Acquire("bob", &bob).ok());
  EXPECT_EQ(manager.resident_count(), 2);
  EXPECT_EQ(manager.stats().evictions, 0);
  EXPECT_TRUE(Serve(*alice.session()) == expected);  // Still fully usable.

  // Releasing bob makes him the only evictable session; the manager trims
  // back to capacity without touching pinned alice.
  bob.Release();
  EXPECT_EQ(manager.resident_count(), 1);
  EXPECT_EQ(manager.stats().evictions, 1);
  EXPECT_TRUE(Serve(*alice.session()) == expected);
  alice.Release();
  EXPECT_EQ(manager.stats().peak_resident, 2);
}

// K-of-N churn under real threads: 4 request threads drive 32 users through
// a manager holding only 4 sessions resident. Every user's final answers are
// byte-identical to an all-resident manager running the same per-user script
// — evictions and restores change scheduling, never bytes.
TEST_F(SessionManagerTest, ChurnByteIdenticalUnderEviction) {
  constexpr int64_t kUsers = 32;
  constexpr int64_t kVisits = 4;
  constexpr int64_t kThreads = 4;

  // All-resident baseline, sequential.
  SessionManager baseline(registry_.get(),
                          ManagerOptions(TestDir("baseline"), kUsers));
  std::vector<Outcome> expected(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int64_t v = 0; v < kVisits; ++v) RunVisit(&baseline, u, v);
    SessionManager::Lease lease;
    ASSERT_TRUE(baseline.Acquire(UserId(u), &lease).ok());
    expected[u] = Serve(*lease.session());
  }
  EXPECT_EQ(baseline.stats().evictions, 0);

  // Churning manager: K = 4 of N = 32, users sharded across threads (u % 4)
  // so each user's own visits stay ordered while cross-user interleaving —
  // and therefore the eviction schedule — is up to the scheduler.
  SessionManager churn(registry_.get(), ManagerOptions(TestDir("churn"), 4));
  std::vector<Outcome> observed(kUsers);
  std::vector<std::thread> threads;
  for (int64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &churn, &observed, t] {
      for (int64_t v = 0; v < kVisits; ++v) {
        for (int64_t u = t; u < kUsers; u += kThreads) {
          RunVisit(&churn, u, v);
        }
      }
      // Final serving pass, lease held (pinned) across the whole scan.
      for (int64_t u = t; u < kUsers; u += kThreads) {
        SessionManager::Lease lease;
        const Status st = churn.Acquire(UserId(u), &lease);
        EXPECT_TRUE(st.ok()) << st.message();
        if (st.ok()) observed[u] = Serve(*lease.session());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int64_t u = 0; u < kUsers; ++u) {
    EXPECT_TRUE(observed[u] == expected[u]) << "user " << u;
  }
  const SessionManagerStats stats = churn.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.restores, 0);
  EXPECT_EQ(stats.eviction_failures, 0);
  EXPECT_LE(stats.peak_resident, kThreads);
  EXPECT_LE(churn.resident_count(), 4);
}

// Crash mid-evict: a half-written `.tmp` left by a dying process never
// shadows the real checkpoint; a restarted manager adopts the intact one.
TEST_F(SessionManagerTest, StaleTmpNeverShadowsCheckpoint) {
  const std::string dir = TestDir("a");
  Outcome expected;
  {
    SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/4));
    for (int64_t v = 0; v < 3; ++v) RunVisit(&manager, 0, v);
    SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire(UserId(0), &lease).ok());
    expected = Serve(*lease.session());
    lease.Release();
    ASSERT_TRUE(manager.CheckpointAll().ok());
  }
  // Simulate the crash: a torn write under the temporary name.
  const std::string tmp = dir + "/" + UserId(0) + ".ltesession.tmp";
  {
    std::ofstream torn(tmp, std::ios::binary);
    torn << "torn write";
  }

  // A new process adopts the durable checkpoint and ignores the .tmp.
  SessionManager restarted(registry_.get(), ManagerOptions(dir, /*k=*/1));
  {
    SessionManager::Lease lease;
    ASSERT_TRUE(restarted.Acquire(UserId(0), &lease).ok());
    EXPECT_TRUE(Serve(*lease.session()) == expected);
  }
  EXPECT_EQ(restarted.stats().restores, 1);

  // The next eviction replaces the stale .tmp via the atomic rename.
  {
    SessionManager::Lease lease;
    ASSERT_TRUE(restarted.Acquire("other", &lease).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_TRUE(std::filesystem::exists(restarted.CheckpointPath(UserId(0))));
}

// A corrupted checkpoint surfaces an error Status — never a crash, never a
// session attached to garbage — and the manager keeps serving other users.
TEST_F(SessionManagerTest, CorruptedCheckpointFailsCleanly) {
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/2));
  std::filesystem::create_directories(dir);
  {
    std::ofstream corrupt(manager.CheckpointPath("eve"), std::ios::binary);
    corrupt << "this is not a session checkpoint";
  }
  SessionManager::Lease lease;
  EXPECT_FALSE(manager.Acquire("eve", &lease).ok());
  EXPECT_FALSE(lease.valid());
  EXPECT_TRUE(std::filesystem::exists(manager.CheckpointPath("eve")));

  // Other users are unaffected; eve keeps failing until the operator
  // removes the bad file, after which she starts fresh.
  ASSERT_TRUE(manager.Acquire("frank", &lease).ok());
  lease.Release();
  EXPECT_FALSE(manager.Acquire("eve", &lease).ok());
  std::filesystem::remove(manager.CheckpointPath("eve"));
  EXPECT_TRUE(manager.Acquire("eve", &lease).ok());
  EXPECT_EQ(manager.stats().creates, 2);
}

// A checkpoint written against model A refuses to restore under a manager
// bound to a refreshed model B (the session fingerprint stamp, surfaced
// through the manager path).
TEST_F(SessionManagerTest, RestoreAgainstRefreshedModelIsRefused) {
  const std::string dir = TestDir("a");
  {
    SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/2));
    for (int64_t v = 0; v < 2; ++v) RunVisit(&manager, 0, v);
    ASSERT_TRUE(manager.CheckpointAll().ok());
  }
  auto refreshed = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng rng(24);
  ASSERT_TRUE(
      refreshed->Pretrain(table_, subspaces_, /*train_meta=*/true, &rng).ok());
  ASSERT_NE(refreshed->fingerprint(), model_->fingerprint());

  ModelRegistry refreshed_registry(refreshed);
  SessionManager manager(&refreshed_registry, ManagerOptions(dir, /*k=*/2));
  SessionManager::Lease lease;
  const Status st = manager.Acquire(UserId(0), &lease);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(lease.valid());
  // The stale checkpoint is left on disk untouched for the operator.
  EXPECT_TRUE(std::filesystem::exists(manager.CheckpointPath(UserId(0))));
}

// Leased sessions plug straight into the coalesced serving front-end: the
// lease keeps each session resident for the whole blocking submission, and
// the shared pass returns exactly the standalone answers.
TEST_F(SessionManagerTest, LeasesRouteThroughCoalescedScheduler) {
  constexpr int64_t kUsers = 4;
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/2));
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int64_t v = 0; v < 2; ++v) RunVisit(&manager, u, v);
  }

  CoalescedScanScheduler scheduler(model_, &table_);
  std::vector<std::vector<int64_t>> coalesced(kUsers);
  std::vector<std::thread> threads;
  for (int64_t u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u] {
      SessionManager::Lease lease;
      const Status st = manager.Acquire(UserId(u), &lease);
      EXPECT_TRUE(st.ok()) << st.message();
      if (!st.ok()) return;
      EXPECT_TRUE(
          scheduler.RetrieveMatches(*lease.session(), -1, &coalesced[u]).ok());
    });
  }
  for (auto& thread : threads) thread.join();

  for (int64_t u = 0; u < kUsers; ++u) {
    SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire(UserId(u), &lease).ok());
    std::vector<int64_t> direct;
    ASSERT_TRUE(lease.session()->RetrieveMatches(table_, -1, &direct).ok());
    EXPECT_EQ(coalesced[u], direct) << "user " << u;
  }
  EXPECT_GT(manager.stats().evictions, 0);
}

// User ids name checkpoint files: traversal and hidden-file shapes are
// rejected up front, and a null lease is an error, not a crash.
TEST_F(SessionManagerTest, InvalidUserIdsAndNullLeaseAreRejected) {
  SessionManager manager(registry_.get(), ManagerOptions(TestDir("a"), 2));
  SessionManager::Lease lease;
  for (const std::string& bad :
       {std::string(""), std::string("a/b"), std::string("../escape"),
        std::string(".hidden"), std::string("sp ace"),
        std::string(200, 'x')}) {
    EXPECT_EQ(manager.Acquire(bad, &lease).code(),
              StatusCode::kInvalidArgument)
        << "id \"" << bad << "\"";
    EXPECT_FALSE(lease.valid());
  }
  EXPECT_EQ(manager.Acquire("fine", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(manager.Acquire("A-z_0.9", &lease).ok());
}

// RemoveUser purges everything the manager holds for an id — resident
// session, checkpoint, stale tmp — and the next acquire starts fresh.
TEST_F(SessionManagerTest, RemoveUserPurgesSessionAndCheckpoint) {
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/2));
  for (int64_t v = 0; v < 2; ++v) RunVisit(&manager, 0, v);
  ASSERT_TRUE(manager.CheckpointAll().ok());
  ASSERT_TRUE(std::filesystem::exists(manager.CheckpointPath(UserId(0))));
  ASSERT_EQ(manager.resident_count(), 1);

  ASSERT_TRUE(manager.RemoveUser(UserId(0)).ok());
  EXPECT_EQ(manager.resident_count(), 0);
  EXPECT_FALSE(std::filesystem::exists(manager.CheckpointPath(UserId(0))));

  // Removing an id with no state is a no-op, not an error.
  EXPECT_TRUE(manager.RemoveUser(UserId(0)).ok());
  EXPECT_EQ(manager.RemoveUser("../escape").code(),
            StatusCode::kInvalidArgument);

  // The user reconnects as a brand-new session (create, not restore).
  const int64_t creates_before = manager.stats().creates;
  SessionManager::Lease lease;
  ASSERT_TRUE(manager.Acquire(UserId(0), &lease).ok());
  EXPECT_EQ(manager.stats().creates, creates_before + 1);
  EXPECT_EQ(manager.stats().restores, 0);
}

// A leased user cannot be removed out from under its request thread.
TEST_F(SessionManagerTest, RemoveUserRefusesALeasedUser) {
  SessionManager manager(registry_.get(), ManagerOptions(TestDir("a"), 2));
  SessionManager::Lease lease;
  ASSERT_TRUE(manager.Acquire("alice", &lease).ok());
  EXPECT_EQ(manager.RemoveUser("alice").code(),
            StatusCode::kFailedPrecondition);
  lease.Release();
  EXPECT_TRUE(manager.RemoveUser("alice").ok());
}

// SweepStaleCheckpoints purges exactly the checkpoints whose fingerprint
// stamp no longer matches the registry's current model: stale ones go,
// current ones and unreadable files stay.
TEST_F(SessionManagerTest, SweepRemovesOnlyStaleCheckpoints) {
  const std::string dir = TestDir("a");
  SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/4));
  for (int64_t u = 0; u < 3; ++u) RunVisit(&manager, u, 0);
  ASSERT_TRUE(manager.CheckpointAll().ok());

  // Garbage that must survive any sweep: not a readable checkpoint.
  const std::string garbage = dir + "/" + UserId(9) + ".ltesession";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a checkpoint";
  }

  // Same model => nothing is stale.
  int64_t removed = -1;
  ASSERT_TRUE(manager.SweepStaleCheckpoints(&removed).ok());
  EXPECT_EQ(removed, 0);
  for (int64_t u = 0; u < 3; ++u) {
    EXPECT_TRUE(std::filesystem::exists(manager.CheckpointPath(UserId(u))));
  }

  // Publish a refreshed model: every old-epoch checkpoint is now stale.
  auto refreshed = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng rng(24);
  ASSERT_TRUE(
      refreshed->Pretrain(table_, subspaces_, /*train_meta=*/true, &rng)
          .ok());
  registry_->Publish(refreshed);

  ASSERT_TRUE(manager.SweepStaleCheckpoints(&removed).ok());
  EXPECT_EQ(removed, 3);
  for (int64_t u = 0; u < 3; ++u) {
    EXPECT_FALSE(std::filesystem::exists(manager.CheckpointPath(UserId(u))));
  }
  EXPECT_TRUE(std::filesystem::exists(garbage));

  // Swept users start fresh under the new epoch instead of tripping the
  // stale-restore FailedPrecondition.
  SessionManager::Lease lease;
  ASSERT_TRUE(manager.Acquire(UserId(0), &lease).ok());
}

// Construction adopts the checkpoint directory: orphan `.ltesession.tmp`
// files a crashed process left behind are unlinked, committed checkpoints
// are untouched.
TEST_F(SessionManagerTest, ConstructionUnlinksOrphanTmpFiles) {
  const std::string dir = TestDir("a");
  {
    SessionManager manager(registry_.get(), ManagerOptions(dir, /*k=*/2));
    RunVisit(&manager, 0, 0);
    ASSERT_TRUE(manager.CheckpointAll().ok());
  }
  const std::string orphan1 = dir + "/" + UserId(0) + ".ltesession.tmp";
  const std::string orphan2 = dir + "/" + UserId(7) + ".ltesession.tmp";
  for (const std::string& path : {orphan1, orphan2}) {
    std::ofstream out(path, std::ios::binary);
    out << "dead tmp";
  }

  SessionManager restarted(registry_.get(), ManagerOptions(dir, /*k=*/2));
  EXPECT_FALSE(std::filesystem::exists(orphan1));
  EXPECT_FALSE(std::filesystem::exists(orphan2));
  EXPECT_TRUE(
      std::filesystem::exists(restarted.CheckpointPath(UserId(0))));
  SessionManager::Lease lease;
  ASSERT_TRUE(restarted.Acquire(UserId(0), &lease).ok());
  EXPECT_EQ(restarted.stats().restores, 1);
}

// Re-acquiring into a held lease releases the old pin first, so a single
// long-lived lease object cannot pin the whole cache.
TEST_F(SessionManagerTest, ReacquireIntoHeldLeaseReleasesOldPin) {
  SessionManager manager(registry_.get(), ManagerOptions(TestDir("a"), 1));
  SessionManager::Lease lease;
  ASSERT_TRUE(manager.Acquire("alice", &lease).ok());
  ASSERT_NE(lease.session(), nullptr);
  // Same lease object: alice is unpinned first, becomes the LRU victim, and
  // bob fits without overshoot.
  ASSERT_TRUE(manager.Acquire("bob", &lease).ok());
  ASSERT_NE(lease.session(), nullptr);
  EXPECT_EQ(manager.resident_count(), 1);
  EXPECT_EQ(manager.stats().evictions, 1);
  EXPECT_EQ(manager.stats().peak_resident, 1);

  // Moved-from leases are empty; the moved-to lease carries the pin.
  SessionManager::Lease moved = std::move(lease);
  EXPECT_FALSE(lease.valid());
  EXPECT_TRUE(moved.valid());
}

}  // namespace
}  // namespace lte::serving
