// Exploration-policy battery (DESIGN.md §2f).
//
// Unit level (bare policy::SuggestPolicy instances on synthetic probability
// vectors): selection semantics per kind, parameter validation, the
// epsilon=0 / sigma=0 / lambda->inf degeneracies that must recover pure
// uncertainty sampling, the tau-first exhaustion handoff, and SavePolicy /
// LoadPolicy resuming the suggestion stream draw-for-draw.
//
// Session level: every policy's suggestion sequence is bit-identical across
// session thread counts {1, 4} and across an evict/restore cycle through
// serving::SessionManager; stochastic policies without a session rng are
// FailedPrecondition at every entry point. Concurrent per-user sessions run
// SuggestTuples from real std::threads (TSan CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "policy/suggest_policy.h"
#include "serving/model_registry.h"
#include "serving/session_manager.h"
#include "small_explorer_options.h"

namespace lte::policy {
namespace {

using core::ExplorationModel;
using core::ExplorationSession;
using core::ExplorerOptions;
using core::Variant;
using core::SmallExplorerOptions;

PolicyOptions Opts(PolicyKind kind) {
  PolicyOptions o;
  o.kind = kind;
  return o;
}

std::vector<int64_t> SelectOnce(SuggestPolicy* policy,
                                const std::vector<double>& probs, int64_t k,
                                Rng* rng) {
  std::vector<int64_t> out;
  policy->Select(probs, k, rng, &out);
  return out;
}

std::unique_ptr<SuggestPolicy> Make(const PolicyOptions& options,
                                    Rng* seed_rng) {
  std::unique_ptr<SuggestPolicy> policy;
  EXPECT_TRUE(MakePolicy(options, seed_rng, &policy).ok());
  return policy;
}

// The five kinds with parameters that keep every kind stochastic except
// uncertainty (the menu the session/bench sweeps use).
std::vector<PolicyOptions> Menu() {
  std::vector<PolicyOptions> menu(5);
  menu[0].kind = PolicyKind::kUncertainty;
  menu[1].kind = PolicyKind::kEpsilonGreedy;
  menu[1].epsilon = 0.3;
  menu[2].kind = PolicyKind::kTauFirst;
  menu[2].tau = 5;
  menu[3].kind = PolicyKind::kSoftmax;
  menu[3].softmax_lambda = 6.0;
  menu[4].kind = PolicyKind::kBootstrap;
  menu[4].bootstrap_bags = 4;
  return menu;
}

TEST(SuggestPolicyTest, ValidateRejectsOutOfRangeParameters) {
  EXPECT_TRUE(ValidatePolicyOptions(PolicyOptions{}).ok());
  PolicyOptions o = Opts(PolicyKind::kEpsilonGreedy);
  o.epsilon = -0.1;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o.epsilon = 1.1;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o = Opts(PolicyKind::kTauFirst);
  o.tau = -1;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o = Opts(PolicyKind::kSoftmax);
  o.softmax_lambda = -2.0;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o = Opts(PolicyKind::kBootstrap);
  o.bootstrap_bags = 0;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o.bootstrap_bags = 4096;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  o = Opts(PolicyKind::kBootstrap);
  o.bootstrap_sigma = -1.0;
  EXPECT_FALSE(ValidatePolicyOptions(o).ok());
  // MakePolicy surfaces the same validation...
  std::unique_ptr<SuggestPolicy> policy;
  PolicyOptions bad = Opts(PolicyKind::kEpsilonGreedy);
  bad.epsilon = 2.0;
  Rng rng(1);
  EXPECT_EQ(MakePolicy(bad, &rng, &policy).code(),
            StatusCode::kInvalidArgument);
  // ...and a bootstrap construction needs seed material.
  EXPECT_EQ(MakePolicy(Opts(PolicyKind::kBootstrap), nullptr, &policy).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SuggestPolicyTest, UncertaintyRanksByDistanceFromHalf) {
  auto policy = Make(PolicyOptions{}, nullptr);
  ASSERT_NE(policy, nullptr);
  EXPECT_FALSE(policy->stochastic());
  // |p - 0.5|: .4, .02, .4, .02, .0 — ties (1 vs 3) break to the lower
  // index; the rng may be null for a deterministic policy.
  const std::vector<double> probs = {0.1, 0.48, 0.9, 0.52, 0.5};
  EXPECT_EQ(SelectOnce(policy.get(), probs, 3, nullptr),
            (std::vector<int64_t>{4, 1, 3}));
  // k larger than the pool returns everything, still in score order.
  EXPECT_EQ(SelectOnce(policy.get(), probs, 10, nullptr),
            (std::vector<int64_t>{4, 1, 3, 0, 2}));
  EXPECT_TRUE(SelectOnce(policy.get(), {}, 3, nullptr).empty());
  EXPECT_TRUE(SelectOnce(policy.get(), probs, 0, nullptr).empty());
}

TEST(SuggestPolicyTest, DegenerateParametersRecoverUncertainty) {
  const std::vector<double> probs = {0.93, 0.48, 0.07, 0.61, 0.52, 0.35};
  auto uncertainty = Make(PolicyOptions{}, nullptr);
  const std::vector<int64_t> expected =
      SelectOnce(uncertainty.get(), probs, 4, nullptr);

  // epsilon = 0: the Bernoulli never fires, every slot is the greedy pick.
  PolicyOptions eps0 = Opts(PolicyKind::kEpsilonGreedy);
  eps0.epsilon = 0.0;
  // sigma = 0: every bag votes the unperturbed sign, all vote fractions
  // collapse, and the tie-break is the base uncertainty score.
  PolicyOptions sigma0 = Opts(PolicyKind::kBootstrap);
  sigma0.bootstrap_sigma = 0.0;
  // lambda -> inf: the softmax mass concentrates on the most uncertain
  // remaining candidate (or underflows entirely, hitting the greedy
  // fallback) — either way the greedy order.
  PolicyOptions sharp = Opts(PolicyKind::kSoftmax);
  sharp.softmax_lambda = 1e9;
  // tau = 0: the uniform phase is already exhausted.
  PolicyOptions tau0 = Opts(PolicyKind::kTauFirst);
  tau0.tau = 0;

  for (const PolicyOptions& o : {eps0, sigma0, sharp, tau0}) {
    Rng seed(17);
    auto policy = Make(o, &seed);
    ASSERT_NE(policy, nullptr);
    Rng rng(99);
    EXPECT_EQ(SelectOnce(policy.get(), probs, 4, &rng), expected)
        << PolicyKindName(o.kind);
  }
}

TEST(SuggestPolicyTest, TauFirstHandsOffAfterExhaustion) {
  PolicyOptions o = Opts(PolicyKind::kTauFirst);
  o.tau = 3;
  Rng seed(5);
  auto policy = Make(o, &seed);
  ASSERT_NE(policy, nullptr);
  EXPECT_TRUE(policy->stochastic());
  const std::vector<double> probs = {0.9, 0.48, 0.1, 0.55, 0.98, 0.02};
  Rng rng(7);
  // Calls of k=2 burn the tau=3 uniform budget across calls: 2 + 1.
  const auto first = SelectOnce(policy.get(), probs, 2, &rng);
  EXPECT_EQ(first.size(), 2u);
  const auto second = SelectOnce(policy.get(), probs, 2, &rng);
  EXPECT_EQ(second.size(), 2u);
  // From now on the policy is pure uncertainty: no draws, greedy order.
  auto uncertainty = Make(PolicyOptions{}, nullptr);
  const auto expected = SelectOnce(uncertainty.get(), probs, 3, nullptr);
  Rng replay = rng;  // Same state; the exhausted policy must not draw.
  EXPECT_EQ(SelectOnce(policy.get(), probs, 3, &rng), expected);
  EXPECT_EQ(rng.engine()(), replay.engine()());
}

TEST(SuggestPolicyTest, SaveLoadResumesDrawForDraw) {
  const std::vector<double> probs = {0.93, 0.48, 0.07, 0.61, 0.52, 0.35,
                                     0.5,  0.72, 0.18, 0.44};
  for (const PolicyOptions& o : Menu()) {
    Rng seed(11);
    auto policy = Make(o, &seed);
    ASSERT_NE(policy, nullptr);
    Rng rng(23);
    (void)SelectOnce(policy.get(), probs, 3, &rng);  // Mutate mid-stream.

    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(&out);
    SavePolicy(*policy, &writer);
    std::istringstream in(out.str(), std::ios::binary);
    BinaryReader reader(&in);
    std::unique_ptr<SuggestPolicy> restored;
    ASSERT_TRUE(LoadPolicy(&reader, &restored).ok()) << PolicyKindName(o.kind);
    ASSERT_EQ(restored->kind(), o.kind);

    // From identical rng states, original and restored must continue the
    // suggestion stream identically (tau counters, bag seeds included).
    Rng rng_restored = rng;
    for (int call = 0; call < 4; ++call) {
      EXPECT_EQ(SelectOnce(policy.get(), probs, 3, &rng),
                SelectOnce(restored.get(), probs, 3, &rng_restored))
          << PolicyKindName(o.kind) << " call " << call;
    }
  }
}

TEST(SuggestPolicyTest, LoadRejectsCorruptEnvelopes) {
  Rng seed(3);
  auto policy = Make(Opts(PolicyKind::kBootstrap), &seed);
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(&out);
  SavePolicy(*policy, &writer);
  const std::string saved = out.str();
  // Truncation at every byte boundary fails with a Status, never a crash.
  for (size_t len = 0; len < saved.size(); ++len) {
    std::istringstream in(saved.substr(0, len), std::ios::binary);
    BinaryReader reader(&in);
    std::unique_ptr<SuggestPolicy> restored;
    EXPECT_FALSE(LoadPolicy(&reader, &restored).ok()) << "len " << len;
  }
  // An unknown kind tag is rejected up front.
  std::string bad_kind = saved;
  bad_kind[0] = 0x7F;
  std::istringstream in(bad_kind, std::ios::binary);
  BinaryReader reader(&in);
  std::unique_ptr<SuggestPolicy> restored;
  EXPECT_EQ(LoadPolicy(&reader, &restored).code(), StatusCode::kIoError);
}

TEST(SuggestPolicyTest, BootstrapVotesAreSeedReproducible) {
  const std::vector<double> probs = {0.93, 0.48, 0.07, 0.61, 0.52,
                                     0.35, 0.5,  0.72, 0.18};
  PolicyOptions o = Opts(PolicyKind::kBootstrap);
  o.bootstrap_bags = 6;
  Rng seed_a(29);
  Rng seed_b(29);
  auto a = Make(o, &seed_a);
  auto b = Make(o, &seed_b);
  Rng rng_a(101);
  Rng rng_b(101);
  for (int call = 0; call < 5; ++call) {
    EXPECT_EQ(SelectOnce(a.get(), probs, 3, &rng_a),
              SelectOnce(b.get(), probs, 3, &rng_b))
        << "call " << call;
  }
  // Different construction seed material => a different committee.
  Rng seed_c(30);
  auto c = Make(o, &seed_c);
  Rng rng_c(101);
  bool any_diff = false;
  for (int call = 0; call < 5 && !any_diff; ++call) {
    any_diff = SelectOnce(a.get(), probs, 4, &rng_a) !=
               SelectOnce(c.get(), probs, 4, &rng_c);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SuggestPolicyTest, SelectionIsAValidKSubset) {
  const std::vector<double> probs = {0.93, 0.48, 0.07, 0.61, 0.52,
                                     0.35, 0.5,  0.72, 0.18, 0.8};
  for (const PolicyOptions& o : Menu()) {
    Rng seed(41);
    auto policy = Make(o, &seed);
    Rng rng(77);
    for (const int64_t k : {int64_t{1}, int64_t{4}, int64_t{20}}) {
      std::vector<int64_t> out = SelectOnce(policy.get(), probs, k, &rng);
      EXPECT_EQ(out.size(),
                static_cast<size_t>(
                    std::min<int64_t>(k, static_cast<int64_t>(probs.size()))));
      std::vector<int64_t> sorted = out;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
          << PolicyKindName(o.kind) << " repeated a candidate";
      for (int64_t idx : out) {
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, static_cast<int64_t>(probs.size()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Session-level battery.

class SuggestPolicySessionTest : public ::testing::Test {
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
  }

  std::vector<std::vector<double>> UserLabels() const {
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + 0.35 * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  // A deterministic candidate pool for (subspace, round): raw subspace
  // projections of a strided row slice.
  std::vector<std::vector<double>> Candidates(int64_t s, int64_t round) const {
    std::vector<std::vector<double>> pool;
    for (int64_t i = 0; i < 40; ++i) {
      const int64_t row = (round * 611 + i * 37) % table_.num_rows();
      std::vector<double> point;
      for (int64_t attr : subspaces_[static_cast<size_t>(s)].attribute_indices) {
        point.push_back(table_.column(attr).value(row));
      }
      pool.push_back(std::move(point));
    }
    return pool;
  }

  // Runs the full iterative loop for one policy at one thread count and
  // returns the concatenated suggestion sequence.
  std::vector<int64_t> SuggestionTrace(const PolicyOptions& options,
                                       int64_t threads, uint64_t seed) {
    ExplorationSession session(model_, threads);
    session.SeedRng(seed);
    EXPECT_TRUE(session
                    .StartExploration(UserLabels(), Variant::kMeta,
                                      session.session_rng())
                    .ok());
    std::vector<int64_t> trace;
    for (int64_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(session.ConfigureSuggestPolicy(s, options).ok());
    }
    for (int64_t round = 0; round < 3; ++round) {
      for (int64_t s = 0; s < 2; ++s) {
        const auto pool = Candidates(s, round);
        std::vector<int64_t> suggested;
        EXPECT_TRUE(session.SuggestTuples(s, pool, 5, &suggested).ok());
        trace.insert(trace.end(), suggested.begin(), suggested.end());
      }
    }
    return trace;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

// Every policy's suggestion sequence is a pure function of (model, labels,
// seed) — bit-identical across session thread counts.
TEST_F(SuggestPolicySessionTest, TraceBitIdenticalAcrossThreadCounts) {
  for (const PolicyOptions& o : Menu()) {
    const auto t1 = SuggestionTrace(o, 1, 555);
    const auto t4 = SuggestionTrace(o, 4, 555);
    EXPECT_EQ(t1, t4) << PolicyKindName(o.kind);
    EXPECT_EQ(t1.size(), 30u);
  }
}

// Save mid-loop, restore, and the suggestion stream continues draw-for-draw
// as if the save never happened.
TEST_F(SuggestPolicySessionTest, SaveLoadResumesSuggestionStream) {
  for (const PolicyOptions& o : Menu()) {
    ExplorationSession session(model_, 1);
    session.SeedRng(888);
    ASSERT_TRUE(session
                    .StartExploration(UserLabels(), Variant::kMeta,
                                      session.session_rng())
                    .ok());
    for (int64_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(session.ConfigureSuggestPolicy(s, o).ok());
    }
    std::vector<int64_t> suggested;
    ASSERT_TRUE(session.SuggestTuples(0, Candidates(0, 0), 5, &suggested).ok());

    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(session.SaveToStream(&out).ok());
    ExplorationSession restored(model_, 1);
    std::istringstream in(out.str(), std::ios::binary);
    ASSERT_TRUE(restored.LoadFromStream(&in).ok());
    const SuggestPolicy* p = restored.suggest_policy(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), o.kind);

    for (int64_t round = 1; round < 4; ++round) {
      for (int64_t s = 0; s < 2; ++s) {
        std::vector<int64_t> a;
        std::vector<int64_t> b;
        const auto pool = Candidates(s, round);
        ASSERT_TRUE(session.SuggestTuples(s, pool, 5, &a).ok());
        ASSERT_TRUE(restored.SuggestTuples(s, pool, 5, &b).ok());
        EXPECT_EQ(a, b) << PolicyKindName(o.kind) << " round " << round;
      }
    }
  }
}

// Stochastic policies without a session rng are rejected up front — at
// StartExploration (model-default policy), at ConfigureSuggestPolicy, and
// the default-constructed session still suggests fine (uncertainty needs no
// rng).
TEST_F(SuggestPolicySessionTest, StochasticPoliciesRequireSessionRng) {
  ExplorationSession session(model_, 1);
  Rng external(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMeta, &external).ok());
  ASSERT_NE(session.suggest_policy(0), nullptr);
  EXPECT_EQ(session.suggest_policy(0)->kind(), PolicyKind::kUncertainty);
  std::vector<int64_t> suggested;
  EXPECT_TRUE(session.SuggestTuples(0, Candidates(0, 0), 5, &suggested).ok());
  EXPECT_EQ(suggested.size(), 5u);

  PolicyOptions eps = Opts(PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(session.ConfigureSuggestPolicy(0, eps).code(),
            StatusCode::kFailedPrecondition);
  // Invalid parameters are InvalidArgument, reported before the rng check.
  PolicyOptions bad = eps;
  bad.epsilon = 7.0;
  EXPECT_EQ(session.ConfigureSuggestPolicy(0, bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.ConfigureSuggestPolicy(99, eps).code(),
            StatusCode::kFailedPrecondition);

  // A model whose host default is stochastic refuses rng-less adaptation.
  ExplorerOptions opt = SmallExplorerOptions();
  opt.suggest_policy.kind = PolicyKind::kSoftmax;
  auto stochastic_model = std::make_shared<ExplorationModel>(opt);
  Rng pretrain_rng(23);
  ASSERT_TRUE(stochastic_model
                  ->Pretrain(table_, subspaces_, /*train_meta=*/true,
                             &pretrain_rng)
                  .ok());
  ExplorationSession no_rng(stochastic_model, 1);
  Rng adapt(6);
  EXPECT_EQ(
      no_rng.StartExploration(UserLabels(), Variant::kMeta, &adapt).code(),
      StatusCode::kFailedPrecondition);
  ExplorationSession with_rng(stochastic_model, 1);
  with_rng.SeedRng(10);
  EXPECT_TRUE(with_rng
                  .StartExploration(UserLabels(), Variant::kMeta,
                                    with_rng.session_rng())
                  .ok());
  const SuggestPolicy* p = with_rng.suggest_policy(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind(), PolicyKind::kSoftmax);

  // Configuring one subspace replaces only that subspace's default.
  PolicyOptions tau = Opts(PolicyKind::kTauFirst);
  tau.tau = 2;
  ASSERT_TRUE(with_rng.ConfigureSuggestPolicy(0, tau).ok());
  ASSERT_TRUE(
      with_rng.SuggestTuples(0, Candidates(0, 0), 4, &suggested).ok());
  EXPECT_EQ(suggested.size(), 4u);
  EXPECT_EQ(with_rng.suggest_policy(0)->kind(), PolicyKind::kTauFirst);
  EXPECT_EQ(with_rng.suggest_policy(1)->kind(), PolicyKind::kSoftmax);
}

// An evict/restore cycle through the SessionManager preserves the policy
// stream: the restored session suggests exactly what a never-evicted session
// would. Runs the manager from real threads for the TSan job.
TEST_F(SuggestPolicySessionTest, ManagerEvictRestorePreservesPolicyStream) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "/suggest_policy_" + info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serving::ModelRegistry registry(model_);
  serving::SessionManagerOptions mopt;
  mopt.max_resident = 2;  // 4 users through 2 slots => constant churn.
  mopt.checkpoint_dir = dir;
  mopt.session_num_threads = 1;
  serving::SessionManager manager(&registry, mopt);

  const std::vector<PolicyOptions> menu = Menu();
  // Reference traces: one standalone session per user, never evicted.
  std::vector<std::vector<int64_t>> expected;
  for (size_t u = 0; u < 4; ++u) {
    expected.push_back(
        SuggestionTrace(menu[u % menu.size()], 1, 9000 + u));
  }

  // Managed run: same per-user setup, interleaved so users evict each other
  // between rounds; each user's mutating calls stay on one thread.
  std::vector<std::vector<int64_t>> actual(4);
  auto user_setup = [&](size_t u) {
    serving::SessionManager::Lease lease;
    ASSERT_TRUE(manager.Acquire("user" + std::to_string(u), &lease).ok());
    core::ExplorationSession* session = lease.session();
    session->SeedRng(9000 + u);
    ASSERT_TRUE(session
                    ->StartExploration(UserLabels(), Variant::kMeta,
                                       session->session_rng())
                    .ok());
    for (int64_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(
          session->ConfigureSuggestPolicy(s, menu[u % menu.size()]).ok());
    }
  };
  for (size_t u = 0; u < 4; ++u) user_setup(u);
  for (int64_t round = 0; round < 3; ++round) {
    std::vector<std::thread> workers;
    for (size_t u = 0; u < 4; ++u) {
      workers.emplace_back([&, u, round] {
        serving::SessionManager::Lease lease;
        ASSERT_TRUE(
            manager.Acquire("user" + std::to_string(u), &lease).ok());
        for (int64_t s = 0; s < 2; ++s) {
          std::vector<int64_t> suggested;
          ASSERT_TRUE(lease.session()
                          ->SuggestTuples(s, Candidates(s, round), 5,
                                          &suggested)
                          .ok());
          actual[u].insert(actual[u].end(), suggested.begin(),
                           suggested.end());
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(actual[u], expected[u]) << "user " << u;
  }
  EXPECT_GT(manager.stats().evictions, 0);
}

}  // namespace
}  // namespace lte::policy
