// Session checkpoint format v2 migration battery.
//
// The committed golden fixtures (tests/testdata/golden_v1.*) were written by
// a pre-format-v2 build — before per-subspace exploration policies existed —
// and pin the v1 compatibility contract forever:
//
//  * golden_v1.ltemodel / golden_v1.ltesession load on the current tree; the
//    restored session gets the implicit v1 policy (uncertainty sampling) on
//    every subspace and serves the exact match set recorded at fixture time
//    (golden_v1_matches.txt).
//  * A v1 session re-saved by this tree upgrades to v2 and becomes a fixed
//    point: save -> load -> save is byte-identical.
//  * Fresh v2 checkpoints round-trip byte-identically for every policy kind.
//  * Corrupting the v1 fixture (truncation, header bit flips) fails with an
//    error Status, never a crash.
//
// Fixture recipe (regenerate only if the v1 format itself must be re-pinned;
// the generator source is reproduced below so no pre-v2 checkout is needed —
// but note it must be BUILT against a pre-v2 tree to emit genuine v1 bytes):
//   table     = data::MakeBlobs(1200, 4, 5, &Rng(23))
//   subspaces = {{0, 1}, {2, 3}}
//   options   = SmallExplorerOptions() (tests/small_explorer_options.h)
//   pretrain  with Rng(23)  -> fingerprint 0x896816A5A8EC51FB
//   session: threads=1, SeedRng(777), StartExploration(kMetaStar) on labels
//     "tuple[0] < min + 0.35 * range" over the initial tuples, then one
//     3-point ContinueExploration per subspace using initial tuples
//     (s + 2 + j) % count relabelled under the same threshold; Save; dump
//     RetrieveMatches(table, -1) to golden_v1_matches.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "policy/suggest_policy.h"
#include "small_explorer_options.h"

namespace lte::core {
namespace {

constexpr uint64_t kGoldenFingerprint = 0x896816A5A8EC51FBULL;

std::string TestDataPath(const std::string& name) {
  return std::string(LTE_TESTDATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t HeaderU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  EXPECT_GE(bytes.size(), offset + 8);
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

class SessionFormatMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    table_ = data::MakeBlobs(1200, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    // The model artifact carries its own options; the constructor argument
    // is irrelevant after Load.
    model_ = std::make_shared<ExplorationModel>(ExplorerOptions{});
    ASSERT_TRUE(model_->Load(TestDataPath("golden_v1.ltemodel")).ok());
    ASSERT_EQ(model_->fingerprint(), kGoldenFingerprint)
        << "golden model fixture drifted — the v1 compatibility pin is void";
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

  std::vector<int64_t> GoldenMatches() const {
    std::ifstream in(TestDataPath("golden_v1_matches.txt"));
    EXPECT_TRUE(in.good());
    std::vector<int64_t> matches;
    int64_t m = 0;
    while (in >> m) matches.push_back(m);
    return matches;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

// A v1 checkpoint loads on the v2 tree: every adapted subspace gets the
// implicit v1 policy (uncertainty sampling), the rng resumes, and the
// restored session reproduces the match set recorded at fixture time.
TEST_F(SessionFormatMigrationTest, GoldenV1LoadsWithDefaultPolicy) {
  const std::string bytes = ReadFileBytes(TestDataPath("golden_v1.ltesession"));
  ASSERT_EQ(HeaderU64(bytes, 8), 1u) << "fixture is not a v1 stream";

  ExplorationSession session(model_, 1);
  ASSERT_TRUE(session.Load(TestDataPath("golden_v1.ltesession")).ok());
  ASSERT_EQ(session.active_subspaces(), 2);
  ASSERT_NE(session.session_rng(), nullptr);
  for (int64_t s = 0; s < 2; ++s) {
    const policy::SuggestPolicy* p = session.suggest_policy(s);
    ASSERT_NE(p, nullptr) << "subspace " << s;
    EXPECT_EQ(p->kind(), policy::PolicyKind::kUncertainty);
    EXPECT_FALSE(p->stochastic());
  }

  const std::vector<int64_t> expected = GoldenMatches();
  ASSERT_FALSE(expected.empty());
  std::vector<int64_t> matches;
  ASSERT_TRUE(session.RetrieveMatches(table_, -1, &matches).ok());
  EXPECT_EQ(matches, expected);

  // The migrated default policy is live: SuggestTuples works without any
  // reconfiguration, exactly as it did on the v1 tree.
  std::vector<int64_t> suggested;
  ASSERT_TRUE(
      session.SuggestTuples(0, *model_->InitialTuples(0), 3, &suggested).ok());
  EXPECT_EQ(suggested.size(), 3u);
}

// Re-saving a migrated v1 session writes format v2, and v2 is a fixed
// point: save -> load -> save is byte-identical.
TEST_F(SessionFormatMigrationTest, GoldenV1UpgradesToV2FixedPoint) {
  ExplorationSession session(model_, 1);
  ASSERT_TRUE(session.Load(TestDataPath("golden_v1.ltesession")).ok());
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(session.SaveToStream(&out).ok());
  const std::string v2 = out.str();
  EXPECT_EQ(HeaderU64(v2, 8), 2u);

  ExplorationSession reloaded(model_, 1);
  std::istringstream in(v2, std::ios::binary);
  ASSERT_TRUE(reloaded.LoadFromStream(&in).ok());
  std::ostringstream out2(std::ios::binary);
  ASSERT_TRUE(reloaded.SaveToStream(&out2).ok());
  EXPECT_EQ(v2, out2.str());

  // The upgrade changed the container version, not the user's results.
  std::vector<int64_t> matches;
  ASSERT_TRUE(reloaded.RetrieveMatches(table_, -1, &matches).ok());
  EXPECT_EQ(matches, GoldenMatches());
}

// Fresh v2 checkpoints round-trip byte-identically for every policy kind,
// with mid-stream policy state (consumed tau budget, advanced rng, bootstrap
// committees) in the payload.
TEST_F(SessionFormatMigrationTest, V2RoundTripsByteIdenticallyPerPolicyKind) {
  std::vector<policy::PolicyOptions> menu(5);
  menu[0].kind = policy::PolicyKind::kUncertainty;
  menu[1].kind = policy::PolicyKind::kEpsilonGreedy;
  menu[1].epsilon = 0.3;
  menu[2].kind = policy::PolicyKind::kTauFirst;
  menu[2].tau = 4;
  menu[3].kind = policy::PolicyKind::kSoftmax;
  menu[4].kind = policy::PolicyKind::kBootstrap;
  menu[4].bootstrap_bags = 4;

  for (const policy::PolicyOptions& o : menu) {
    ExplorationSession session(model_, 1);
    session.SeedRng(321);
    ASSERT_TRUE(session
                    .StartExploration(UserLabels(), Variant::kMetaStar,
                                      session.session_rng())
                    .ok());
    std::vector<int64_t> suggested;
    for (int64_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(session.ConfigureSuggestPolicy(s, o).ok());
      ASSERT_TRUE(
          session.SuggestTuples(s, *model_->InitialTuples(s), 3, &suggested)
              .ok());
    }
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(session.SaveToStream(&out).ok());

    ExplorationSession restored(model_, 1);
    std::istringstream in(out.str(), std::ios::binary);
    ASSERT_TRUE(restored.LoadFromStream(&in).ok());
    const policy::SuggestPolicy* p = restored.suggest_policy(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), o.kind);
    std::ostringstream out2(std::ios::binary);
    ASSERT_TRUE(restored.SaveToStream(&out2).ok());
    EXPECT_EQ(out.str(), out2.str())
        << policy::PolicyKindName(o.kind) << " round-trip not byte-identical";
  }
}

// Golden training pin: re-running the fixture recipe in this file's header
// reproduces the committed artifacts bit for bit. Pretrain must land on the
// golden fingerprint (meta-training arithmetic), and the recipe session
// (online adaptation arithmetic) must save to exactly the bytes of the
// migrated golden_v1.ltesession. The other golden tests only load saved
// state, so this is the test that pins training itself.
TEST_F(SessionFormatMigrationTest, FixtureRecipeReproducesGoldenBytes) {
  auto trained = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng pretrain_rng(23);
  ASSERT_TRUE(trained->Pretrain(table_, subspaces_, /*train_meta=*/true,
                                &pretrain_rng)
                  .ok());
  ASSERT_EQ(trained->fingerprint(), kGoldenFingerprint)
      << "Pretrain no longer reproduces the golden model";

  ExplorationSession session(trained, /*num_threads=*/1);
  session.SeedRng(777);
  ASSERT_TRUE(session
                  .StartExploration(UserLabels(), Variant::kMetaStar,
                                    session.session_rng())
                  .ok());
  for (size_t s = 0; s < subspaces_.size(); ++s) {
    const auto& initial = *trained->InitialTuples(static_cast<int64_t>(s));
    const data::Column& col = table_.column(subspaces_[s].attribute_indices[0]);
    const double threshold = col.min() + 0.35 * (col.max() - col.min());
    std::vector<std::vector<double>> points;
    std::vector<double> labels;
    for (size_t j = 0; j < 3; ++j) {
      const auto& p = initial[(s + 2 + j) % initial.size()];
      points.push_back(p);
      labels.push_back(p[0] < threshold ? 1.0 : 0.0);
    }
    ASSERT_TRUE(session
                    .ContinueExploration(static_cast<int64_t>(s), points,
                                         labels, session.session_rng())
                    .ok());
  }
  std::ostringstream fresh(std::ios::binary);
  ASSERT_TRUE(session.SaveToStream(&fresh).ok());

  ExplorationSession golden(model_, 1);
  ASSERT_TRUE(golden.Load(TestDataPath("golden_v1.ltesession")).ok());
  std::ostringstream migrated(std::ios::binary);
  ASSERT_TRUE(golden.SaveToStream(&migrated).ok());
  ASSERT_EQ(fresh.str().size(), migrated.str().size());
  EXPECT_TRUE(fresh.str() == migrated.str())
      << "the recipe session no longer adapts to the golden bytes";
}

// The corruption battery holds for genuine v1 bytes too: truncation at
// every byte boundary and bit flips across the header (magic, version,
// fingerprint stamp) are error Statuses, never crashes or silent loads.
TEST_F(SessionFormatMigrationTest, GoldenV1CorruptionFailsCleanly) {
  const std::string saved = ReadFileBytes(TestDataPath("golden_v1.ltesession"));
  ASSERT_GE(saved.size(), 24u);
  for (size_t len = 0; len < saved.size(); ++len) {
    ExplorationSession session(model_, 1);
    std::istringstream in(saved.substr(0, len), std::ios::binary);
    ASSERT_FALSE(session.LoadFromStream(&in).ok())
        << "truncation at byte " << len << " loaded";
  }
  for (size_t byte = 0; byte < 24; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = saved;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      ExplorationSession session(model_, 1);
      std::istringstream in(corrupt, std::ios::binary);
      ASSERT_FALSE(session.LoadFromStream(&in).ok())
          << "flip of byte " << byte << " bit " << bit;
      EXPECT_EQ(session.active_subspaces(), 0);
    }
  }
  // An unknown future version (v3) is rejected, not misparsed.
  std::string future = saved;
  future[8] = 3;
  ExplorationSession session(model_, 1);
  std::istringstream in(future, std::ios::binary);
  const Status st = session.LoadFromStream(&in);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lte::core
