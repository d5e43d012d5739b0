// Session lifecycle test battery, part 1: ExplorationSession::Save/Load.
//
//  * Round-trip determinism: Save -> Load -> continue is byte-identical to
//    the uninterrupted session, across thread counts {1, 4}.
//  * Adversarial decodes: truncation at every byte boundary and bit flips
//    across the header + model stamp return an error Status — never a crash,
//    never a silent load (runs under the ASan/UBSan CI job).
//  * Model mismatch: a session saved against model A refuses to load against
//    model B (FailedPrecondition, both fingerprints in the message).
//
// Saved streams carry configured stateful exploration policies (tau-first +
// bootstrap), so the round-trip and corruption batteries exercise the
// format-v2 policy payload; see session_format_migration_test.cc for the
// v1-compat and per-kind round-trip coverage.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "small_explorer_options.h"

namespace lte::core {
namespace {

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

class SessionPersistenceTest : public ::testing::Test {
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

  // Simulated user `u`: interesting iff the subspace point's first
  // coordinate is below a per-user fraction of that attribute's range.
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

  // A deterministic ContinueExploration batch for (user, visit, subspace):
  // initial tuples re-labelled under the user's threshold.
  void MakeBatch(int64_t u, int64_t v, int64_t s,
                 std::vector<std::vector<double>>* points,
                 std::vector<double>* labels) const {
    points->clear();
    labels->clear();
    const auto& initial = *model_->InitialTuples(s);
    const data::Column& col = table_.column(subspaces_[s].attribute_indices[0]);
    const double fraction = 0.35 + 0.12 * static_cast<double>(u);
    const double threshold = col.min() + fraction * (col.max() - col.min());
    for (int64_t j = 0; j < 3; ++j) {
      const auto& p =
          initial[static_cast<size_t>((u + 2 * v + j) %
                                      static_cast<int64_t>(initial.size()))];
      points->push_back(p);
      labels->push_back(p[0] < threshold ? 1.0 : 0.0);
    }
  }

  // Installs stateful exploration policies (format-v2 payload) and consumes
  // a suggestion batch per subspace, so saved streams carry a mid-count
  // tau-first counter, bootstrap bag seeds, and an advanced session rng.
  // Called identically on the reference and the to-be-saved session, the
  // policy draws stay in lockstep.
  void ConfigurePoliciesAndSuggest(ExplorationSession* session) const {
    policy::PolicyOptions tau;
    tau.kind = policy::PolicyKind::kTauFirst;
    tau.tau = 4;
    EXPECT_TRUE(session->ConfigureSuggestPolicy(0, tau).ok());
    policy::PolicyOptions boot;
    boot.kind = policy::PolicyKind::kBootstrap;
    boot.bootstrap_bags = 4;
    EXPECT_TRUE(session->ConfigureSuggestPolicy(1, boot).ok());
    std::vector<int64_t> suggested;
    for (int64_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(
          session->SuggestTuples(s, *model_->InitialTuples(s), 3, &suggested)
              .ok());
      EXPECT_EQ(suggested.size(), 3u);
    }
  }

  // One session's complete serving outcome, for exact comparison.
  struct Outcome {
    std::vector<double> predictions;
    std::vector<int64_t> matches;
    std::vector<int64_t> limited;

    bool operator==(const Outcome& other) const {
      return predictions == other.predictions && matches == other.matches &&
             limited == other.limited;
    }
  };

  Outcome Serve(const ExplorationSession& session) const {
    Outcome out;
    std::vector<int64_t> rows(500);
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_TRUE(session.PredictRows(table_, rows, &out.predictions).ok());
    EXPECT_TRUE(session.RetrieveMatches(table_, -1, &out.matches).ok());
    EXPECT_TRUE(session.RetrieveMatches(table_, 50, &out.limited).ok());
    return out;
  }

  // Serializes a mid-exploration session (start + one continue batch on each
  // subspace, session-owned rng) to a string. kMetaStar exercises every
  // section of the format: memories, history, and the FP/FN rebuild.
  std::string SavedMidExploration(Variant variant, int64_t threads) {
    ExplorationSession session(model_, threads);
    session.SeedRng(777);
    EXPECT_TRUE(
        session.StartExploration(UserLabels(0), variant, session.session_rng())
            .ok());
    ConfigurePoliciesAndSuggest(&session);
    std::vector<std::vector<double>> points;
    std::vector<double> labels;
    for (int64_t s = 0; s < 2; ++s) {
      MakeBatch(0, 1, s, &points, &labels);
      EXPECT_TRUE(
          session.ContinueExploration(s, points, labels, session.session_rng())
              .ok());
    }
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(session.SaveToStream(&out).ok());
    return out.str();
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

// Save -> Load -> continue must be byte-identical to never having saved, for
// every variant and thread count — and across them: the loader may run a
// different host configuration than the saver.
TEST_F(SessionPersistenceTest, RoundTripContinuationMatchesUninterrupted) {
  for (const Variant variant : {Variant::kMetaStar, Variant::kBasic}) {
    for (const int64_t save_threads : {int64_t{1}, int64_t{4}}) {
      // Uninterrupted reference: start, continue twice, serve.
      ExplorationSession reference(model_, save_threads);
      reference.SeedRng(777);
      ASSERT_TRUE(reference
                      .StartExploration(UserLabels(0), variant,
                                        reference.session_rng())
                      .ok());
      ConfigurePoliciesAndSuggest(&reference);
      std::vector<std::vector<double>> points;
      std::vector<double> labels;
      for (int64_t s = 0; s < 2; ++s) {
        MakeBatch(0, 1, s, &points, &labels);
        ASSERT_TRUE(reference
                        .ContinueExploration(s, points, labels,
                                             reference.session_rng())
                        .ok());
      }
      const std::string saved = SavedMidExploration(variant, save_threads);
      MakeBatch(0, 2, 0, &points, &labels);
      ASSERT_TRUE(reference
                      .ContinueExploration(0, points, labels,
                                           reference.session_rng())
                      .ok());
      const Outcome expected = Serve(reference);

      for (const int64_t load_threads : {int64_t{1}, int64_t{4}}) {
        ExplorationSession restored(model_, load_threads);
        std::istringstream in(saved, std::ios::binary);
        ASSERT_TRUE(restored.LoadFromStream(&in).ok());
        ASSERT_EQ(restored.active_subspaces(), 2);
        ASSERT_NE(restored.session_rng(), nullptr);
        MakeBatch(0, 2, 0, &points, &labels);
        ASSERT_TRUE(restored
                        .ContinueExploration(0, points, labels,
                                             restored.session_rng())
                        .ok());
        EXPECT_TRUE(Serve(restored) == expected)
            << "variant=" << static_cast<int>(variant)
            << " save_threads=" << save_threads
            << " load_threads=" << load_threads;
      }
    }
  }
}

// The serialized bytes themselves are thread-count-invariant: persistence
// inherits the adaptation determinism contract.
TEST_F(SessionPersistenceTest, SavedBytesIdenticalAcrossHostKnobs) {
  const std::string base = SavedMidExploration(Variant::kMetaStar, 1);
  EXPECT_EQ(base, SavedMidExploration(Variant::kMetaStar, 4));
  EXPECT_EQ(base, SavedMidExploration(Variant::kMetaStar, 0));
}

// Truncating the file at every byte boundary must yield an error Status —
// never a crash, never a silent load — and must leave the destination
// session's previous state untouched.
TEST_F(SessionPersistenceTest, TruncationAtEveryByteFailsCleanly) {
  const std::string saved =
      SavedMidExploration(Variant::kMetaStar, 1);
  // Sanity: the intact stream loads.
  ExplorationSession intact(model_, 1);
  std::istringstream full(saved, std::ios::binary);
  ASSERT_TRUE(intact.LoadFromStream(&full).ok());

  ExplorationSession victim(model_, 1);
  victim.SeedRng(11);
  ASSERT_TRUE(victim
                  .StartExploration(UserLabels(1), Variant::kMeta,
                                    victim.session_rng())
                  .ok());
  const Outcome before = Serve(victim);
  for (size_t len = 0; len < saved.size(); ++len) {
    std::istringstream in(saved.substr(0, len), std::ios::binary);
    const Status st = victim.LoadFromStream(&in);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << len << " loaded";
  }
  // Every failed decode left the previous exploration fully intact.
  EXPECT_EQ(victim.active_subspaces(), 2);
  EXPECT_TRUE(Serve(victim) == before);
}

// Bit flips across the header and model stamp (magic, version, fingerprint)
// must be rejected; a flipped fingerprint specifically reports the mismatch
// as FailedPrecondition.
TEST_F(SessionPersistenceTest, HeaderAndStampBitFlipsFailCleanly) {
  const std::string saved =
      SavedMidExploration(Variant::kMetaStar, 1);
  ASSERT_GE(saved.size(), 24u);
  for (size_t byte = 0; byte < 24; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = saved;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      ExplorationSession session(model_, 1);
      std::istringstream in(corrupt, std::ios::binary);
      const Status st = session.LoadFromStream(&in);
      ASSERT_FALSE(st.ok()) << "flip of byte " << byte << " bit " << bit;
      EXPECT_EQ(session.active_subspaces(), 0);
      if (byte >= 16) {  // The model fingerprint stamp.
        EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
      }
    }
  }
}

// Garbage, too-short, and cross-format files all fail with an error Status.
TEST_F(SessionPersistenceTest, GarbageAndWrongFormatFilesAreRejected) {
  const std::string dir = ::testing::TempDir();
  ExplorationSession session(model_, 1);
  EXPECT_EQ(session.Load(dir + "/does_not_exist.ltesession").code(),
            StatusCode::kIoError);

  const std::string garbage_path = dir + "/garbage.ltesession";
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "definitely not a session";
  }
  EXPECT_EQ(session.Load(garbage_path).code(), StatusCode::kInvalidArgument);

  const std::string short_path = dir + "/short.ltesession";
  {
    std::ofstream out(short_path, std::ios::binary);
    out << "abc";
  }
  EXPECT_EQ(session.Load(short_path).code(), StatusCode::kIoError);

  // A model artifact is not a session file (and vice versa).
  const std::string model_path = dir + "/model.ltemodel";
  ASSERT_TRUE(model_->Save(model_path).ok());
  EXPECT_EQ(session.Load(model_path).code(), StatusCode::kInvalidArgument);
  ExplorationSession donor(model_, 1);
  donor.SeedRng(5);
  ASSERT_TRUE(donor
                  .StartExploration(UserLabels(0), Variant::kBasic,
                                    donor.session_rng())
                  .ok());
  const std::string session_path = dir + "/donor.ltesession";
  ASSERT_TRUE(donor.Save(session_path).ok());
  ExplorationModel fresh(SmallExplorerOptions());
  EXPECT_FALSE(fresh.Load(session_path).ok());
}

// The bytes BinaryWriter emits for `write`, to find a field in a save.
template <typename Write>
std::string Bytes(Write write) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(&out);
  write(&w);
  return out.str();
}

// A restore refuses what StartExploration and ContinueExploration refuse: a
// start or history label outside [0, 1] (NaN included) and a non-finite
// history point. Each edit of a valid save fails with IoError and leaves
// the destination session's previous state intact.
TEST_F(SessionPersistenceTest, InvalidLabelsAndPointsRejectedOnLoad) {
  const std::string saved = SavedMidExploration(Variant::kMetaStar, 1);
  // Byte offsets of the fields to edit: subspace 1's start labels, and its
  // history batch (points, then labels).
  const std::vector<double> start = UserLabels(0)[1];
  const std::string start_bytes =
      Bytes([&](BinaryWriter* w) { w->WriteDoubleVector(start); });
  std::vector<std::vector<double>> points;
  std::vector<double> labels;
  MakeBatch(0, 1, 1, &points, &labels);
  const std::string batch_bytes = Bytes([&](BinaryWriter* w) {
    w->WritePointSet(points);
    w->WriteDoubleVector(labels);
  });
  const size_t start_at = saved.find(start_bytes);
  const size_t batch_at = saved.find(batch_bytes);
  ASSERT_NE(start_at, std::string::npos);
  ASSERT_NE(batch_at, std::string::npos);
  ASSERT_EQ(saved.rfind(start_bytes), start_at);
  ASSERT_EQ(saved.rfind(batch_bytes), batch_at);
  // Each field's first value sits after its length word; the batch's first
  // point follows the set's count and the point's own length word.
  const size_t first_start_label = start_at + 8;
  const size_t first_point = batch_at + 16;
  const size_t first_batch_label = batch_at + batch_bytes.size() -
                                   8 * labels.size();

  ExplorationSession victim(model_, 1);
  victim.SeedRng(11);
  ASSERT_TRUE(victim
                  .StartExploration(UserLabels(1), Variant::kMeta,
                                    victim.session_rng())
                  .ok());
  const Outcome before = Serve(victim);
  const auto load_with = [&](size_t offset, double value) {
    std::string corrupt = saved;
    std::memcpy(corrupt.data() + offset, &value, sizeof(value));
    std::istringstream in(corrupt, std::ios::binary);
    return victim.LoadFromStream(&in);
  };
  // The offsets point at the fields: rewriting them as they are loads.
  ASSERT_TRUE(load_with(first_start_label, start[0]).ok());
  ASSERT_TRUE(load_with(first_point, points[0][0]).ok());
  ASSERT_TRUE(load_with(first_batch_label, labels[0]).ok());
  ASSERT_TRUE(victim
                  .StartExploration(UserLabels(1), Variant::kMeta,
                                    victim.session_rng())
                  .ok());
  ASSERT_TRUE(Serve(victim) == before);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t offset : {first_start_label, first_batch_label}) {
    for (const double bad : {-0.5, 1.5, nan, inf}) {
      const Status st = load_with(offset, bad);
      EXPECT_EQ(st.code(), StatusCode::kIoError)
          << "label " << bad << " at byte " << offset;
    }
  }
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_EQ(load_with(first_point, bad).code(), StatusCode::kIoError)
        << "point coordinate " << bad;
  }
  EXPECT_EQ(victim.active_subspaces(), 2);
  EXPECT_TRUE(Serve(victim) == before);
}

// A session saved against model A refuses to attach to a refreshed model B:
// FailedPrecondition naming both fingerprints, and the destination session
// keeps its previous state.
TEST_F(SessionPersistenceTest, ModelMismatchRefusesLoad) {
  ExplorationSession session(model_, 1);
  session.SeedRng(3);
  ASSERT_TRUE(session
                  .StartExploration(UserLabels(0), Variant::kMetaStar,
                                    session.session_rng())
                  .ok());
  const std::string path = ::testing::TempDir() + "/mismatch.ltesession";
  ASSERT_TRUE(session.Save(path).ok());

  // Model B: same data, different pretraining stream => different artifact.
  auto other = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng other_rng(24);
  ASSERT_TRUE(
      other->Pretrain(table_, subspaces_, /*train_meta=*/true, &other_rng)
          .ok());
  ASSERT_NE(other->fingerprint(), model_->fingerprint());

  ExplorationSession wrong(other, 1);
  const Status st = wrong.Load(path);
  ASSERT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find(HexU64(model_->fingerprint())),
            std::string::npos);
  EXPECT_NE(st.message().find(HexU64(other->fingerprint())),
            std::string::npos);
  EXPECT_EQ(wrong.active_subspaces(), 0);

  // The right model still accepts the file — including a model restored
  // from its own artifact, which fingerprints identically by construction.
  ExplorationSession right(model_, 1);
  ASSERT_TRUE(right.Load(path).ok());
  EXPECT_TRUE(Serve(right) == Serve(session));
  const std::string model_path = ::testing::TempDir() + "/model_rt.ltemodel";
  ASSERT_TRUE(model_->Save(model_path).ok());
  auto reloaded = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(reloaded->Load(model_path).ok());
  EXPECT_EQ(reloaded->fingerprint(), model_->fingerprint());
  ExplorationSession on_reloaded(reloaded, 1);
  EXPECT_TRUE(on_reloaded.Load(path).ok());
}

// A save whose bytes never reach the disk is an error, not OK. /dev/full
// accepts the open and fails every write with ENOSPC; a small file sits
// wholly in the stream's buffer until the final flush, which is the write
// that must be checked.
TEST_F(SessionPersistenceTest, SaveToFullDeviceReportsIoError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  ExplorationSession session(model_, 1);
  session.SeedRng(9);
  EXPECT_EQ(session.Save("/dev/full").code(), StatusCode::kIoError);
  EXPECT_EQ(model_->Save("/dev/full").code(), StatusCode::kIoError);
}

// An unstarted session (rng only) round-trips, and the restored rng
// continues the stream draw-for-draw.
TEST_F(SessionPersistenceTest, UnstartedSessionRoundTripsWithRng) {
  ExplorationSession session(model_, 1);
  session.SeedRng(41);
  session.session_rng()->Uniform();  // Advance past the seed state.
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(session.SaveToStream(&out).ok());

  ExplorationSession restored(model_, 1);
  std::istringstream in(out.str(), std::ios::binary);
  ASSERT_TRUE(restored.LoadFromStream(&in).ok());
  EXPECT_EQ(restored.active_subspaces(), 0);
  ASSERT_NE(restored.session_rng(), nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(session.session_rng()->engine()(),
              restored.session_rng()->engine()());
  }
}

}  // namespace
}  // namespace lte::core
