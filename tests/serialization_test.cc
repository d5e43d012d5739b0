// Round-trip tests of the model-persistence layer, from the binary I/O
// primitives up to a full pre-trained ExplorationModel.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "core/lte.h"
#include "data/synthetic.h"
#include "nn/mlp.h"
#include "preprocess/gmm.h"
#include "preprocess/tabular_encoder.h"

namespace lte {
namespace {

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("hello");
  w.WriteDoubleVector({1.5, -2.5});
  w.WriteI64Vector({10, 20});
  w.WritePointSet({{1, 2}, {3, 4}});
  ASSERT_TRUE(w.status().ok());

  BinaryReader r(&buf);
  uint64_t u = 0;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  std::string s;
  std::vector<double> dv;
  std::vector<int64_t> iv;
  std::vector<std::vector<double>> ps;
  ASSERT_TRUE(r.ReadU64(&u).ok());
  ASSERT_TRUE(r.ReadI64(&i).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(r.ReadI64Vector(&iv).ok());
  ASSERT_TRUE(r.ReadPointSet(&ps).ok());
  EXPECT_EQ(u, 42u);
  EXPECT_EQ(i, -7);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(iv, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(ps, (std::vector<std::vector<double>>{{1, 2}, {3, 4}}));
}

TEST(BinaryIoTest, TruncatedStreamFails) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(5);  // Claims 5 doubles follow; none do.
  BinaryReader r(&buf);
  std::vector<double> v;
  EXPECT_EQ(r.ReadDoubleVector(&v).code(), StatusCode::kIoError);
}

// A corrupt length word just under the plausibility cap claims up to 32 GiB;
// the readers allocate only as bytes arrive, so a short stream fails with
// IoError instead of reserving what the word claims.
TEST(BinaryIoTest, HugeLengthOverShortStreamFailsWithoutAllocating) {
  constexpr uint64_t kHuge = (uint64_t{1} << 32) - 1;
  const auto short_stream = [&] {
    auto buf = std::make_unique<std::stringstream>();
    BinaryWriter w(buf.get());
    w.WriteU64(kHuge);
    w.WriteU64(3);  // A few bytes of payload, nowhere near the claim.
    w.WriteDouble(1.0);
    return buf;
  };
  std::string s;
  std::vector<double> dv;
  std::vector<int64_t> iv;
  std::vector<std::vector<double>> ps;
  auto a = short_stream();
  EXPECT_EQ(BinaryReader(a.get()).ReadString(&s).code(), StatusCode::kIoError);
  auto b = short_stream();
  EXPECT_EQ(BinaryReader(b.get()).ReadDoubleVector(&dv).code(),
            StatusCode::kIoError);
  auto c = short_stream();
  EXPECT_EQ(BinaryReader(c.get()).ReadI64Vector(&iv).code(),
            StatusCode::kIoError);
  auto d = short_stream();
  EXPECT_EQ(BinaryReader(d.get()).ReadPointSet(&ps).code(),
            StatusCode::kIoError);
}

TEST(SerializationTest, MatrixRoundTrip) {
  Rng rng(1);
  nn::Matrix m(3, 4);
  m.InitGaussian(&rng, 1.0);
  std::stringstream buf;
  BinaryWriter w(&buf);
  m.Save(&w);
  nn::Matrix loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_EQ(loaded.rows(), 3);
  EXPECT_EQ(loaded.cols(), 4);
  EXPECT_EQ(loaded.data(), m.data());
}

TEST(SerializationTest, MlpRoundTripPreservesOutputs) {
  Rng rng(2);
  nn::Mlp mlp({4, 8, 1}, &rng);
  std::stringstream buf;
  BinaryWriter w(&buf);
  mlp.Save(&w);
  nn::Mlp loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  const std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(loaded.Forward(x), mlp.Forward(x));
  EXPECT_EQ(loaded.LayerSizes(), mlp.LayerSizes());
}

// rows = 2^62, cols = 4: the element count 2^64 overflows 64 bits (and
// wraps to the 0 elements the record holds). Load must see the mismatch
// without the overflow, which UBSan would report.
TEST(SerializationTest, MatrixLoadRejectsOverflowingDimensions) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteI64(int64_t{1} << 62);
  w.WriteI64(4);
  w.WriteDoubleVector({});
  nn::Matrix loaded;
  BinaryReader r(&buf);
  EXPECT_EQ(loaded.Load(&r).code(), StatusCode::kIoError);
  EXPECT_EQ(loaded.rows(), 0);
}

// Layer sizes {2^31, 2^31} imply 2^62 + 2^31 parameters; the record holds
// two. Load must refuse it before building a layer of that size.
TEST(SerializationTest, MlpLoadRejectsSizesTheParametersCannotFill) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteI64Vector({int64_t{1} << 31, int64_t{1} << 31});
  w.WriteDoubleVector({0.5, -0.5});
  nn::Mlp loaded;
  BinaryReader r(&buf);
  EXPECT_EQ(loaded.Load(&r).code(), StatusCode::kIoError);
}

// A component count of 2^32 - 1 over a stream holding one component: the
// mixture grows per component read, so the short stream ends the decode.
TEST(SerializationTest, GmmLoadRejectsCountTheStreamCannotFill) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64((uint64_t{1} << 32) - 1);
  w.WriteDouble(1.0);  // weight
  w.WriteDouble(0.0);  // mean
  w.WriteDouble(1.0);  // variance
  preprocess::GaussianMixture loaded;
  BinaryReader r(&buf);
  EXPECT_EQ(loaded.Load(&r).code(), StatusCode::kIoError);
}

TEST(SerializationTest, EncoderRoundTripPreservesEncoding) {
  Rng rng(3);
  const data::Table table = data::MakeCarLike(1500, &rng);
  preprocess::TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(table, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  preprocess::TabularEncoder loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_TRUE(loaded.fitted());
  std::vector<int64_t> attrs;
  for (int64_t a = 0; a < table.num_columns(); ++a) attrs.push_back(a);
  for (int64_t row = 0; row < 20; ++row) {
    const std::vector<double> point = table.Row(row);
    std::vector<Code> want;
    std::vector<Code> got;
    enc.EncodePointsCodesInto(attrs, {&point, 1}, &want);
    loaded.EncodePointsCodesInto(attrs, {&point, 1}, &got);
    EXPECT_EQ(got, want);
  }
}

TEST(SerializationTest, MetaLearnerRoundTripPreservesPredictions) {
  Rng rng(4);
  core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 12;
  opt.tuple_feature_dim = 6;
  opt.embedding_size = 8;
  opt.clf_hidden = {8};
  opt.use_memory = true;
  opt.num_memory_modes = 3;
  core::MetaLearner learner(opt, &rng);

  std::stringstream buf;
  BinaryWriter w(&buf);
  learner.Save(&w);
  std::unique_ptr<core::MetaLearner> loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(core::MetaLearner::LoadFrom(&r, &loaded).ok());

  std::vector<double> v_r(12, 0.0);
  v_r[2] = 1.0;
  v_r[7] = 1.0;
  const std::vector<double> x = {0.1, 0.9, 0.3, 0.7, 0.5, 0.2};
  core::TaskModel a = learner.CreateTaskModel(v_r);
  core::TaskModel b = loaded->CreateTaskModel(v_r);
  EXPECT_DOUBLE_EQ(a.Logit(x), b.Logit(x));
  EXPECT_EQ(learner.Attention(v_r), loaded->Attention(v_r));
}

TEST(SerializationTest, ExplorerRoundTripPreservesExploration) {
  Rng rng(5);
  data::Table table = data::MakeBlobs(3000, 4, 4, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 30;
  opt.task_gen.k_s = 10;
  opt.task_gen.k_q = 30;
  opt.learner.embedding_size = 12;
  opt.learner.clf_hidden = {12};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 25;
  opt.trainer.epochs = 3;
  opt.trainer.local_steps = 3;
  std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                           data::Subspace{{2, 3}}};
  auto original = std::make_shared<core::ExplorationModel>(opt);
  ASSERT_TRUE(
      original->Pretrain(table, subspaces, /*train_meta=*/true, &rng).ok());

  const std::string path = testing::TempDir() + "/explorer.ltemodel";
  ASSERT_TRUE(original->Save(path).ok());

  auto restored =
      std::make_shared<core::ExplorationModel>(core::ExplorerOptions{});
  ASSERT_TRUE(restored->Load(path).ok());
  EXPECT_EQ(restored->num_subspaces(), 2);
  EXPECT_TRUE(restored->meta_trained());
  EXPECT_EQ(*restored->InitialTuples(0), *original->InitialTuples(0));
  EXPECT_EQ(*restored->InitialTuples(1), *original->InitialTuples(1));

  // Saving the just-loaded model must reproduce the original bytes exactly
  // (no lossy fields).
  const std::string resaved_path = testing::TempDir() + "/resaved.ltemodel";
  ASSERT_TRUE(restored->Save(resaved_path).ok());
  std::ifstream in_a(path, std::ios::binary);
  std::ifstream in_b(resaved_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(in_a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(in_b)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // Both adapt with identical labels and rngs and must agree exactly.
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& t : *original->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  core::ExplorationSession original_session(original);
  core::ExplorationSession restored_session(restored);
  Rng rng_a(99);
  Rng rng_b(99);
  ASSERT_TRUE(original_session
                  .StartExploration(labels, core::Variant::kMetaStar, &rng_a)
                  .ok());
  ASSERT_TRUE(restored_session
                  .StartExploration(labels, core::Variant::kMetaStar, &rng_b)
                  .ok());
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(original_session.PredictRow(table.Row(r)).value_or(-1.0),
              restored_session.PredictRow(table.Row(r)).value_or(-2.0));
  }
}

// Two FP/FN parts sets are equal: same hulls (vertices or interval bounds)
// and the same settling tables over the same box.
void ExpectPartsEqual(const core::FpFnParts& a, const core::FpFnParts& b) {
  ASSERT_EQ(a.num_centers(), b.num_centers());
  ASSERT_EQ(a.has_cells(), b.has_cells());
  EXPECT_EQ(a.box().xlo, b.box().xlo);
  EXPECT_EQ(a.box().xhi, b.box().xhi);
  EXPECT_EQ(a.box().ylo, b.box().ylo);
  EXPECT_EQ(a.box().yhi, b.box().yhi);
  EXPECT_EQ(a.scale_x(), b.scale_x());
  EXPECT_EQ(a.scale_y(), b.scale_y());
  for (int64_t s = 0; s < a.num_centers(); ++s) {
    for (const auto& [pa, pb] : {std::pair(&a.outer(s), &b.outer(s)),
                                 std::pair(&a.inner(s), &b.inner(s))}) {
      ASSERT_EQ(pa->hull.dimension(), pb->hull.dimension());
      EXPECT_EQ(pa->hull.lo(), pb->hull.lo());
      EXPECT_EQ(pa->hull.hi(), pb->hull.hi());
      ASSERT_EQ(pa->hull.hull().size(), pb->hull.hull().size());
      for (size_t v = 0; v < pa->hull.hull().size(); ++v) {
        EXPECT_EQ(pa->hull.hull()[v].x, pb->hull.hull()[v].x);
        EXPECT_EQ(pa->hull.hull()[v].y, pb->hull.hull()[v].y);
      }
      EXPECT_EQ(pa->cells, pb->cells);
    }
  }
}

// Load rebuilds the FP/FN parts Pretrain built, for a 2-D subspace (with
// tables) and a 1-D one (hulls only), meta-trained or not.
TEST(SerializationTest, ModelLoadRebuildsPretrainFpFnParts) {
  Rng rng(12);
  data::Table table = data::MakeBlobs(1500, 3, 4, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 20;
  opt.task_gen.k_s = 8;
  opt.task_gen.k_q = 20;
  opt.learner.embedding_size = 8;
  opt.learner.clf_hidden = {8};
  opt.learner.num_memory_modes = 2;
  opt.num_meta_tasks = 10;
  opt.trainer.epochs = 1;
  opt.trainer.local_steps = 2;
  const std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                                 data::Subspace{{2}}};
  for (const bool train_meta : {true, false}) {
    core::ExplorationModel original(opt);
    Rng pretrain_rng(3);
    ASSERT_TRUE(
        original.Pretrain(table, subspaces, train_meta, &pretrain_rng).ok());
    std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(original.SaveToStream(&bytes).ok());
    core::ExplorationModel restored(core::ExplorerOptions{});
    ASSERT_TRUE(restored.LoadFromStream(&bytes).ok());
    ASSERT_EQ(restored.fingerprint(), original.fingerprint());
    for (int64_t s = 0; s < 2; ++s) {
      ASSERT_NE(original.fpfn_parts(s), nullptr);
      ASSERT_NE(restored.fpfn_parts(s), nullptr);
      EXPECT_EQ(original.fpfn_parts(s)->num_centers(), 8);
      EXPECT_EQ(original.fpfn_parts(s)->has_cells(), s == 0);
      ExpectPartsEqual(*original.fpfn_parts(s), *restored.fpfn_parts(s));
    }
    EXPECT_EQ(restored.fpfn_parts(2), nullptr);
  }
}

TEST(SerializationTest, ModelLoadPreservesConstructedThreadKnob) {
  Rng rng(7);
  data::Table table = data::MakeBlobs(2000, 2, 3, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 20;
  opt.task_gen.k_s = 8;
  opt.task_gen.k_q = 20;
  opt.learner.embedding_size = 8;
  opt.learner.clf_hidden = {8};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 10;
  opt.trainer.epochs = 2;
  opt.trainer.local_steps = 2;
  core::ExplorationModel trained(opt);
  ASSERT_TRUE(trained
                  .Pretrain(table, {data::Subspace{{0, 1}}},
                            /*train_meta=*/false, &rng)
                  .ok());
  const std::string path = testing::TempDir() + "/threads.ltemodel";
  ASSERT_TRUE(trained.Save(path).ok());

  core::ExplorerOptions host_opt;
  host_opt.num_threads = 3;
  host_opt.trainer.num_threads = 2;
  core::ExplorationModel host(host_opt);
  ASSERT_TRUE(host.Load(path).ok());
  EXPECT_EQ(host.options().num_threads, 3);
  EXPECT_EQ(host.options().trainer.num_threads, 2);
  // The serialized hyper-parameters did come from the file.
  EXPECT_EQ(host.options().task_gen.k_s, 8);
}

// The file carries the model's fields only; every other option of the
// loading host (its suggest policy, its trainer schedule) survives Load, so
// its sessions install the host's policy and a refresh retrains with the
// host's trainer.
TEST(SerializationTest, ModelLoadKeepsHostOptionsTheFileDoesNotCarry) {
  Rng rng(8);
  data::Table table = data::MakeBlobs(2000, 2, 3, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 20;
  opt.task_gen.k_s = 8;
  opt.task_gen.k_q = 20;
  core::ExplorationModel trained(opt);
  ASSERT_TRUE(trained
                  .Pretrain(table, {data::Subspace{{0, 1}}},
                            /*train_meta=*/false, &rng)
                  .ok());
  const std::string path = testing::TempDir() + "/host_options.ltemodel";
  ASSERT_TRUE(trained.Save(path).ok());

  core::ExplorerOptions host_opt;
  host_opt.suggest_policy.kind = policy::PolicyKind::kSoftmax;
  host_opt.trainer.epochs = 7;
  core::ExplorationModel host(host_opt);
  ASSERT_TRUE(host.Load(path).ok());
  EXPECT_EQ(host.options().suggest_policy.kind, policy::PolicyKind::kSoftmax);
  EXPECT_EQ(host.options().trainer.epochs, 7);
  EXPECT_EQ(host.options().task_gen.k_s, 8);
}

TEST(SerializationTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/garbage.ltemodel";
  std::ofstream out(path, std::ios::binary);
  out << "this is not a model";
  out.close();
  core::ExplorationModel model(core::ExplorerOptions{});
  const Status s = model.Load(path);
  EXPECT_FALSE(s.ok());
}

TEST(SerializationTest, LoadRejectsMissingFile) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_EQ(model.Load("/nonexistent/dir/model.bin").code(),
            StatusCode::kIoError);
}

TEST(SerializationTest, SaveBeforePretrainFails) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_EQ(model.Save(testing::TempDir() + "/x.ltemodel").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lte
