#include "core/meta_learner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>

#include "core/meta_trainer.h"
#include "data/table.h"
#include "nn/activations.h"
#include "nn/dispatch.h"
#include "nn/loss.h"
#include "preprocess/tabular_encoder.h"

namespace lte::core {
namespace {

MetaLearnerOptions SmallOptions(bool memory) {
  MetaLearnerOptions opt;
  opt.uis_feature_dim = 12;
  opt.tuple_feature_dim = 6;
  opt.embedding_size = 8;
  opt.clf_hidden = {8};
  opt.use_memory = memory;
  opt.num_memory_modes = 4;
  opt.sigma = 0.1;
  return opt;
}

std::vector<double> RandomVec(Rng* rng, int64_t n, bool binary = false) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) {
    x = binary ? (rng->Bernoulli(0.4) ? 1.0 : 0.0) : rng->Uniform();
  }
  return v;
}

// Equal-width dense tuples as full-width code rows (every input a code, in
// ascending order), the input layout of AccumulateBatch.
std::vector<Code> FullWidthCodes(const std::vector<std::vector<double>>& x) {
  std::vector<Code> codes;
  for (const auto& row : x) {
    for (size_t c = 0; c < row.size(); ++c) {
      codes.push_back({static_cast<int64_t>(c), row[c]});
    }
  }
  return codes;
}

// One full-batch training step over `x`, `y` in order.
double AccumulateAll(TaskModel* tm, const std::vector<std::vector<double>>& x,
                     const std::vector<double>& y) {
  TaskModel::BatchScratch scratch;
  const std::vector<Code> codes = FullWidthCodes(x);
  const auto width = static_cast<int64_t>(x.front().size());
  return tm->AccumulateBatch(CodeRows{codes, width}, y, {}, &scratch);
}

TEST(MetaLearnerTest, AttentionIsDistribution) {
  Rng rng(1);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> a = learner.Attention(RandomVec(&rng, 12, true));
  ASSERT_EQ(a.size(), 4u);
  double sum = 0.0;
  for (double x : a) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MetaLearnerTest, AttentionEmptyWithoutMemory) {
  Rng rng(2);
  MetaLearner learner(SmallOptions(false), &rng);
  EXPECT_TRUE(learner.Attention(RandomVec(&rng, 12, true)).empty());
}

TEST(MetaLearnerTest, TaskModelInitializedFromGlobals) {
  Rng rng(3);
  MetaLearner learner(SmallOptions(false), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // Without memory, θ == φ exactly.
  EXPECT_EQ(tm.f_tau().GetParameters(), learner.phi_tau().GetParameters());
  EXPECT_EQ(tm.f_clf().GetParameters(), learner.phi_clf().GetParameters());
  EXPECT_EQ(tm.f_r().GetParameters(), learner.phi_r().GetParameters());
}

TEST(MetaLearnerTest, MemoryBiasesThetaR) {
  Rng rng(4);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // With memory, θ_R = φ_R − σ ω_R ≠ φ_R (ω_R ~ N(0, 0.01) rows, almost
  // surely non-zero).
  EXPECT_NE(tm.f_r().GetParameters(), learner.phi_r().GetParameters());
  // But still close (σ and memory rows are small).
  const std::vector<double> a = tm.f_r().GetParameters();
  const std::vector<double> b = learner.phi_r().GetParameters();
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 0.1);
}

TEST(MetaLearnerTest, ForwardProducesFiniteLogit) {
  Rng rng(5);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
    const double logit = tm.Logit(RandomVec(&rng, 6));
    EXPECT_TRUE(std::isfinite(logit));
    const double p = tm.PredictProbability(RandomVec(&rng, 6));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MetaLearnerTest, TrainingReducesLossOnTinyTask) {
  Rng rng(6);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
    // Tiny synthetic task: label = 1 iff first feature > 0.5.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
      std::vector<double> t = RandomVec(&rng, 6);
      y.push_back(t[0] > 0.5 ? 1.0 : 0.0);
      x.push_back(std::move(t));
    }
    const std::vector<Code> codes = FullWidthCodes(x);
    const CodeRows packed{codes, 6};
    const double before = tm.EvaluateLoss(packed, y);
    TaskModel::BatchScratch scratch;
    for (int step = 0; step < 150; ++step) {
      tm.ZeroGrad();
      tm.AccumulateBatch(packed, y, {}, &scratch);
      tm.ApplyAccumulated(0.3);
    }
    const double after = tm.EvaluateLoss(packed, y);
    EXPECT_LT(after, before) << "memory=" << memory;
    EXPECT_LT(after, 0.4) << "memory=" << memory;
  }
}

// Gradient check of the full composed model (f_R + f_tau + M_cp + f_clf)
// against finite differences, for both memory settings.
TEST(MetaLearnerTest, ComposedGradientsMatchFiniteDifference) {
  Rng rng(7);
  for (bool memory : {false, true}) {
    MetaLearner learner(SmallOptions(memory), &rng);
    const std::vector<double> v_r = RandomVec(&rng, 12, true);
    TaskModel tm = learner.CreateTaskModel(v_r);
    const std::vector<std::vector<double>> x = {RandomVec(&rng, 6)};
    const std::vector<double> y = {1.0};

    tm.ZeroGrad();
    AccumulateAll(&tm, x, y);
    const std::vector<double> g_tau = tm.f_tau().GetGradients();

    // Perturb each f_tau parameter and compare.
    nn::Mlp probe = tm.f_tau();
    const std::vector<double> params = probe.GetParameters();
    const double eps = 1e-6;
    for (size_t i = 0; i < params.size(); i += 11) {
      auto loss_with = [&](double delta) {
        std::vector<double> p = params;
        p[i] += delta;
        TaskModel copy = tm;  // Identical blocks, perturbed f_tau.
        copy.mutable_f_tau()->SetParameters(p);
        const std::vector<Code> codes = FullWidthCodes(x);
        return copy.EvaluateLoss(CodeRows{codes, 6}, y);
      };
      const double numeric = (loss_with(eps) - loss_with(-eps)) / (2 * eps);
      EXPECT_NEAR(g_tau[i], numeric, 1e-5)
          << "param " << i << " memory=" << memory;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-tuple reference: the training step as it ran before batching. Each
// tuple is forwarded on its own with cached activations and backpropagated
// through Matrix::AddOuter / TransposeMatVec, and the step is applied from
// flattened gradient copies. The library's batch step must match it bit for
// bit: every accumulator must see the same additions in the same order.

// Zero gradient entries skipped by the reference's AddOuter calls; lets the
// dead-row case assert that it exercises the skips.
int64_t g_ref_zero_skips = 0;
// Non-finite values the reference met where a code row's skipped inputs
// count: f_tau first-layer outputs (0 * inf or a NaN weight), where the
// library widens its rows for the forward, and gradients reaching f_tau's
// output from above, whose 0 * inf terms the backward's dense rows keep.
int64_t g_ref_tau_nonfinite_outputs = 0;
int64_t g_ref_tau_nonfinite_grads = 0;

int64_t CountNonFinite(const std::vector<double>& v) {
  return std::count_if(v.begin(), v.end(),
                       [](double x) { return !std::isfinite(x); });
}

struct RefLinear {
  nn::Matrix w;
  std::vector<double> b;
  nn::Matrix gw;
  std::vector<double> gb;

  explicit RefLinear(const nn::Linear& l)
      : w(l.weights()),
        b(l.bias()),
        gw(l.weights().rows(), l.weights().cols()),
        gb(l.bias().size(), 0.0) {}

  std::vector<double> Forward(const std::vector<double>& x) const {
    std::vector<double> y = w.MatVec(x);
    for (size_t i = 0; i < y.size(); ++i) y[i] += b[i];
    return y;
  }

  std::vector<double> Backward(const std::vector<double>& x,
                               const std::vector<double>& g) {
    for (const double v : g) g_ref_zero_skips += v == 0.0 ? 1 : 0;
    gw.AddOuter(g, x);
    for (size_t i = 0; i < gb.size(); ++i) gb[i] += g[i];
    return w.TransposeMatVec(g);
  }
};

struct RefMlp {
  struct Cache {
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> pre;
  };
  std::vector<RefLinear> layers;

  explicit RefMlp(const nn::Mlp& m) {
    for (const nn::Linear& l : m.layers()) layers.emplace_back(l);
  }

  std::vector<double> Forward(const std::vector<double>& x,
                              Cache* cache) const {
    std::vector<double> h = x;
    for (size_t i = 0; i < layers.size(); ++i) {
      cache->inputs.push_back(h);
      std::vector<double> z = layers[i].Forward(h);
      cache->pre.push_back(z);
      h = i + 1 < layers.size() ? nn::Relu(z) : std::move(z);
    }
    return h;
  }

  std::vector<double> Backward(const Cache& cache,
                               const std::vector<double>& grad_out) {
    std::vector<double> g = grad_out;
    for (size_t i = layers.size(); i-- > 0;) {
      if (i + 1 < layers.size()) g = nn::ReluBackward(cache.pre[i], g);
      g = layers[i].Backward(cache.inputs[i], g);
    }
    return g;
  }

  std::vector<double> Parameters() const {
    std::vector<double> out;
    for (const RefLinear& l : layers) {
      out.insert(out.end(), l.w.data().begin(), l.w.data().end());
      out.insert(out.end(), l.b.begin(), l.b.end());
    }
    return out;
  }

  std::vector<double> Gradients() const {
    std::vector<double> out;
    for (const RefLinear& l : layers) {
      out.insert(out.end(), l.gw.data().begin(), l.gw.data().end());
      out.insert(out.end(), l.gb.begin(), l.gb.end());
    }
    return out;
  }

  void Apply(double lr) {
    for (RefLinear& l : layers) {
      l.w.AddScaled(l.gw, -lr);
      for (size_t i = 0; i < l.b.size(); ++i) l.b[i] -= lr * l.gb[i];
    }
  }

  void ZeroGrad() {
    for (RefLinear& l : layers) {
      l.gw.Fill(0.0);
      for (double& g : l.gb) g = 0.0;
    }
  }
};

struct RefTaskModel {
  bool use_memory;
  std::vector<double> uis;
  RefMlp r;
  RefMlp tau;
  RefMlp clf;
  nn::Matrix m_cp;
  nn::Matrix g_m_cp;
  std::vector<double> support_grad_r;

  explicit RefTaskModel(const TaskModel& tm)
      : use_memory(tm.m_cp().size() > 0),
        uis(tm.uis_feature()),
        r(tm.f_r()),
        tau(tm.f_tau()),
        clf(tm.f_clf()),
        m_cp(tm.m_cp()),
        g_m_cp(tm.m_cp().rows(), tm.m_cp().cols()),
        support_grad_r(tm.support_grad_r()) {}

  double AccumulateBatch(const std::vector<std::vector<double>>& tuples,
                         const std::vector<double>& labels) {
    const double inv_n = 1.0 / static_cast<double>(tuples.size());
    RefMlp::Cache r_cache;
    const std::vector<double> emb_r = r.Forward(uis, &r_cache);
    const auto ne = static_cast<int64_t>(emb_r.size());
    std::vector<double> g_emb_r_sum(emb_r.size(), 0.0);
    double loss = 0.0;
    for (size_t i = 0; i < tuples.size(); ++i) {
      RefMlp::Cache tau_cache;
      RefMlp::Cache clf_cache;
      const std::vector<double> emb_tau = tau.Forward(tuples[i], &tau_cache);
      std::vector<double> z = emb_r;
      z.insert(z.end(), emb_tau.begin(), emb_tau.end());
      const std::vector<double> c = use_memory ? m_cp.MatVec(z) : z;
      const double logit = clf.Forward(c, &clf_cache)[0];
      loss += inv_n * nn::BceWithLogits(logit, labels[i]);
      const double dlogit = inv_n * nn::BceWithLogitsGrad(logit, labels[i]);
      std::vector<double> g_conv = clf.Backward(clf_cache, {dlogit});
      std::vector<double> g_concat;
      if (use_memory) {
        g_m_cp.AddOuter(g_conv, z);
        g_concat = m_cp.TransposeMatVec(g_conv);
      } else {
        g_concat = std::move(g_conv);
      }
      for (int64_t j = 0; j < ne; ++j) {
        g_emb_r_sum[static_cast<size_t>(j)] += g_concat[static_cast<size_t>(j)];
      }
      const std::vector<double> g_tau(g_concat.begin() + ne, g_concat.end());
      g_ref_tau_nonfinite_outputs += CountNonFinite(tau_cache.pre.front());
      g_ref_tau_nonfinite_grads += CountNonFinite(g_tau);
      tau.Backward(tau_cache, g_tau);
    }
    r.Backward(r_cache, g_emb_r_sum);
    return loss;
  }

  void ApplyAccumulated(double lr, double max_grad_norm) {
    const std::vector<double> gr = r.Gradients();
    for (size_t i = 0; i < gr.size(); ++i) support_grad_r[i] += gr[i];
    double effective_lr = lr;
    if (max_grad_norm > 0.0) {
      double norm_sq = 0.0;
      auto add = [&norm_sq](const std::vector<double>& g) {
        for (double x : g) norm_sq += x * x;
      };
      add(gr);
      add(tau.Gradients());
      add(clf.Gradients());
      if (use_memory) {
        const double m = g_m_cp.FrobeniusNorm();
        norm_sq += m * m;
      }
      const double norm = std::sqrt(norm_sq);
      if (norm > max_grad_norm) effective_lr = lr * max_grad_norm / norm;
    }
    r.Apply(effective_lr);
    tau.Apply(effective_lr);
    clf.Apply(effective_lr);
    if (use_memory) m_cp.AddScaled(g_m_cp, -effective_lr);
    ZeroGrad();
  }

  void ZeroGrad() {
    r.ZeroGrad();
    tau.ZeroGrad();
    clf.ZeroGrad();
    g_m_cp.Fill(0.0);
  }
};

void RefLocallyAdapt(RefTaskModel* model,
                     const std::vector<std::vector<double>>& x,
                     const std::vector<double>& y, int64_t steps,
                     int64_t batch_size, double lr, Rng* rng,
                     double max_grad_norm) {
  const auto n = static_cast<int64_t>(x.size());
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  int64_t cursor = n;
  for (int64_t step = 0; step < steps; ++step) {
    const int64_t take = std::min(batch_size, n);
    std::vector<std::vector<double>> bx;
    std::vector<double> by;
    for (int64_t i = 0; i < take; ++i) {
      if (cursor >= n) {
        rng->Shuffle(&order);
        cursor = 0;
      }
      const int64_t idx = order[static_cast<size_t>(cursor++)];
      bx.push_back(x[static_cast<size_t>(idx)]);
      by.push_back(y[static_cast<size_t>(idx)]);
    }
    model->ZeroGrad();
    model->AccumulateBatch(bx, by);
    model->ApplyAccumulated(lr, max_grad_norm);
  }
}

// Bitwise equality (distinguishes -0.0 from 0.0 and compares NaN payloads).
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &got[i], sizeof(a));
    std::memcpy(&b, &want[i], sizeof(b));
    ASSERT_EQ(a, b) << what << "[" << i << "]: " << got[i] << " vs "
                    << want[i];
  }
}

struct OracleShape {
  const char* name;
  bool use_memory;
  std::vector<int64_t> uis_hidden;
  std::vector<int64_t> tuple_hidden;
  std::vector<int64_t> clf_hidden;
  int64_t embedding_size = 8;
};

// Besides the small shapes: servebench's (N_e 24, clf_hidden {24}), whose
// layers fill whole vector chunks, and N_e 13, which is no multiple of 4,
// so every kernel runs a full chunk and a narrower tail (M_cp's halves are
// 13 wide, plain f_clf reads 26 inputs).
std::vector<OracleShape> OracleShapes() {
  return {{"memory", true, {}, {}, {8}},
          {"plain", false, {}, {}, {8}},
          {"memory-deep", true, {10}, {9, 7}, {8, 6}},
          {"plain-deep", false, {10}, {9, 7}, {8, 6}},
          {"memory-serving", true, {}, {}, {24}, 24},
          {"memory-13", true, {}, {}, {13}, 13},
          {"plain-13", false, {}, {}, {13}, 13}};
}

MetaLearnerOptions OracleOptions(const OracleShape& shape, int64_t width) {
  MetaLearnerOptions opt = SmallOptions(shape.use_memory);
  opt.embedding_size = shape.embedding_size;
  opt.tuple_feature_dim = width;
  opt.uis_hidden = shape.uis_hidden;
  opt.tuple_hidden = shape.tuple_hidden;
  opt.clf_hidden = shape.clf_hidden;
  return opt;
}

// A labelled set of 60 tuples (k_q, MetaTrain's query batch): code rows for
// the library, and the dense rows they expand to for the reference.
struct OracleSet {
  std::string name;
  int64_t width = 0;
  int64_t per_row = 0;
  std::vector<Code> codes;
  std::vector<std::vector<double>> dense;
  std::vector<double> y;

  CodeRows rows() const { return {codes, per_row}; }
};

void ExpandInto(OracleSet* set) {
  for (int64_t r = 0; r < set->rows().num_rows(); ++r) {
    std::vector<double>& dense =
        set->dense.emplace_back(static_cast<size_t>(set->width), 0.0);
    for (const Code& c : set->rows().row(r)) {
      dense[static_cast<size_t>(c.index)] = c.value;
    }
  }
}

// Width-6 code rows laid out like two GMM-only attributes of two buckets:
// inputs 0-1 one-hot, 2 value, 3-4 one-hot, 5 value. Some values are +0.0
// or -0.0. With `dead_rows`, every third tuple's codes are all zero and
// every fifth's far negative, so their hidden ReLUs are dead (biases start
// at zero) and backward meets zero gradients.
OracleSet SyntheticSet(bool dead_rows) {
  Rng rng(29);
  OracleSet set;
  set.name = dead_rows ? "synthetic-dead" : "synthetic";
  set.width = 6;
  set.per_row = 4;
  for (int i = 0; i < 60; ++i) {
    const double zero = i % 2 == 0 ? 0.0 : -0.0;
    double v[4] = {1.0, i % 4 == 1 ? zero : rng.Uniform(), 1.0, rng.Uniform()};
    if (dead_rows && i % 3 == 0) std::fill(v, v + 4, zero);
    if (dead_rows && i % 5 == 0) std::fill(v, v + 4, -50.0);
    set.codes.push_back({rng.UniformInt(2), v[0]});
    set.codes.push_back({2, v[1]});
    set.codes.push_back({3 + rng.UniformInt(2), v[2]});
    set.codes.push_back({5, v[3]});
    set.y.push_back(v[3] > 0.5 ? 1.0 : 0.0);
  }
  ExpandInto(&set);
  return set;
}

// Tuples encoded by an encoder fitted in `mode` on a bimodal and a ramp
// column (under kCategorical the first column holds four categories and
// the ramp is kCombined), so rows carry the encoder's own code counts — 2
// (kMinMaxOnly, already full width), 4, 8 or 5 — and zero-valued codes.
OracleSet EncodedSet(preprocess::EncodingMode mode, const char* name) {
  Rng rng(30);
  const bool categorical = mode == preprocess::EncodingMode::kCategorical;
  data::Table table({"a", "b"});
  for (int i = 0; i < 400; ++i) {
    const double a = categorical    ? static_cast<double>(i % 4)
                     : i % 2 == 0 ? rng.Normal(0.0, 0.5)
                                  : rng.Normal(10.0, 0.5);
    EXPECT_TRUE(table.AppendRow({a, i / 4.0}).ok());
  }
  preprocess::EncoderOptions opt;
  if (categorical) {
    opt.categorical_attributes = {0};
  } else {
    opt.mode = mode;
  }
  preprocess::TabularEncoder encoder(opt);
  EXPECT_TRUE(encoder.Fit(table, &rng).ok());
  // The ramp's range ends, and a value far below it, which clamps to the
  // bottom of its bucket.
  std::vector<std::vector<double>> points = {table.Row(0), table.Row(399),
                                             {table.Row(1)[0], -1000.0}};
  while (points.size() < 60) points.push_back(table.Row(rng.UniformInt(400)));
  OracleSet set;
  set.name = name;
  set.width = encoder.ProjectedWidth({0, 1});
  set.per_row = encoder.ProjectedCodeCount({0, 1});
  encoder.EncodePointsCodesInto({0, 1}, points, &set.codes);
  EXPECT_TRUE(std::any_of(set.codes.begin(), set.codes.end(),
                          [](const Code& c) { return c.value == 0.0; }))
      << name;
  for (const auto& p : points) set.y.push_back(p[1] > 50.0 ? 1.0 : 0.0);
  ExpandInto(&set);
  return set;
}

const std::vector<OracleSet>& OracleSets() {
  using preprocess::EncodingMode;
  static const std::vector<OracleSet> sets = {
      SyntheticSet(false),
      SyntheticSet(true),
      EncodedSet(EncodingMode::kCombined, "combined"),
      EncodedSet(EncodingMode::kGmmOnly, "gmm"),
      EncodedSet(EncodingMode::kJenksOnly, "jenks"),
      EncodedSet(EncodingMode::kMinMaxOnly, "minmax"),
      EncodedSet(EncodingMode::kCategorical, "categorical")};
  return sets;
}

// Weights a fresh task model starts from: as created; with exact-zero and
// -0.0 weights in f_tau's first layer; with a +inf or a NaN one there (the
// library widens its rows for the forward); or with a +inf weight in
// f_clf's last layer, which sends non-finite gradients down to f_tau (the
// backward runs on dense rows, so their 0 * inf terms enter dW).
enum class OddWeights { kNone, kZeros, kTauInf, kTauNan, kClfInf };
constexpr OddWeights kOddWeights[] = {OddWeights::kNone, OddWeights::kZeros,
                                      OddWeights::kTauInf, OddWeights::kTauNan,
                                      OddWeights::kClfInf};

std::string OddName(OddWeights odd) {
  const char* names[] = {"finite", "zeros", "tau-inf", "tau-nan", "clf-inf"};
  return names[static_cast<int>(odd)];
}

void ApplyOddWeights(OddWeights odd, int64_t width, TaskModel* tm) {
  if (odd == OddWeights::kClfInf) {
    std::vector<double> clf = tm->f_clf().GetParameters();
    clf[clf.size() - 2] = std::numeric_limits<double>::infinity();
    tm->mutable_f_clf()->SetParameters(clf);
    return;
  }
  std::vector<double> tau = tm->f_tau().GetParameters();
  const auto w = static_cast<size_t>(width);
  switch (odd) {
    case OddWeights::kZeros:  // W[0][0], W[0][2] and W[1][1].
      tau[0] = -0.0;
      tau[2] = -0.0;
      tau[w + 1] = 0.0;
      break;
    case OddWeights::kTauInf:
      tau[1] = std::numeric_limits<double>::infinity();
      break;
    case OddWeights::kTauNan:
      tau[1] = std::numeric_limits<double>::quiet_NaN();
      break;
    default:
      break;
  }
  tm->mutable_f_tau()->SetParameters(tau);
}

void ExpectModelMatchesReference(const TaskModel& tm, const RefTaskModel& ref,
                                 const std::string& what) {
  ExpectBitEqual(tm.f_r().GetParameters(), ref.r.Parameters(), what + " f_r");
  ExpectBitEqual(tm.f_tau().GetParameters(), ref.tau.Parameters(),
                 what + " f_tau");
  ExpectBitEqual(tm.f_clf().GetParameters(), ref.clf.Parameters(),
                 what + " f_clf");
  ExpectBitEqual(tm.m_cp().data(), ref.m_cp.data(), what + " m_cp");
  ExpectBitEqual(tm.support_grad_r(), ref.support_grad_r,
                 what + " support_grad_r");
}

// The non-finite cases must meet what the wide or dense rows exist for:
// over the whole set, the reference's f_tau met 0 * (non-finite) in its
// first layer, or non-finite gradients from above (a small batch may have
// ReLUs that mask them).
void ExpectNonVacuous(OddWeights odd, const std::string& what) {
  if (odd == OddWeights::kTauInf || odd == OddWeights::kTauNan) {
    EXPECT_GT(g_ref_tau_nonfinite_outputs, 0) << what;
  }
  if (odd == OddWeights::kClfInf) {
    EXPECT_GT(g_ref_tau_nonfinite_grads, 0) << what;
  }
}

// One minibatch step on code rows, indexed out of order with a repeat: the
// loss and every accumulated gradient equal the per-tuple reference on the
// expanded rows bit for bit, with the SSE2 bodies and, where the host has
// AVX2, the AVX2 ones.
TEST(MetaLearnerTest, BatchStepMatchesPerTupleReference) {
  for (const int width : {2, 4}) {
    if (width > nn::KernelWidth()) continue;  // No AVX2 body here.
    nn::ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    for (const OracleShape& shape : OracleShapes()) {
      for (const OracleSet& set : OracleSets()) {
        for (const OddWeights odd : kOddWeights) {
          for (const int64_t batch : {1, 5, 10, 60}) {
            const std::string what = std::string(shape.name) + " " +
                                     set.name + " " + OddName(odd) +
                                     " batch=" + std::to_string(batch);
            Rng rng(31);
            MetaLearner learner(OracleOptions(shape, set.width), &rng);
            TaskModel tm =
                learner.CreateTaskModel(RandomVec(&rng, 12, true));
            ApplyOddWeights(odd, set.width, &tm);
            std::vector<int64_t> rows(60);
            std::iota(rows.begin(), rows.end(), int64_t{0});
            rng.Shuffle(&rows);
            rows.resize(static_cast<size_t>(batch));
            if (batch > 1) rows.back() = rows.front();

            RefTaskModel ref(tm);
            std::vector<std::vector<double>> bx;
            std::vector<double> by;
            for (const int64_t r : rows) {
              bx.push_back(set.dense[static_cast<size_t>(r)]);
              by.push_back(set.y[static_cast<size_t>(r)]);
            }
            g_ref_zero_skips = 0;
            g_ref_tau_nonfinite_outputs = 0;
            g_ref_tau_nonfinite_grads = 0;
            const double want = ref.AccumulateBatch(bx, by);
            if (set.name == "synthetic-dead" && odd == OddWeights::kNone &&
                batch >= 5) {
              EXPECT_GT(g_ref_zero_skips, 0) << what;
            }
            if (batch == 60) ExpectNonVacuous(odd, what);

            TaskModel::BatchScratch scratch;
            tm.ZeroGrad();
            const double got =
                tm.AccumulateBatch(set.rows(), set.y, rows, &scratch);
            ExpectBitEqual({got}, {want}, what + " loss");
            ExpectBitEqual(tm.f_r().GetGradients(), ref.r.Gradients(),
                           what + " grad f_r");
            ExpectBitEqual(tm.f_tau().GetGradients(), ref.tau.Gradients(),
                           what + " grad f_tau");
            ExpectBitEqual(tm.f_clf().GetGradients(), ref.clf.Gradients(),
                           what + " grad f_clf");
            ExpectBitEqual(tm.grad_m_cp().data(), ref.g_m_cp.data(),
                           what + " grad m_cp");
          }
        }
      }
    }
  }
}

// Whole adaptations on code rows: after LocallyAdapt, with and without
// clipping, every parameter, M_cp and the accumulated θ_R support gradient
// equal the per-tuple reference on the expanded rows bit for bit, with the
// training step's SSE2 bodies and, where the host has AVX2, its AVX2 ones.
TEST(MetaLearnerTest, LocallyAdaptMatchesPerTupleReference) {
  for (const int width : {2, 4}) {
    if (width > nn::KernelWidth()) continue;  // No AVX2 body here.
    nn::ScopedKernelWidth scope(width);
    SCOPED_TRACE("kernel width " + std::to_string(width));
    for (const OracleShape& shape : OracleShapes()) {
      for (const OracleSet& set : OracleSets()) {
        for (const OddWeights odd : kOddWeights) {
          for (const int64_t batch : {1, 5, 10, 60}) {
            for (const double max_norm : {1.0, 0.0}) {
              const std::string what =
                  std::string(shape.name) + " " + set.name + " " +
                  OddName(odd) + " batch=" + std::to_string(batch) +
                  " clip=" + std::to_string(max_norm);
              Rng rng(37);
              MetaLearner learner(OracleOptions(shape, set.width), &rng);
              TaskModel tm =
                  learner.CreateTaskModel(RandomVec(&rng, 12, true));
              ApplyOddWeights(odd, set.width, &tm);
              RefTaskModel ref(tm);
              Rng rng_lib(41);
              Rng rng_ref(41);
              LocallyAdapt(&tm, set.rows(), set.y, /*steps=*/7, batch,
                           /*lr=*/0.3, &rng_lib, max_norm);
              RefLocallyAdapt(&ref, set.dense, set.y, 7, batch, 0.3, &rng_ref,
                              max_norm);
              ExpectModelMatchesReference(tm, ref, what);
              EXPECT_EQ(rng_lib.engine()(), rng_ref.engine()()) << what;
            }
          }
        }
      }
    }
  }
}

TEST(MetaLearnerTest, UpdateMemoriesMovesMemoryTowardTask) {
  Rng rng(8);
  MetaLearner learner(SmallOptions(true), &rng);
  const std::vector<double> v_r = RandomVec(&rng, 12, true);
  TaskModel tm = learner.CreateTaskModel(v_r);
  // One local step so support_grad_r is non-zero.
  tm.ZeroGrad();
  AccumulateAll(&tm, {RandomVec(&rng, 6)}, {1.0});
  tm.ApplyAccumulated(0.1);

  const nn::Matrix before = learner.memory_vr();
  learner.UpdateMemories(tm, /*eta=*/0.5, /*beta=*/0.5, /*gamma=*/0.5);
  const nn::Matrix& after = learner.memory_vr();
  // The attended rows blend toward v_R: the matrix must change.
  bool changed = false;
  for (int64_t r = 0; r < before.rows() && !changed; ++r) {
    for (int64_t c = 0; c < before.cols(); ++c) {
      if (before(r, c) != after(r, c)) {
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(MetaLearnerTest, ZeroEtaKeepsMemoryScaled) {
  Rng rng(9);
  MetaLearner learner(SmallOptions(true), &rng);
  TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
  const nn::Matrix before = learner.memory_vr();
  learner.UpdateMemories(tm, /*eta=*/0.0, /*beta=*/0.0, /*gamma=*/0.0);
  // eta = 0 leaves M_vR unchanged.
  for (int64_t r = 0; r < before.rows(); ++r) {
    for (int64_t c = 0; c < before.cols(); ++c) {
      EXPECT_DOUBLE_EQ(before(r, c), learner.memory_vr()(r, c));
    }
  }
}

TEST(MetaLearnerTest, RequiresTupleFeatureDim) {
  Rng rng(10);
  MetaLearnerOptions opt = SmallOptions(false);
  opt.tuple_feature_dim = 0;
  EXPECT_DEATH(MetaLearner(opt, &rng), "tuple_feature_dim");
}

std::vector<uint64_t> Bits(std::span<const double> v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&bits[i], &v[i], sizeof(double));
  }
  return bits;
}

// Code-form tuples of SmallOptions' width 6, laid out like a GMM-only
// attribute with two buckets (inputs 0-1 one-hot, 2 value) and one with two
// (3-4 one-hot, 5 value): four codes per tuple, some values exactly zero.
std::vector<Code> CodeTuples(Rng* rng, int64_t count) {
  std::vector<Code> codes;
  for (int64_t n = 0; n < count; ++n) {
    codes.push_back({rng->UniformInt(2), 1.0});
    codes.push_back({2, n % 4 == 0 ? 0.0 : rng->Uniform()});
    codes.push_back({3 + rng->UniformInt(2), 1.0});
    codes.push_back({5, rng->Uniform()});
  }
  return codes;
}

std::vector<double> Expand(const std::vector<Code>& codes) {
  std::vector<double> dense(codes.size() / 4 * 6, 0.0);
  for (size_t k = 0; k < codes.size(); ++k) {
    dense[k / 4 * 6 + static_cast<size_t>(codes[k].index)] = codes[k].value;
  }
  return dense;
}

// Every code-form batch probability equals PredictProbability on the
// expanded tuple bit for bit, with and without memory, for all rows in
// order and indexed, past one 128-row slice — including with a -0.0 and an
// exactly-zero weight in f_tau's first layer and zero-valued inputs. With a
// +inf or NaN first-layer weight the gather-add would not be exact (0 · inf
// is NaN), and the widened fallback must still match bit for bit.
TEST(MetaLearnerTest, CodeFormBatchMatchesDenseBatch) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool memory : {true, false}) {
    for (const double odd : {-0.0, 0.0, inf, nan}) {
      Rng rng(13);
      MetaLearner learner(SmallOptions(memory), &rng);
      TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
      std::vector<double> params = tm.f_tau().GetParameters();
      params[1] = odd;   // W[0][1]: a one-hot slot.
      params[8] = -0.0;  // W[1][2]: the first value slot.
      tm.mutable_f_tau()->SetParameters(params);
      const int64_t n = 150;
      const std::vector<Code> codes = CodeTuples(&rng, n);
      const std::vector<double> dense = Expand(codes);
      std::vector<double> want(n);
      for (int64_t k = 0; k < n; ++k) {
        want[static_cast<size_t>(k)] = tm.PredictProbability(
            std::vector<double>(dense.begin() + k * 6,
                                dense.begin() + (k + 1) * 6));
      }
      TaskModel::BatchScratch scratch;
      std::vector<double> got(n);
      tm.PredictProbabilityBatch(CodeRows{codes, 4}, n, &scratch, got);
      EXPECT_EQ(Bits(got), Bits(want)) << memory << " " << odd;
      if (std::isnan(odd) || std::isinf(odd)) {
        // Non-vacuity: some tuple's dense f_tau met 0 · (non-finite), which
        // a gather-add would have skipped.
        nn::Mlp::Scratch mlp_scratch;
        EXPECT_FALSE(tm.f_tau().Pack(&mlp_scratch));
        const std::span<const double> emb =
            tm.f_tau().ForwardBatch(dense, n, &mlp_scratch);
        EXPECT_TRUE(std::any_of(emb.begin(), emb.end(),
                                [](double e) { return std::isnan(e); }));
      }
      std::vector<int64_t> rows;
      std::vector<double> want_rows;
      for (int64_t k = 0; k < 131; ++k) {
        rows.push_back((k * 37 + 3) % n);
        want_rows.push_back(want[static_cast<size_t>(rows.back())]);
      }
      got.resize(rows.size());
      tm.PredictProbabilityBatch(CodeRows{codes, 4},
                                 static_cast<int64_t>(rows.size()), &scratch,
                                 got, rows);
      EXPECT_EQ(Bits(got), Bits(want_rows)) << memory << " " << odd;
    }
  }
}

// A code span shorter than count x codes per row must die before the
// batch forward slices past its end.
TEST(MetaLearnerTest, PredictProbabilityBatchRejectsShortInput) {
  Rng rng(12);
  MetaLearner learner(SmallOptions(true), &rng);
  const TaskModel tm = learner.CreateTaskModel(RandomVec(&rng, 12, true));
  TaskModel::BatchScratch scratch;
  std::vector<double> out(3);
  const std::vector<Code> two_tuples = CodeTuples(&rng, 2);
  EXPECT_DEATH(
      tm.PredictProbabilityBatch(CodeRows{two_tuples, 4}, 3, &scratch, out),
      "tuples\\.codes\\.size\\(\\)");
}

}  // namespace
}  // namespace lte::core
