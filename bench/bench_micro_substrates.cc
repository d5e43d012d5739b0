// Google-benchmark micro-benchmarks for the substrate libraries: k-means,
// convex hulls, the tabular encoder, the SMO solver, and the meta-learner's
// forward/adaptation paths. These are not paper figures; they document the
// per-component costs behind the end-to-end numbers (e.g. why Meta*'s online
// phase in Figure 6 is flat: it is `steps x AccumulateBatch`, independent of
// the budget-driven SVM retraining DSM pays). Two block-scan layers, a block
// encode and a batch forward, are timed in dense and code form side by side.
// Two session-lifecycle layers, the FP/FN optimizer's assembly and a
// checkpoint's save and load, sit beside them.

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>

#include "cluster/kmeans.h"
#include "core/lte.h"
#include "data/synthetic.h"
#include "geom/convex_hull.h"
#include "nn/dispatch.h"
#include "preprocess/tabular_encoder.h"
#include "svm/svm.h"

namespace {

std::vector<std::vector<double>> RandomPoints(int64_t n, int64_t dim,
                                              lte::Rng* rng) {
  std::vector<std::vector<double>> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> p(static_cast<size_t>(dim));
    for (double& x : p) x = rng->Uniform();
    pts.push_back(std::move(p));
  }
  return pts;
}

void BM_KMeans(benchmark::State& state) {
  lte::Rng rng(1);
  const auto pts = RandomPoints(state.range(0), 2, &rng);
  lte::cluster::KMeansOptions opt;
  opt.k = 50;
  for (auto _ : state) {
    lte::cluster::KMeansResult res;
    benchmark::DoNotOptimize(lte::cluster::KMeans(pts, opt, &rng, &res));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(4000);

void BM_ConvexHull(benchmark::State& state) {
  lte::Rng rng(2);
  std::vector<lte::geom::Point2> pts;
  for (int64_t i = 0; i < state.range(0); ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lte::geom::ConvexHull(pts));
  }
}
BENCHMARK(BM_ConvexHull)->Arg(64)->Arg(1024);

void BM_RegionContains(benchmark::State& state) {
  lte::Rng rng(3);
  lte::geom::Region region;
  for (int part = 0; part < 4; ++part) {
    std::vector<std::vector<double>> group;
    for (int i = 0; i < 20; ++i) {
      group.push_back({rng.Uniform(), rng.Uniform()});
    }
    region.AddPart(lte::geom::ConvexRegion::HullOf(group));
  }
  const std::vector<double> probe = {0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.Contains(probe));
  }
}
BENCHMARK(BM_RegionContains);

void BM_TabularEncoderFit(benchmark::State& state) {
  lte::Rng rng(4);
  const lte::data::Table table =
      lte::data::MakeSdssLike(state.range(0), &rng);
  for (auto _ : state) {
    lte::preprocess::TabularEncoder enc;
    benchmark::DoNotOptimize(enc.Fit(table, &rng));
  }
}
BENCHMARK(BM_TabularEncoderFit)->Arg(2000)->Arg(8000);

void BM_TabularEncodeRow(benchmark::State& state) {
  lte::Rng rng(5);
  const lte::data::Table table = lte::data::MakeSdssLike(2000, &rng);
  lte::preprocess::TabularEncoder enc;
  if (!enc.Fit(table, &rng).ok()) {
    state.SkipWithError("encoder fit failed");
    return;
  }
  // One full row (all 8 attributes) through the points encoder, as a
  // one-tuple SuggestTuples or ContinueExploration call encodes it.
  const std::vector<std::vector<double>> row = {table.Row(0)};
  const std::vector<int64_t> attrs = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<lte::Code> codes;
  for (auto _ : state) {
    enc.EncodePointsCodesInto(attrs, row, &codes);
    benchmark::DoNotOptimize(codes.data());
  }
}
BENCHMARK(BM_TabularEncodeRow);

// One block-scan encode: 1024 rows of a 2-D kCombined subspace (24 inputs
// per row), read from column views. Arg 0 = dense rows (EncodeGatheredInto),
// 1 = codes (EncodeGatheredCodesInto, the block scan's). Counters are per
// row.
void BM_BlockEncode(benchmark::State& state) {
  lte::Rng rng(9);
  const lte::data::Table table = lte::data::MakeSdssLike(8192, &rng);
  lte::preprocess::TabularEncoder enc;
  if (!enc.Fit(table, &rng).ok()) {
    state.SkipWithError("encoder fit failed");
    return;
  }
  const std::vector<int64_t> attrs = {0, 1};
  const std::vector<lte::data::ColumnView> columns = {table.View(0),
                                                      table.View(1)};
  std::vector<int64_t> rows(1024);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int64_t>(i * 7);
  }
  std::vector<double> dense;
  std::vector<lte::Code> codes;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      enc.EncodeGatheredInto(columns, attrs, rows, &dense);
      benchmark::DoNotOptimize(dense.data());
    } else {
      enc.EncodeGatheredCodesInto(columns, attrs, rows, &codes);
      benchmark::DoNotOptimize(codes.data());
    }
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_BlockEncode)->Arg(0)->Arg(1);

// TaskModel::PredictProbabilityBatch at servebench's shapes (f_tau 24 -> 24,
// N_e 24, clf_hidden {24}, memory on) over the 1024 code rows of
// BM_BlockEncode (f_tau's first layer as a gather-add). Counters are per
// row.
void BM_PredictBatch(benchmark::State& state) {
  lte::Rng rng(10);
  const lte::data::Table table = lte::data::MakeSdssLike(8192, &rng);
  lte::preprocess::TabularEncoder enc;
  if (!enc.Fit(table, &rng).ok()) {
    state.SkipWithError("encoder fit failed");
    return;
  }
  const std::vector<int64_t> attrs = {0, 1};
  const std::vector<lte::data::ColumnView> columns = {table.View(0),
                                                      table.View(1)};
  std::vector<int64_t> rows(1024);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int64_t>(i * 7);
  }
  std::vector<lte::Code> codes;
  enc.EncodeGatheredCodesInto(columns, attrs, rows, &codes);
  lte::core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 50;
  opt.tuple_feature_dim = enc.ProjectedWidth(attrs);
  opt.embedding_size = 24;
  opt.clf_hidden = {24};
  lte::core::MetaLearner learner(opt, &rng);
  std::vector<double> v_r(50);
  for (double& b : v_r) b = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  lte::core::TaskModel tm = learner.CreateTaskModel(v_r);
  tm.WarmUisEmbedding();
  const auto count = static_cast<int64_t>(rows.size());
  const lte::CodeRows code_rows{codes, enc.ProjectedCodeCount(attrs)};
  lte::core::TaskModel::BatchScratch scratch;
  std::vector<double> probs(rows.size());
  for (auto _ : state) {
    tm.PredictProbabilityBatch(code_rows, count, &scratch, probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(count),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_PredictBatch);

void BM_SvmTrain(benchmark::State& state) {
  lte::Rng rng(6);
  const auto x = RandomPoints(state.range(0), 2, &rng);
  std::vector<double> y;
  for (const auto& p : x) y.push_back(p[0] + p[1] > 1.0 ? 1.0 : 0.0);
  for (auto _ : state) {
    lte::svm::Svm svm;
    benchmark::DoNotOptimize(
        svm.Train(x, y, lte::svm::Kernel{}, lte::svm::SmoOptions{}, &rng));
  }
}
BENCHMARK(BM_SvmTrain)->Arg(30)->Arg(105);

// `labels` tuples shaped like the encoder's output at servebench's shapes:
// SDSS-like rows encoded on a 2-D kCombined subspace, 8 codes in a 24-wide
// row, each with a random label.
struct ServingTuples {
  std::vector<lte::Code> codes;
  lte::CodeRows x;
  std::vector<double> y;
  int64_t width = 0;
};

bool MakeServingTuples(int64_t labels, lte::Rng* rng, ServingTuples* out) {
  const lte::data::Table table = lte::data::MakeSdssLike(2000, rng);
  lte::preprocess::TabularEncoder enc;
  if (!enc.Fit(table, rng).ok()) return false;
  const std::vector<int64_t> attrs = {0, 1};
  std::vector<std::vector<double>> points;
  for (int64_t i = 0; i < labels; ++i) {
    const std::vector<double> row = table.Row(rng->UniformInt(2000));
    points.push_back({row[0], row[1]});
    out->y.push_back(rng->Bernoulli(0.5) ? 1.0 : 0.0);
  }
  out->x = enc.EncodePointsCodesInto(attrs, points, &out->codes);
  out->width = enc.ProjectedWidth(attrs);
  return true;
}

// A fresh meta-learner at `opt` for `tuples`, and a UIS feature.
lte::core::MetaLearner MakeLearner(lte::core::MetaLearnerOptions opt,
                                   const ServingTuples& tuples, lte::Rng* rng,
                                   std::vector<double>* v_r) {
  opt.tuple_feature_dim = tuples.width;
  lte::core::MetaLearner learner(opt, rng);
  v_r->resize(static_cast<size_t>(opt.uis_feature_dim));
  for (double& b : *v_r) b = rng->Bernoulli(0.3) ? 1.0 : 0.0;
  return learner;
}

// One LocallyAdapt over `labels` tuples at batch 10 for `steps` steps, with
// a fresh task model per iteration.
void RunAdaptation(benchmark::State& state,
                   lte::core::MetaLearnerOptions opt, int64_t labels,
                   int64_t steps) {
  lte::Rng rng(7);
  ServingTuples tuples;
  if (!MakeServingTuples(labels, &rng, &tuples)) {
    state.SkipWithError("encoder fit failed");
    return;
  }
  std::vector<double> v_r;
  const lte::core::MetaLearner learner = MakeLearner(opt, tuples, &rng, &v_r);
  for (auto _ : state) {
    lte::core::TaskModel tm = learner.CreateTaskModel(v_r);
    lte::core::LocallyAdapt(&tm, tuples.x, tuples.y, steps,
                            /*batch_size=*/10, /*lr=*/0.2, &rng);
    benchmark::DoNotOptimize(tm.support_grad_r().data());
  }
}

// The meta-learner's online fast-adaptation: the per-user cost of LTE's
// online phase (paper Figure 6's flat line). Args: {labels, steps}, batch
// 10. {30, 30} is a start-shaped adaptation; {5, 40} is continue-shaped,
// a few new labels over many steps, so each step's minibatch is all of them.
void BM_TaskModelAdaptation(benchmark::State& state) {
  lte::core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 100;
  opt.embedding_size = 32;
  opt.clf_hidden = {32};
  RunAdaptation(state, opt, state.range(0), state.range(1));
}
BENCHMARK(BM_TaskModelAdaptation)->Args({30, 30})->Args({5, 40});

// The same at servebench's shapes (k_u 50, tuple width 24, N_e 24,
// clf_hidden {24}, 40 steps): {30, 40} is a start's adaptation, {5, 40} a
// continue's.
void BM_TaskModelAdaptationServing(benchmark::State& state) {
  lte::core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 50;
  opt.embedding_size = 24;
  opt.clf_hidden = {24};
  RunAdaptation(state, opt, state.range(0), state.range(1));
}
BENCHMARK(BM_TaskModelAdaptationServing)->Args({30, 40})->Args({5, 40});

// One training step at servebench's shapes (k_u 50, tuple width 24, N_e 24,
// clf_hidden {24}): TaskModel::AccumulateBatch over a minibatch of
// `count` tuples, then ApplyAccumulated with LocallyAdapt's clipping. A
// continue's minibatch is at most 10 tuples; 60 is a meta-training query
// set. Every 40 steps (servebench's online_steps) the task model is reset
// to its start, so the parameters stay in an adaptation's range; the reset
// is a copy into the model's own buffers and is timed with the steps.
void BM_TaskModelStep(benchmark::State& state) {
  const int64_t count = state.range(0);
  lte::Rng rng(11);
  ServingTuples tuples;
  if (!MakeServingTuples(count, &rng, &tuples)) {
    state.SkipWithError("encoder fit failed");
    return;
  }
  lte::core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 50;
  opt.embedding_size = 24;
  opt.clf_hidden = {24};
  std::vector<double> v_r;
  const lte::core::TaskModel start =
      MakeLearner(opt, tuples, &rng, &v_r).CreateTaskModel(v_r);
  lte::core::TaskModel tm = start;
  lte::core::TaskModel::BatchScratch scratch;
  int64_t step = 0;
  for (auto _ : state) {
    if (++step % 40 == 0) tm = start;
    benchmark::DoNotOptimize(
        tm.AccumulateBatch(tuples.x, tuples.y, {}, &scratch));
    tm.ApplyAccumulated(/*lr=*/0.2, /*max_grad_norm=*/1.0);
  }
}
BENCHMARK(BM_TaskModelStep)->Arg(5)->Arg(10)->Arg(60);

void BM_TaskModelPredict(benchmark::State& state) {
  lte::Rng rng(8);
  lte::core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 100;
  opt.tuple_feature_dim = 26;
  opt.embedding_size = 32;
  opt.clf_hidden = {32};
  lte::core::MetaLearner learner(opt, &rng);
  std::vector<double> v_r(100);
  for (double& b : v_r) b = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  lte::core::TaskModel tm = learner.CreateTaskModel(v_r);
  const auto x = RandomPoints(1, 26, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm.PredictProbability(x[0]));
  }
}
BENCHMARK(BM_TaskModelPredict);

// The FP/FN optimizer a Meta* session start or restore builds, at
// servebench's shapes: k_u 50, k_s 25, a 2-D subspace of SDSS-like rows with
// its value box, 12 of the 25 centers labelled positive. Arg 0 assembles it
// from the subspace's prebuilt parts (what a session pays); 1 builds the
// parts too, every hull and every part's settling table (what the model
// pays once per subspace).
void BM_FpFnAssemble(benchmark::State& state) {
  lte::Rng rng(13);
  const lte::data::Table table = lte::data::MakeSdssLike(4000, &rng);
  const std::vector<int64_t> attrs = {0, 1};
  std::vector<std::vector<double>> points;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    points.push_back(table.RowProjected(r, attrs));
  }
  lte::core::MetaTaskGenOptions gen;
  gen.k_u = 50;
  gen.k_s = 25;
  gen.k_q = 60;
  lte::core::MetaTaskGenerator generator(gen);
  if (!generator.Init(points, &rng).ok()) {
    state.SkipWithError("clustering failed");
    return;
  }
  const lte::geom::Box box{table.column(0).min(), table.column(0).max(),
                           table.column(1).min(), table.column(1).max()};
  std::vector<double> labels(25, 0.0);
  for (size_t s = 0; s < 25; s += 2) labels[s] = 1.0;
  labels[24] = 0.0;  // 12 positive.
  const lte::core::FpFnOptions options;
  const lte::core::FpFnParts parts(generator.context(), options, box);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      const lte::core::FpFnOptimizer opt(parts, labels);
      benchmark::DoNotOptimize(opt.cells().data());
    } else {
      const lte::core::FpFnOptimizer opt(generator.context(), labels, options,
                                         box);
      benchmark::DoNotOptimize(opt.cells().data());
    }
  }
}
BENCHMARK(BM_FpFnAssemble)->Arg(0)->Arg(1);

// A Meta* session's checkpoint in memory at servebench's model shapes
// (4 subspaces of SDSS-like rows, k_u 50, k_s 25, k_q 60, N_e 24,
// clf_hidden {24}; a short meta-training, which sizes nothing): started
// with about half the labels positive, then one 5-tuple continue per
// subspace. Arg 0 times SaveToStream into a string stream, 1 times
// LoadFromStream of those bytes into a fresh session, the FP/FN assembly
// included.
void BM_SessionSaveLoad(benchmark::State& state) {
  lte::Rng rng(17);
  const lte::data::Table table = lte::data::MakeSdssLike(4000, &rng);
  lte::core::ExplorerOptions o;
  o.task_gen.k_u = 50;
  o.task_gen.k_s = 25;
  o.task_gen.k_q = 60;
  o.task_gen.delta = 5;
  o.learner.embedding_size = 24;
  o.learner.clf_hidden = {24};
  o.num_meta_tasks = 10;
  o.trainer.epochs = 1;
  o.num_threads = 1;
  auto model = std::make_shared<lte::core::ExplorationModel>(o);
  const std::vector<lte::data::Subspace> subspaces = {
      {{0, 1}}, {{2, 3}}, {{4, 5}}, {{6, 7}}};
  if (!model->Pretrain(table, subspaces, /*train_meta=*/true, &rng).ok()) {
    state.SkipWithError("pretrain failed");
    return;
  }
  std::vector<std::vector<double>> labels(subspaces.size());
  for (size_t s = 0; s < subspaces.size(); ++s) {
    const auto tuples = model->InitialTuples(static_cast<int64_t>(s));
    for (size_t i = 0; i < tuples->size(); ++i) {
      labels[s].push_back(rng.Bernoulli(0.5) ? 1.0 : 0.0);
    }
  }
  lte::core::ExplorationSession session(model);
  session.SeedRng(5);
  bool ok = session
                .StartExploration(labels, lte::core::Variant::kMetaStar,
                                  session.session_rng())
                .ok();
  for (int64_t s = 0; ok && s < 4; ++s) {
    const std::vector<std::vector<double>> points(
        model->InitialTuples(s)->begin(), model->InitialTuples(s)->begin() + 5);
    const std::vector<double> y(labels[static_cast<size_t>(s)].begin(),
                                labels[static_cast<size_t>(s)].begin() + 5);
    ok = session.ContinueExploration(s, points, y, session.session_rng()).ok();
  }
  std::ostringstream saved(std::ios::binary);
  if (!ok || !session.SaveToStream(&saved).ok()) {
    state.SkipWithError("session setup failed");
    return;
  }
  const std::string bytes = saved.str();
  for (auto _ : state) {
    if (state.range(0) == 0) {
      std::ostringstream out(std::ios::binary);
      benchmark::DoNotOptimize(session.SaveToStream(&out));
    } else {
      lte::core::ExplorationSession restored(model);
      std::istringstream in(bytes, std::ios::binary);
      benchmark::DoNotOptimize(restored.LoadFromStream(&in));
    }
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SessionSaveLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

// BENCHMARK_MAIN, plus the dispatched kernel width (4 = AVX2, 2 = SSE2 or
// generic vectors) in the context every report carries, JSON included.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("kernel_width",
                              std::to_string(lte::nn::KernelWidth()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
