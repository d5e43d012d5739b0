#include "fixture.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "data/sampling.h"
#include "data/synthetic.h"
#include "eval/oracle.h"
#include "trace.h"

namespace servebench {

std::unique_ptr<Corpus> BuildCorpus() {
  auto corpus = std::make_unique<Corpus>();
  Rng rng(kCorpusSeed);
  const data::Table raw = data::MakeSdssLike(kTableRows, &rng);
  if (!corpus->normalizer.Fit(raw).ok()) return nullptr;
  corpus->table = data::Table(raw.AttributeNames());
  for (int64_t r = 0; r < raw.num_rows(); ++r) {
    if (!corpus->table.AppendRow(corpus->normalizer.TransformRow(raw.Row(r)))
             .ok()) {
      return nullptr;
    }
  }
  corpus->subspaces = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}},
                       data::Subspace{{4, 5}}, data::Subspace{{6, 7}}};

  core::ExplorerOptions& o = corpus->options;
  o.task_gen.k_u = 50;
  o.task_gen.k_s = 25;  // Budget k_s + delta = 30 labels per subspace.
  o.task_gen.k_q = 60;
  o.task_gen.delta = 5;
  o.task_gen.alpha = 4;
  o.task_gen.psi = 10;
  o.learner.embedding_size = 24;
  o.learner.clf_hidden = {24};
  o.num_meta_tasks = 100;
  o.trainer.epochs = 10;
  o.trainer.num_threads = kTrainerThreads;
  o.num_threads = kPretrainThreads;
  o.online_steps = 40;
  o.online_batch_size = 10;
  o.online_lr = 0.2;

  corpus->generator = std::make_unique<eval::UirGenerator>(o.task_gen);
  Rng generator_rng = rng.Fork(1);
  if (!corpus->generator
           ->Init(corpus->table, corpus->subspaces, &generator_rng)
           .ok()) {
    return nullptr;
  }
  return corpus;
}

std::vector<User> MakeUsers(const Corpus& corpus, int64_t n, Rng* rng) {
  const std::vector<eval::UisMode> modes = eval::BenchmarkModes();
  std::vector<User> users(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    User& user = users[static_cast<size_t>(u)];
    user.uir = corpus.generator->Generate(
        modes[static_cast<size_t>(u) % modes.size()], rng);
    user.session_seed = static_cast<uint64_t>(rng->UniformInt(1 << 30));
    const eval::Oracle oracle(&user.uir, &corpus.table);
    for (int64_t k = 0; k < kTurns; ++k) {
      TurnInput turn;
      turn.subspace = k % static_cast<int64_t>(corpus.subspaces.size());
      const auto& attrs =
          corpus.subspaces[static_cast<size_t>(turn.subspace)].attribute_indices;
      for (int64_t r : data::SampleRowIndices(corpus.table, kCandidates, rng)) {
        turn.candidates.push_back(corpus.table.RowProjected(r, attrs));
        turn.labels.push_back(
            oracle.LabelSubspacePoint(turn.subspace, turn.candidates.back()));
      }
      user.turns.push_back(std::move(turn));
    }
  }
  return users;
}

void LabelStartTuples(const core::ExplorationModel& model,
                      const data::Table& table, std::vector<User>* users) {
  for (User& user : *users) {
    const eval::Oracle oracle(&user.uir, &table);
    user.start_labels.assign(static_cast<size_t>(model.num_subspaces()), {});
    for (int64_t s = 0; s < model.num_subspaces(); ++s) {
      for (const auto& tuple : *model.InitialTuples(s)) {
        user.start_labels[static_cast<size_t>(s)].push_back(
            oracle.LabelSubspacePoint(s, tuple));
      }
    }
  }
}

std::vector<std::vector<std::vector<double>>> MakeAppendBatches(
    const Corpus& corpus, int64_t count, int64_t rows, Rng* rng) {
  const data::Table raw = data::MakeSdssLike(count * rows, rng);
  std::vector<std::vector<std::vector<double>>> batches(
      static_cast<size_t>(count));
  for (int64_t r = 0; r < raw.num_rows(); ++r) {
    batches[static_cast<size_t>(r / rows)].push_back(
        corpus.normalizer.TransformRow(raw.Row(r)));
  }
  return batches;
}

std::shared_ptr<core::ExplorationModel> NewModel(const Corpus& corpus) {
  return std::make_shared<core::ExplorationModel>(corpus.options);
}

bool Ops::Record(const Status& s) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (s.ok()) return true;
  if (failed.fetch_add(1) < 5) {
    std::fprintf(stderr, "servebench: operation failed: %s\n",
                 s.ToString().c_str());
  }
  return false;
}

void Ops::Fail(const std::string& what) {
  attempted.fetch_add(1);
  if (failed.fetch_add(1) < 5) {
    std::fprintf(stderr, "servebench: check failed: %s\n", what.c_str());
  }
}

bool StartUser(core::ExplorationSession* session, const User& user,
               std::vector<int64_t>* picked, Ops* ops) {
  {
    const Span span("core.start_exploration");
    if (!ops->Record(session->StartExploration(user.start_labels,
                                               core::Variant::kMetaStar,
                                               session->session_rng()))) {
      return false;
    }
  }
  const TurnInput& first = user.turns.front();
  const Span span("policy.suggest");
  return ops->Record(session->SuggestTuples(first.subspace, first.candidates,
                                            kSuggestK, picked));
}

bool ContinueUser(core::ExplorationSession* session, const User& user,
                  int64_t k, const data::Table* table,
                  std::vector<int64_t>* picked, Ops* ops) {
  const TurnInput& last = user.turns[static_cast<size_t>(k - 1)];
  std::vector<std::vector<double>> points;
  std::vector<double> labels;
  for (int64_t i : *picked) {
    points.push_back(last.candidates[static_cast<size_t>(i)]);
    labels.push_back(last.labels[static_cast<size_t>(i)]);
  }
  {
    const Span span("core.continue_exploration");
    if (!ops->Record(session->ContinueExploration(
            last.subspace, points, labels, session->session_rng()))) {
      return false;
    }
  }
  const TurnInput& next = user.turns[static_cast<size_t>(k % kTurns)];
  {
    const Span span("policy.suggest");
    if (!ops->Record(session->SuggestTuples(next.subspace, next.candidates,
                                            kSuggestK, picked))) {
      return false;
    }
  }
  return table == nullptr || Preview(*session, *table, ops);
}

bool Preview(const core::ExplorationSession& session, const data::Table& table,
             Ops* ops) {
  const Span span("core.preview_retrieve");
  std::vector<int64_t> preview;
  return ops->Record(session.RetrieveMatches(table, kPreviewLimit, &preview));
}

std::vector<uint8_t> TruthBitmap(const eval::GroundTruthUir& uir,
                                 const data::Table& table) {
  std::vector<uint8_t> truth(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    truth[static_cast<size_t>(r)] = uir.Contains(table.Row(r)) ? 1 : 0;
  }
  return truth;
}

double MatchF1(const std::vector<int64_t>& matches,
               const std::vector<uint8_t>& truth, int64_t n) {
  int64_t positives = 0;
  for (int64_t r = 0; r < n; ++r) positives += truth[static_cast<size_t>(r)];
  int64_t tp = 0;
  for (int64_t r : matches) tp += truth[static_cast<size_t>(r)];
  const int64_t denom = positives + static_cast<int64_t>(matches.size());
  return denom == 0 ? 1.0 : 2.0 * static_cast<double>(tp) / denom;
}

void ParallelStripes(int64_t n, int64_t threads,
                     const std::function<void(int64_t)>& fn) {
  std::vector<std::thread> pool;
  for (int64_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int64_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace servebench
