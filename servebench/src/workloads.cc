#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "data/column_view.h"
#include "data/sampling.h"
#include "eval/oracle.h"
#include "fixture.h"
#include "serving/coalesced_scan_scheduler.h"
#include "serving/live_refresh.h"
#include "serving/model_registry.h"
#include "serving/session_manager.h"
#include "trace.h"

namespace servebench {
namespace {

namespace serving = lte::serving;

// Workload shapes (see servebench/README.md for why each was chosen).
constexpr int64_t kExploreClients = 2;
constexpr int64_t kEvalUsers = 256;  // explore_loop users scored for match_f1
constexpr int64_t kScanClients = 4;
constexpr int64_t kScanLanes = 2;  // CoalescedScanOptions.num_threads
constexpr int64_t kPoolUsers = 128;
constexpr int64_t kChurnClients = 2;
constexpr int64_t kChurnUsers = 192;      // N (assumed; see README)
constexpr int64_t kChurnResident = 24;    // K (assumed; see README)
// Popularity skew: YCSB's default Zipfian constant (Cooper et al., SoCC
// 2010). No published trace of exploration-session popularity was found, so
// this is an assumption, not a measurement.
constexpr double kZipfExponent = 0.99;
constexpr int64_t kControlStride = 16;    // every 16th churn user is checked
constexpr int64_t kFlushDeadlineMicros = 20000;
constexpr int64_t kIngestClients = 2;
constexpr int64_t kIngestLanes = 1;
constexpr int64_t kScansPerAppend = 24;   // ingest gate: scans per epoch
// Small enough that the table grows ~18 % over a run: the rounds then see
// similar table sizes, so their median is not just the middle round's.
constexpr int64_t kIngestAppendRows = 64;
// append_p50_ms on the workloads without appends of their own.
constexpr int64_t kProbeAppends = 48;
constexpr size_t kProbeChunkAppends = 6;
constexpr int64_t kProbePaceMs = 50;  // 48 appends over ~2.4 s
constexpr int64_t kProbeAppendRows = 256;
constexpr int64_t kReplaySessions = 8;    // sessions replayed block by block
constexpr int64_t kCensusUsers = 8;
constexpr int64_t kOverheadRequests = 24;
// The measured phase runs its script in this many barrier-separated rounds;
// throughput, latency percentiles and CPU per request are per-round medians.
constexpr int64_t kRounds = 5;
// session_churn draws a fresh popularity order per round (see SessionChurn),
// so each round is an independent sample of which users are hot; 10 rounds
// of ~230 requests keep >= 20 samples beyond each round's p90.
constexpr int64_t kChurnRounds = 10;

/// First job of round `r` when jobs [begin, end) run in `rounds` rounds.
int64_t RoundBegin(int64_t begin, int64_t end, int64_t rounds, int64_t r) {
  return begin + (end - begin) * r / rounds;
}

std::string UserId(int64_t u) { return "user" + std::to_string(u); }

/// Times one user-visible request: a root span plus its latency.
template <typename Fn>
void TimedRequest(const char* name, std::vector<double>* latencies_ms, Fn&& fn) {
  const double start = NowSeconds();
  {
    const Span root(name, Tracer::NewRequest());
    fn();
  }
  latencies_ms->push_back((NowSeconds() - start) * 1000.0);
}

using SessionPtr = std::unique_ptr<core::ExplorationSession>;
using ModelHandle = std::shared_ptr<const core::ExplorationModel>;

/// Setup adapts: each pool user explores (start + kTurns turns, no preview)
/// on one of kSetupThreads threads.
std::vector<SessionPtr> AdaptPool(
    const std::shared_ptr<core::ExplorationModel>& model,
    const std::vector<User>& users, int64_t count, Ops* ops) {
  std::vector<SessionPtr> pool(static_cast<size_t>(count));
  ParallelStripes(count, kSetupThreads, [&](int64_t u) {
    const User& user = users[static_cast<size_t>(u)];
    auto session =
        std::make_unique<core::ExplorationSession>(model, kSessionThreads);
    session->SeedRng(user.session_seed);
    std::vector<int64_t> picked;
    bool ok = StartUser(session.get(), user, &picked, ops);
    for (int64_t k = 1; ok && k <= kTurns; ++k) {
      ok = ContinueUser(session.get(), user, k, nullptr, &picked, ops);
    }
    pool[static_cast<size_t>(u)] = std::move(session);
  });
  return pool;
}

struct LayerValue {
  double value = 0.0;
  std::string source;  // "workload", "census", "setup", "replay", "probe".
};
using Layers = std::map<std::string, LayerValue>;

/// Scheduler knobs of the scan workloads: `lanes` pass lanes, and a pass
/// starts once each of `clients` closed-loop clients has submitted, so every
/// pass carries one request per client and serving.requests_per_pass cannot
/// move on these workloads. The 20 ms deadline fires only when a client is
/// preempted. Under the library's default pass forming (flush 200 us after
/// the oldest queued request) the clients split into a group whose pass runs
/// and a group that waits, and whether a returning group caught the waiting
/// one held for a whole run: 5 runs of retrieve_scan on a 4-vCPU shared VM
/// averaged 2.2 to 3.4 requests per pass and 73 to 95 requests/s, and 15
/// rounds instead of 5 did not steady it.
serving::CoalescedScanOptions PinnedScanOptions(int64_t lanes, int64_t clients) {
  serving::CoalescedScanOptions options;
  options.num_threads = lanes;
  options.max_batch_requests = clients;
  options.flush_deadline_micros = kFlushDeadlineMicros;
  return options;
}

using Batches = std::vector<std::vector<std::vector<double>>>;

/// Appends to shadow copies of the corpus table through a
/// DriftRefreshController, for append_p50_ms on the workloads without
/// appends of their own. The probe runs after the measured rounds, so the
/// timed traffic is only the workload's own, one append every kProbePaceMs.
/// Spreading the samples over ~2.4 s is what steadies them: the host runs a
/// 0.2 ms kernel in a fast or a slow mode (0.13 vs 0.21 ms on a 4-vCPU
/// shared VM) whose mix drifts over seconds, and a burst of all 48 appends,
/// on one thread or on four, or 48 appends within a 1 s warm-up, moved the
/// median by 18-27 % between runs. Each chunk of kProbeChunkAppends batches
/// starts from a fresh copy, so every sample sees a table of 8192 to ~9.7k
/// rows, ingest_scan's range. No reader touches the shadow tables.
struct AppendProbe {
  std::vector<double> append_ms;
  int64_t segments = 0;   // Of the last chunk's table.
  int64_t refreshes = 0;  // Over all chunks.
};

AppendProbe ProbeAppends(const Corpus& corpus, const ModelHandle& model,
                         const Batches& batches, Ops* ops) {
  AppendProbe probe;
  for (size_t first = 0; first < batches.size(); first += kProbeChunkAppends) {
    data::Table shadow = corpus.table;
    serving::ModelRegistry registry(model);
    serving::DriftRefreshController controller(&registry, &shadow, corpus.subspaces);
    for (size_t k = first; k < std::min(batches.size(), first + kProbeChunkAppends);
         ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbePaceMs));
      const double start = NowSeconds();
      {
        const Span span("live_refresh.append", Tracer::NewRequest());
        ops->Record(controller.AppendAndObserve(batches[k]));
      }
      probe.append_ms.push_back((NowSeconds() - start) * 1000.0);
    }
    probe.segments = shadow.num_segments();
    probe.refreshes += controller.stats().refreshes_triggered;
  }
  return probe;
}

/// Bare Table::AppendRows latency of `batches` on shadow copies of the
/// corpus table, chunked as in ProbeAppends: AppendAndObserve minus this is
/// the drift detector's cost.
std::vector<double> BareAppendMs(const Corpus& corpus, const Batches& batches,
                                 Ops* ops) {
  std::vector<double> ms;
  for (size_t begin = 0; begin < batches.size(); begin += kProbeChunkAppends) {
    const size_t end = std::min(batches.size(), begin + kProbeChunkAppends);
    data::Table bare = corpus.table;
    for (size_t k = begin; k < end; ++k) {
      const double start = NowSeconds();
      ops->Record(bare.AppendRows(batches[k]));
      ms.push_back((NowSeconds() - start) * 1000.0);
    }
  }
  return ms;
}

/// Block-by-block replay of full-table retrievals: the same survivor →
/// gather → encode → score loop the scan paths run, timed per 1024-row block
/// through the public encoder and ScoreEncodedBlock. Its matches must equal
/// the session's own RetrieveMatches.
struct ReplayResult {
  std::vector<double> encode_block_us;
  std::vector<double> score_block_us;
  double rows_scored_per_request = 0.0;
  double survivor_share = 0.0;
  double match_share = 0.0;
};

ReplayResult BlockReplay(const std::vector<const core::ExplorationSession*>& sessions,
                         const data::Table& table, Ops* ops) {
  ReplayResult result;
  int64_t rows_scored = 0;
  int64_t matched = 0;
  int64_t possible = 0;
  const int64_t n = table.num_rows();
  for (const core::ExplorationSession* session : sessions) {
    if (!ops->Record(session->ValidateServing(table))) continue;
    const core::ExplorationModel& model = session->model();
    const int64_t active = session->active_subspaces();
    std::vector<std::vector<data::ColumnView>> columns(static_cast<size_t>(active));
    for (int64_t s = 0; s < active; ++s) {
      for (int64_t a : model.subspace(s)->attribute_indices) {
        columns[static_cast<size_t>(s)].push_back(table.View(a));
      }
    }
    std::vector<int64_t> survivors, next, matches;
    std::vector<double> encoded, out, point;
    core::TaskModel::BatchScratch batch;
    for (int64_t begin = 0; begin < n; begin += core::kServingBlockRows) {
      const int64_t end = std::min(n, begin + core::kServingBlockRows);
      survivors.resize(static_cast<size_t>(end - begin));
      std::iota(survivors.begin(), survivors.end(), begin);
      double encode_us = 0.0;
      double score_us = 0.0;
      for (int64_t s = 0; s < active && !survivors.empty(); ++s) {
        const auto& attrs = model.subspace(s)->attribute_indices;
        double t0 = NowSeconds();
        model.encoder().EncodeGatheredInto(columns[static_cast<size_t>(s)],
                                           attrs, survivors, &encoded);
        double t1 = NowSeconds();
        out.resize(survivors.size());
        session->ScoreEncodedBlock(s, encoded, survivors,
                                   columns[static_cast<size_t>(s)], &batch,
                                   &point, out);
        double t2 = NowSeconds();
        encode_us += (t1 - t0) * 1e6;
        score_us += (t2 - t1) * 1e6;
        rows_scored += static_cast<int64_t>(survivors.size());
        next.clear();
        for (size_t i = 0; i < survivors.size(); ++i) {
          if (out[i] >= 0.5) next.push_back(survivors[i]);
        }
        std::swap(survivors, next);
      }
      matches.insert(matches.end(), survivors.begin(), survivors.end());
      result.encode_block_us.push_back(encode_us);
      result.score_block_us.push_back(score_us);
    }
    std::vector<int64_t> direct;
    if (ops->Record(session->RetrieveMatches(table, -1, &direct)) &&
        direct != matches) {
      ops->Fail("block replay differs from RetrieveMatches");
    }
    matched += static_cast<int64_t>(matches.size());
    possible += n * active;
  }
  if (!sessions.empty()) {
    const auto count = static_cast<double>(sessions.size());
    result.rows_scored_per_request = static_cast<double>(rows_scored) / count;
    result.survivor_share =
        possible > 0 ? static_cast<double>(rows_scored) / possible : 0.0;
    result.match_share = static_cast<double>(matched) / (count * n);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Workloads. A workload draws its traffic once, is built by every setup, and
// serves "jobs" from a fixed script: job j always carries the same inputs,
// whichever client runs it (closed loop).

class Workload {
 public:
  Workload(const Corpus& corpus, const BenchOptions& options)
      : corpus_(corpus), options_(options) {}
  virtual ~Workload() = default;

  virtual int64_t clients() const = 0;
  /// Script jobs per second of --seconds: fixes the work of a run, sized so
  /// that the measured phase lasts about --seconds on a 4-core host.
  virtual double jobs_per_second() const = 0;
  virtual int64_t warmup_jobs() const = 0;
  /// Barrier-separated rounds of the measured phase.
  virtual int64_t rounds() const { return kRounds; }
  /// One-line description of the pinned knobs and sizes.
  virtual std::string Describe() const = 0;
  /// Draws the traffic for `jobs` jobs (input generation; untimed).
  virtual void MakeInputs(int64_t jobs, Rng* rng) = 0;
  /// Builds the serving state on model_ (timed as part of setup_s).
  virtual void Build(Ops* ops) = 0;
  /// Drops all serving state, dependents first.
  virtual void Teardown() = 0;
  virtual void Serve(int64_t job, Ops* ops, std::vector<double>* latencies_ms) = 0;
  /// Sharded workloads bind each job to one client (ClientOf); the others
  /// let clients take the next job of the round from a shared counter.
  virtual bool sharded() const { return false; }
  virtual int64_t ClientOf(int64_t /*job*/) const { return 0; }
  virtual void BeginPhase(int64_t /*begin*/, int64_t /*end*/, bool /*measured*/,
                          Ops* /*ops*/) {}
  virtual void EndPhase() {}
  /// Output checks after the measured phase (untimed); returns match_f1.
  virtual double Check(Ops* ops) = 0;
  /// Adapted sessions for the block replay.
  virtual std::vector<const core::ExplorationSession*> ReplaySessions() const = 0;
  /// The table requests scan.
  virtual const data::Table& table() const { return corpus_.table; }
  /// Per-layer metrics only this workload's traced phase can give.
  virtual void NativeLayers(Layers* /*layers*/) {}
  /// True when the workload appends rows itself; MeasuredAppendsMs then
  /// returns the latencies of the last measured phase's appends.
  virtual bool appends() const { return false; }
  virtual std::vector<double> MeasuredAppendsMs() const { return {}; }

  const std::vector<User>& users() const { return users_; }
  std::vector<User>* mutable_users() { return &users_; }
  void set_model(std::shared_ptr<core::ExplorationModel> model) {
    model_ = std::move(model);
  }
  ModelHandle model() const { return model_; }
  double adapt_seconds() const { return adapt_seconds_; }

 protected:
  const Corpus& corpus_;
  const BenchOptions& options_;
  std::vector<User> users_;
  std::shared_ptr<core::ExplorationModel> model_;
  double adapt_seconds_ = 0.0;
};

// explore_loop: fresh users run the whole interactive loop. Adapt/train
// dominates; the scan only serves small previews.
class ExploreLoop : public Workload {
 public:
  using Workload::Workload;
  int64_t clients() const override { return kExploreClients; }
  double jobs_per_second() const override { return 38.0; }
  int64_t warmup_jobs() const override { return 6; }
  std::string Describe() const override {
    return "closed loop, 2 clients; request = one turn (turn 0 start+suggest, "
           "turns 1..5 continue+suggest+preview)";
  }

  void MakeInputs(int64_t jobs, Rng* rng) override {
    users_ = MakeUsers(corpus_, jobs, rng);
    stride_ = std::max<int64_t>(1, (jobs - warmup_jobs()) / kEvalUsers);
    kept_.clear();
    kept_.resize(static_cast<size_t>(jobs));
  }
  void Build(Ops* /*ops*/) override {}
  void Teardown() override {
    for (SessionPtr& session : kept_) session.reset();
  }

  void Serve(int64_t job, Ops* ops, std::vector<double>* latencies_ms) override {
    const User& user = users_[static_cast<size_t>(job)];
    SessionPtr session;
    std::vector<int64_t> picked;
    bool ok = true;
    TimedRequest("explore_loop.request", latencies_ms, [&] {
      session = std::make_unique<core::ExplorationSession>(model_, kSessionThreads);
      session->SeedRng(user.session_seed);
      ok = StartUser(session.get(), user, &picked, ops);
    });
    for (int64_t k = 1; ok && k <= kTurns; ++k) {
      TimedRequest("explore_loop.request", latencies_ms, [&] {
        ok = ContinueUser(session.get(), user, k, &corpus_.table, &picked, ops);
      });
    }
    if (job >= warmup_jobs() && (job - warmup_jobs()) % stride_ == 0) {
      kept_[static_cast<size_t>(job)] = std::move(session);
    }
  }

  double Check(Ops* ops) override {
    std::vector<int64_t> evaluated;
    for (size_t j = 0; j < kept_.size(); ++j) {
      if (kept_[j] != nullptr) evaluated.push_back(static_cast<int64_t>(j));
    }
    std::vector<double> f1(evaluated.size(), 0.0);
    ParallelStripes(static_cast<int64_t>(evaluated.size()), kEvalThreads,
                    [&](int64_t i) {
                      const int64_t j = evaluated[static_cast<size_t>(i)];
                      std::vector<int64_t> matches;
                      if (!ops->Record(kept_[static_cast<size_t>(j)]->RetrieveMatches(
                              corpus_.table, -1, &matches))) {
                        return;
                      }
                      f1[static_cast<size_t>(i)] = MatchF1(
                          matches,
                          TruthBitmap(users_[static_cast<size_t>(j)].uir,
                                      corpus_.table),
                          corpus_.table.num_rows());
                    });
    return Mean(f1);
  }

  std::vector<const core::ExplorationSession*> ReplaySessions() const override {
    std::vector<const core::ExplorationSession*> out;
    for (const SessionPtr& session : kept_) {
      if (session != nullptr &&
          static_cast<int64_t>(out.size()) < kReplaySessions) {
        out.push_back(session.get());
      }
    }
    return out;
  }

 private:
  int64_t stride_ = 1;
  std::vector<SessionPtr> kept_;  // Final sessions of the evaluated users.
};

// retrieve_scan: full-table retrievals of a pool of adapted users through one
// coalesced scheduler over a read-only table. Scan layers do all the work.
class RetrieveScan : public Workload {
 public:
  using Workload::Workload;
  int64_t clients() const override { return kScanClients; }
  double jobs_per_second() const override { return 80.0; }
  int64_t warmup_jobs() const override { return 32; }
  std::string Describe() const override {
    return "closed loop, 4 clients, 1 scheduler with 2 lanes; request = "
           "full-table RetrieveMatches of a pool user";
  }

  void MakeInputs(int64_t jobs, Rng* rng) override {
    users_ = MakeUsers(corpus_, kPoolUsers, rng);
    script_user_.resize(static_cast<size_t>(jobs));
    for (int64_t& u : script_user_) u = rng->UniformInt(kPoolUsers);
    MakeTruth();
  }

  void Build(Ops* ops) override {
    const double start = NowSeconds();
    {
      const Span span("core.adapt_all");
      pool_ = AdaptPool(model_, users_, kPoolUsers, ops);
    }
    adapt_seconds_ = NowSeconds() - start;
    BuildServing(ops);
  }

  void Teardown() override {
    scheduler_.reset();
    pool_.clear();
  }

  void BeginPhase(int64_t begin, int64_t end, bool measured, Ops* /*ops*/) override {
    if (!measured) return;
    results_.assign(static_cast<size_t>(end), {});
    measured_begin_ = begin;
    stats_before_ = scheduler_->stats();
  }
  void EndPhase() override { stats_after_ = scheduler_->stats(); }

  void Serve(int64_t job, Ops* ops, std::vector<double>* latencies_ms) override {
    WaitTurn(job);
    const int64_t u = script_user_[static_cast<size_t>(job)];
    std::vector<int64_t> scratch;
    std::vector<int64_t>* out = static_cast<size_t>(job) < results_.size() &&
                                        job >= measured_begin_
                                    ? &results_[static_cast<size_t>(job)]
                                    : &scratch;
    TimedRequest(request_name(), latencies_ms, [&] {
      const Span span("serving.scheduled_retrieve");
      ops->Record(scheduler_->RetrieveMatches(*pool_[static_cast<size_t>(u)], -1, out));
    });
    Completed(job);
  }

  double Check(Ops* ops) override {
    // One direct retrieval per pool user on the final table; a request that
    // saw the first n rows must return exactly its prefix below n.
    std::vector<std::vector<int64_t>> direct(static_cast<size_t>(kPoolUsers));
    ParallelStripes(kPoolUsers, kEvalThreads, [&](int64_t u) {
      ops->Record(pool_[static_cast<size_t>(u)]->RetrieveMatches(
          table(), -1, &direct[static_cast<size_t>(u)]));
    });
    for (int64_t j = measured_begin_; j < static_cast<int64_t>(results_.size()); ++j) {
      const int64_t u = script_user_[static_cast<size_t>(j)];
      const std::vector<int64_t>& all = direct[static_cast<size_t>(u)];
      const std::vector<int64_t> expected(
          all.begin(), std::lower_bound(all.begin(), all.end(), RowsSeen(j)));
      if (results_[static_cast<size_t>(j)] != expected) {
        ops->Fail("scheduled retrieval differs from direct RetrieveMatches");
      }
    }
    results_.clear();
    // match_f1 weighs every pool user once. Weighing users by how often the
    // script drew them added a second source of seed-to-seed spread (3.5 %
    // over 10 seeds).
    std::vector<double> f1;
    for (int64_t u = 0; u < kPoolUsers; ++u) {
      f1.push_back(MatchF1(direct[static_cast<size_t>(u)], truth_[static_cast<size_t>(u)],
                           table().num_rows()));
    }
    return Mean(f1);
  }

  std::vector<const core::ExplorationSession*> ReplaySessions() const override {
    std::vector<const core::ExplorationSession*> out;
    for (int64_t u = 0; u < kReplaySessions; ++u) {
      out.push_back(pool_[static_cast<size_t>(u)].get());
    }
    return out;
  }

  void NativeLayers(Layers* layers) override {
    const int64_t batches = stats_after_.batches - stats_before_.batches;
    const int64_t requests = stats_after_.requests - stats_before_.requests;
    const int64_t passes = stats_after_.encode_passes - stats_before_.encode_passes;
    if (batches > 0 && requests > 0) {
      (*layers)["serving.requests_per_pass"] = {
          static_cast<double>(requests) / batches, "workload"};
      (*layers)["serving.encode_passes_per_request"] = {
          static_cast<double>(passes) / requests, "workload"};
    }
  }

 protected:
  virtual const char* request_name() const { return "retrieve_scan.request"; }
  virtual int64_t lanes() const { return kScanLanes; }
  /// Rows of the table request `job` scanned.
  virtual int64_t RowsSeen(int64_t /*job*/) const { return corpus_.table.num_rows(); }
  virtual void WaitTurn(int64_t /*job*/) {}
  virtual void Completed(int64_t /*job*/) {}

  void BuildServing(Ops* /*ops*/) {
    scheduler_ = std::make_unique<serving::CoalescedScanScheduler>(
        model_, &table(), PinnedScanOptions(lanes(), clients()));
  }

  /// Ground truth per pool user over every row any request can see.
  void MakeTruth() {
    const data::Table final_table = FinalTable();
    truth_.assign(static_cast<size_t>(kPoolUsers), {});
    ParallelStripes(kPoolUsers, kEvalThreads, [&](int64_t u) {
      truth_[static_cast<size_t>(u)] =
          TruthBitmap(users_[static_cast<size_t>(u)].uir, final_table);
    });
  }
  virtual data::Table FinalTable() const { return corpus_.table; }

  std::vector<int64_t> script_user_;
  std::vector<std::vector<uint8_t>> truth_;
  std::vector<SessionPtr> pool_;
  std::unique_ptr<serving::CoalescedScanScheduler> scheduler_;
  std::vector<std::vector<int64_t>> results_;
  int64_t measured_begin_ = 0;
  serving::CoalescedScanStats stats_before_, stats_after_;
};

// ingest_scan: retrieve_scan's request mix beside an ingest client. The
// ingest appends batch k once every scan of epoch k-1 has completed, and the
// scans of epoch k wait for it, so each scan sees a table size fixed by the
// script and no append races a timed scan's row domain.
class IngestScan : public RetrieveScan {
 public:
  using RetrieveScan::RetrieveScan;
  int64_t clients() const override { return kIngestClients; }
  double jobs_per_second() const override { return 36.0; }
  int64_t warmup_jobs() const override { return 16; }
  std::string Describe() const override {
    return "closed loop, 2 scan clients + 1 ingest client, 1 scheduler with 1 "
           "lane; an append of " + std::to_string(kIngestAppendRows) +
           " rows after every " + std::to_string(kScansPerAppend) + " scans";
  }

  void MakeInputs(int64_t jobs, Rng* rng) override {
    const int64_t measured = jobs - warmup_jobs();
    const int64_t appends = (measured + kScansPerAppend - 1) / kScansPerAppend - 1;
    Rng batch_rng = rng->Fork(0x494E);  // "IN"
    batches_ = MakeAppendBatches(corpus_, std::max<int64_t>(appends, 0),
                                 kIngestAppendRows, &batch_rng);
    RetrieveScan::MakeInputs(jobs, rng);
  }

  void Build(Ops* ops) override {
    table_ = std::make_unique<data::Table>(corpus_.table);
    const double start = NowSeconds();
    {
      const Span span("core.adapt_all");
      pool_ = AdaptPool(model_, users_, kPoolUsers, ops);
    }
    adapt_seconds_ = NowSeconds() - start;
    registry_ = std::make_unique<serving::ModelRegistry>(model_);
    controller_ = std::make_unique<serving::DriftRefreshController>(
        registry_.get(), table_.get(), corpus_.subspaces);
    BuildServing(ops);
  }

  void Teardown() override {
    scheduler_.reset();
    controller_.reset();
    registry_.reset();
    pool_.clear();
    table_.reset();
  }

  const data::Table& table() const override { return *table_; }

  void BeginPhase(int64_t begin, int64_t end, bool measured, Ops* ops) override {
    RetrieveScan::BeginPhase(begin, end, measured, ops);
    if (!measured) return;
    phase_begin_ = begin;
    completed_ = 0;
    epoch_ = 0;
    append_ms_.clear();
    ingest_ = std::thread([this, ops] { IngestLoop(ops); });
  }
  void EndPhase() override {
    if (ingest_.joinable()) ingest_.join();
    RetrieveScan::EndPhase();
    refreshes_ = controller_->stats().refreshes_triggered;
  }

  double Check(Ops* ops) override {
    const int64_t expected_rows =
        corpus_.table.num_rows() +
        static_cast<int64_t>(batches_.size()) * kIngestAppendRows;
    if (table_->num_rows() != expected_rows) ops->Fail("ingest row count");
    if (refreshes_ != 0) ops->Fail("in-distribution appends fired drift");
    return RetrieveScan::Check(ops);
  }

  void NativeLayers(Layers* layers) override {
    RetrieveScan::NativeLayers(layers);
    (*layers)["data.segments"] = {static_cast<double>(table_->num_segments()),
                                  "workload"};
    (*layers)["live_refresh.refreshes_triggered"] = {static_cast<double>(refreshes_),
                                                     "workload"};
  }
  bool appends() const override { return true; }
  std::vector<double> MeasuredAppendsMs() const override { return append_ms_; }

 protected:
  const char* request_name() const override { return "ingest_scan.request"; }
  int64_t lanes() const override { return kIngestLanes; }
  int64_t RowsSeen(int64_t job) const override {
    return corpus_.table.num_rows() + EpochOf(job) * kIngestAppendRows;
  }
  data::Table FinalTable() const override {
    data::Table final_table = corpus_.table;
    for (const auto& batch : batches_) {
      if (!final_table.AppendRows(batch).ok()) break;
    }
    return final_table;
  }

  void WaitTurn(int64_t job) override {
    if (job < phase_begin_ || !ingest_.joinable()) return;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return epoch_ >= EpochOf(job); });
  }
  void Completed(int64_t job) override {
    if (job < phase_begin_ || !ingest_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
    }
    cv_.notify_all();
  }

 private:
  int64_t EpochOf(int64_t job) const {
    return job < phase_begin_ ? 0 : (job - phase_begin_) / kScansPerAppend;
  }

  void IngestLoop(Ops* ops) {
    for (size_t k = 0; k < batches_.size(); ++k) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return completed_ >= static_cast<int64_t>(k + 1) * kScansPerAppend;
        });
      }
      const double start = NowSeconds();
      {
        const Span span("live_refresh.append", Tracer::NewRequest());
        ops->Record(controller_->AppendAndObserve(batches_[k]));
      }
      append_ms_.push_back((NowSeconds() - start) * 1000.0);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++epoch_;
      }
      cv_.notify_all();
    }
  }

  std::vector<std::vector<std::vector<double>>> batches_;
  std::unique_ptr<data::Table> table_;
  std::unique_ptr<serving::ModelRegistry> registry_;
  std::unique_ptr<serving::DriftRefreshController> controller_;
  std::thread ingest_;
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t phase_begin_ = 0;
  int64_t completed_ = 0;  // Guarded by mu_.
  int64_t epoch_ = 0;      // Guarded by mu_.
  std::vector<double> append_ms_;
  int64_t refreshes_ = 0;
};

// session_churn: Zipf-popular users, N >> K resident. Each request acquires
// the user's session (restoring it when evicted), continues exploration and
// previews. Same core work as explore_loop plus the lifecycle.
class SessionChurn : public Workload {
 public:
  using Workload::Workload;
  int64_t clients() const override { return kChurnClients; }
  double jobs_per_second() const override { return 155.0; }
  int64_t warmup_jobs() const override { return 200; }
  std::string Describe() const override {
    return "closed loop, 2 clients, users sharded by id (one writer each); N=" +
           std::to_string(kChurnUsers) + " users, K=" + std::to_string(kChurnResident) +
           " resident, Zipf exponent " + std::to_string(kZipfExponent) +
           "; request = acquire+continue+preview";
  }


  int64_t rounds() const override { return kChurnRounds; }

  void MakeInputs(int64_t jobs, Rng* rng) override {
    users_ = MakeUsers(corpus_, kChurnUsers, rng);
    // Popularity rank -> user id through a seeded permutation, drawn afresh
    // for the warm-up and for each measured round: with exponent 0.99 the
    // hottest user draws ~17 % of the requests and the top 5 ~38 %, so one
    // order per run made a run's cost hang on a few users' preview costs
    // (p90 spread 39 % and CPU per request 23 % over 10 seeds).
    std::vector<int64_t> by_rank(static_cast<size_t>(kChurnUsers));
    std::iota(by_rank.begin(), by_rank.end(), 0);
    std::vector<int64_t> reorder_at;  // Jobs that start a new order.
    for (int64_t r = 0; r < kChurnRounds; ++r) {
      reorder_at.push_back(RoundBegin(warmup_jobs(), jobs, kChurnRounds, r));
    }
    std::vector<double> cdf;
    double total = 0.0;
    for (int64_t r = 1; r <= kChurnUsers; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf.push_back(total);
    }
    std::vector<int64_t> visits(static_cast<size_t>(kChurnUsers), 0);
    script_.clear();
    script_.resize(static_cast<size_t>(jobs));
    for (size_t j = 0; j < script_.size(); ++j) {
      Visit& visit = script_[j];
      if (j == 0 || std::binary_search(reorder_at.begin(), reorder_at.end(),
                                       static_cast<int64_t>(j))) {
        rng->Shuffle(&by_rank);
      }
      const double x = rng->Uniform(0.0, total);
      const auto rank = std::min<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin(), cdf.size() - 1);
      visit.user = by_rank[rank];
      const User& user = users_[static_cast<size_t>(visit.user)];
      visit.subspace = visits[static_cast<size_t>(visit.user)]++ %
                       static_cast<int64_t>(corpus_.subspaces.size());
      const auto& attrs =
          corpus_.subspaces[static_cast<size_t>(visit.subspace)].attribute_indices;
      const eval::Oracle oracle(&user.uir, &corpus_.table);
      for (int64_t r : data::SampleRowIndices(corpus_.table, kSuggestK, rng)) {
        visit.points.push_back(corpus_.table.RowProjected(r, attrs));
        visit.labels.push_back(
            oracle.LabelSubspacePoint(visit.subspace, visit.points.back()));
      }
    }
  }

  void Build(Ops* ops) override {
    registry_ = std::make_unique<serving::ModelRegistry>(model_);
    serving::SessionManagerOptions options;
    options.max_resident = kChurnResident;
    options.checkpoint_dir = options_.out_dir + "/checkpoints";
    options.session_num_threads = kSessionThreads;
    std::error_code ec;
    std::filesystem::remove_all(options.checkpoint_dir, ec);
    manager_ = std::make_unique<serving::SessionManager>(registry_.get(), options);
    const double start = NowSeconds();
    {
      const Span span("core.adapt_all");
      ParallelStripes(kChurnUsers, kSetupThreads, [&](int64_t u) {
        serving::SessionManager::Lease lease;
        if (!ops->Record(manager_->Acquire(UserId(u), &lease))) return;
        const User& user = users_[static_cast<size_t>(u)];
        lease.session()->SeedRng(user.session_seed);
        std::vector<int64_t> picked;
        StartUser(lease.session(), user, &picked, ops);
      });
    }
    adapt_seconds_ = NowSeconds() - start;
  }

  // controls_ survive a teardown: the traced run replays them after the
  // next setup.
  void Teardown() override {
    manager_.reset();
    registry_.reset();
  }

  void BeginPhase(int64_t /*begin*/, int64_t end, bool measured, Ops* /*ops*/) override {
    if (!measured) return;
    stats_before_ = manager_->stats();
    jobs_run_ = end;
    acquire_hit_ms_.clear();
    acquire_restore_ms_.clear();
  }
  void EndPhase() override { stats_after_ = manager_->stats(); }

  // Users are sharded by id, so each user has one writer: its visits run in
  // script order on one client.
  bool sharded() const override { return true; }
  int64_t ClientOf(int64_t job) const override {
    return script_[static_cast<size_t>(job)].user % kChurnClients;
  }

  void Serve(int64_t job, Ops* ops, std::vector<double>* latencies_ms) override {
    const Visit& visit = script_[static_cast<size_t>(job)];
    TimedRequest("session_churn.request", latencies_ms, [&] {
      serving::SessionManager::Lease lease;
      if (!Acquire(visit.user, &lease, ops)) return;
      core::ExplorationSession* session = lease.session();
      {
        const Span span("core.continue_exploration");
        if (!ops->Record(session->ContinueExploration(
                visit.subspace, visit.points, visit.labels,
                session->session_rng()))) {
          return;
        }
      }
      Preview(*session, corpus_.table, ops);
      const Span span("serving.release");
      lease.Release();
    });
  }

  double Check(Ops* ops) override {
    // Never-evicted controls replay every visit of every kControlStride-th
    // user; the churned session must serialize to the same bytes.
    controls_.clear();
    for (int64_t u = 0; u < kChurnUsers; u += kControlStride) {
      const User& user = users_[static_cast<size_t>(u)];
      auto control =
          std::make_unique<core::ExplorationSession>(model_, kSessionThreads);
      control->SeedRng(user.session_seed);
      std::vector<int64_t> picked;
      StartUser(control.get(), user, &picked, ops);
      for (int64_t j = 0; j < jobs_run_; ++j) {
        const Visit& visit = script_[static_cast<size_t>(j)];
        if (visit.user != u) continue;
        ops->Record(control->ContinueExploration(visit.subspace, visit.points,
                                                 visit.labels,
                                                 control->session_rng()));
      }
      serving::SessionManager::Lease lease;
      if (!ops->Record(manager_->Acquire(UserId(u), &lease))) continue;
      std::ostringstream churned, reference;
      if (ops->Record(lease.session()->SaveToStream(&churned)) &&
          ops->Record(control->SaveToStream(&reference)) &&
          churned.str() != reference.str()) {
        ops->Fail("churned session differs from never-evicted control");
      }
      controls_.push_back(std::move(control));
    }
    // match_f1 over every user's final session.
    std::vector<double> f1(static_cast<size_t>(kChurnUsers), 0.0);
    ParallelStripes(kChurnUsers, kEvalThreads, [&](int64_t u) {
      serving::SessionManager::Lease lease;
      std::vector<int64_t> matches;
      if (!ops->Record(manager_->Acquire(UserId(u), &lease)) ||
          !ops->Record(lease.session()->RetrieveMatches(corpus_.table, -1, &matches))) {
        return;
      }
      f1[static_cast<size_t>(u)] =
          MatchF1(matches, TruthBitmap(users_[static_cast<size_t>(u)].uir, corpus_.table),
                  corpus_.table.num_rows());
    });
    return Mean(f1);
  }

  std::vector<const core::ExplorationSession*> ReplaySessions() const override {
    std::vector<const core::ExplorationSession*> out;
    for (const SessionPtr& control : controls_) {
      if (static_cast<int64_t>(out.size()) < kReplaySessions) out.push_back(control.get());
    }
    return out;
  }

  void NativeLayers(Layers* layers) override {
    const int64_t hits = stats_after_.hits - stats_before_.hits;
    const int64_t restores = stats_after_.restores - stats_before_.restores;
    const int64_t creates = stats_after_.creates - stats_before_.creates;
    const int64_t evictions = stats_after_.evictions - stats_before_.evictions;
    const int64_t acquires = hits + restores + creates;
    if (acquires == 0) return;
    (*layers)["serving.hit_share"] = {static_cast<double>(hits) / acquires, "workload"};
    (*layers)["serving.evictions_per_request"] = {
        static_cast<double>(evictions) / acquires, "workload"};
    if (!acquire_hit_ms_.empty()) {
      (*layers)["serving.acquire_hit_ms"] = {Quantile(acquire_hit_ms_, 0.5), "workload"};
    }
    if (!acquire_restore_ms_.empty()) {
      (*layers)["serving.acquire_restore_ms"] = {Quantile(acquire_restore_ms_, 0.5),
                                                 "workload"};
    }
  }

 private:
  struct Visit {
    int64_t user = 0;
    int64_t subspace = 0;
    std::vector<std::vector<double>> points;
    std::vector<double> labels;
  };

  /// Acquire; when tracing, classifies the call as hit or restore from the
  /// manager's counters (skipped when another client's acquire interleaved).
  bool Acquire(int64_t user, serving::SessionManager::Lease* lease, Ops* ops) {
    const bool classify = Tracer::enabled();
    serving::SessionManagerStats before;
    if (classify) before = manager_->stats();
    const double start = NowSeconds();
    bool ok = false;
    {
      const Span span("serving.acquire");
      ok = ops->Record(manager_->Acquire(UserId(user), lease));
    }
    const double ms = (NowSeconds() - start) * 1000.0;
    if (!ok || !classify) return ok;
    const serving::SessionManagerStats after = manager_->stats();
    const int64_t hits = after.hits - before.hits;
    const int64_t restores = after.restores - before.restores;
    const int64_t creates = after.creates - before.creates;
    if (hits + restores + creates == 1) {
      const std::lock_guard<std::mutex> lock(classify_mu_);
      if (hits == 1) acquire_hit_ms_.push_back(ms);
      if (restores == 1) acquire_restore_ms_.push_back(ms);
    }
    return true;
  }

  std::vector<Visit> script_;
  std::unique_ptr<serving::ModelRegistry> registry_;
  std::unique_ptr<serving::SessionManager> manager_;
  std::vector<SessionPtr> controls_;
  int64_t jobs_run_ = 0;
  serving::SessionManagerStats stats_before_, stats_after_;
  std::mutex classify_mu_;
  std::vector<double> acquire_hit_ms_;      // Guarded by classify_mu_.
  std::vector<double> acquire_restore_ms_;  // Guarded by classify_mu_.
};

// ---------------------------------------------------------------------------
// Runner.

/// One round of a phase: a contiguous slice of the script run by all
/// clients, closed by a barrier (the client threads join).
struct Round {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Sum over clients of requests / the client's own elapsed time: a client
  /// that finishes its share early does not count the others' tail as idle.
  double requests_per_s = 0.0;
};

struct PhaseResult {
  std::vector<Round> rounds;
  double wall_s = 0.0;  // Sum over rounds.

  /// Median over rounds of a per-round statistic: a burst of host
  /// interference during one round does not move it.
  template <typename Fn>
  double MedianOverRounds(Fn&& per_round) const {
    std::vector<double> values;
    for (const Round& round : rounds) values.push_back(per_round(round));
    return Quantile(values, 0.5);
  }
  int64_t requests() const {
    int64_t n = 0;
    for (const Round& round : rounds) n += static_cast<int64_t>(round.latencies_ms.size());
    return n;
  }
};

PhaseResult RunPhase(Workload* workload, int64_t begin, int64_t end, int64_t rounds,
                     bool measured, Ops* ops) {
  const int64_t clients = workload->clients();
  workload->BeginPhase(begin, end, measured, ops);
  PhaseResult result;
  for (int64_t r = 0; r < rounds; ++r) {
    const int64_t round_begin = RoundBegin(begin, end, rounds, r);
    const int64_t round_end = RoundBegin(begin, end, rounds, r + 1);
    std::atomic<int64_t> next{round_begin};
    std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
    std::vector<double> elapsed_s(static_cast<size_t>(clients), 0.0);
    const double cpu_start = ProcessCpuSeconds();
    const double start = NowSeconds();
    {
      std::vector<std::thread> threads;
      for (int64_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          std::vector<double>* out = &latencies[static_cast<size_t>(c)];
          if (workload->sharded()) {
            for (int64_t j = round_begin; j < round_end; ++j) {
              if (workload->ClientOf(j) == c) workload->Serve(j, ops, out);
            }
          } else {
            for (int64_t j = next++; j < round_end; j = next++) workload->Serve(j, ops, out);
          }
          elapsed_s[static_cast<size_t>(c)] = NowSeconds() - start;
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    Round round;
    round.wall_s = NowSeconds() - start;
    round.cpu_s = ProcessCpuSeconds() - cpu_start;
    for (int64_t c = 0; c < clients; ++c) {
      const auto& l = latencies[static_cast<size_t>(c)];
      round.latencies_ms.insert(round.latencies_ms.end(), l.begin(), l.end());
      if (!l.empty()) round.requests_per_s += l.size() / elapsed_s[static_cast<size_t>(c)];
    }
    result.wall_s += round.wall_s;
    result.rounds.push_back(std::move(round));
  }
  workload->EndPhase();
  return result;
}

struct SetupTimes {
  std::vector<double> setup_s, pretrain_s, adapt_s;
  double task_generation_s = 0.0;
  double meta_training_s = 0.0;
  uint64_t fingerprint = 0;
};

/// One setup: Pretrain + the workload's build (adapts, scheduler/manager
/// construction). The oracle labelling after the first Pretrain is input
/// generation and is excluded from the clock.
void SetupOnce(const Corpus& corpus, Workload* workload, Ops* ops,
               SetupTimes* times) {
  workload->Teardown();
  const double start = NowSeconds();
  auto model = NewModel(corpus);
  Rng pretrain_rng(kCorpusSeed + 1);
  {
    const Span span("core.pretrain");
    ops->Record(model->Pretrain(corpus.table, corpus.subspaces,
                                /*train_meta=*/true, &pretrain_rng));
  }
  const double pretrained = NowSeconds();
  if (times->fingerprint == 0) {
    times->fingerprint = model->fingerprint();
    LabelStartTuples(*model, corpus.table, workload->mutable_users());
  } else if (model->fingerprint() != times->fingerprint) {
    ops->Fail("setups pretrained different models");
  }
  const double build_start = NowSeconds();
  workload->set_model(model);
  workload->Build(ops);
  const double end = NowSeconds();
  times->setup_s.push_back((pretrained - start) + (end - build_start));
  times->pretrain_s.push_back(pretrained - start);
  times->adapt_s.push_back(workload->adapt_seconds());
  times->task_generation_s = model->task_generation_seconds();
  times->meta_training_s = model->meta_training_seconds();
}

/// Short fixed probes of the layers a workload does not exercise itself, on
/// the workload's first kCensusUsers users, so every traced run reports every
/// per-layer metric. Spans land in Phase::kCensus.
void Census(const Corpus& corpus, const ModelHandle& model,
            const std::vector<User>& all_users, const std::string& out_dir,
            Ops* ops, Layers* layers) {
  const std::vector<User> users(all_users.begin(), all_users.begin() + kCensusUsers);
  // Explore turns with previews, single client.
  std::vector<SessionPtr> sessions;
  const double adapt_start = NowSeconds();
  for (const User& user : users) {
    auto session = std::make_unique<core::ExplorationSession>(model, kSessionThreads);
    session->SeedRng(user.session_seed);
    std::vector<int64_t> picked;
    bool ok = StartUser(session.get(), user, &picked, ops);
    for (int64_t k = 1; ok && k <= kTurns; ++k) {
      ok = ContinueUser(session.get(), user, k, &corpus.table, &picked, ops);
    }
    sessions.push_back(std::move(session));
  }
  (*layers)["core.adapt_all_s"] = {NowSeconds() - adapt_start, "census"};

  // Coalescing: 2 clients x 8 full retrievals through a 2-lane scheduler.
  {
    serving::CoalescedScanScheduler scheduler(model, &corpus.table,
                                              PinnedScanOptions(kScanLanes, 2));
    ParallelStripes(2, 2, [&](int64_t c) {
      std::vector<int64_t> matches;
      for (int64_t i = 0; i < 8; ++i) {
        ops->Record(scheduler.RetrieveMatches(
            *sessions[static_cast<size_t>((c + 2 * i) % kCensusUsers)], -1, &matches));
      }
    });
    const serving::CoalescedScanStats stats = scheduler.stats();
    if (stats.batches > 0 && stats.requests > 0) {
      (*layers)["serving.requests_per_pass"] = {
          static_cast<double>(stats.requests) / stats.batches, "census"};
      (*layers)["serving.encode_passes_per_request"] = {
          static_cast<double>(stats.encode_passes) / stats.requests, "census"};
    }
  }

  // Lifecycle: K=2 resident over 4 users; each user is acquired twice in a
  // row (a restore, then a hit).
  {
    serving::ModelRegistry registry(model);
    serving::SessionManagerOptions options;
    options.max_resident = 2;
    options.checkpoint_dir = out_dir + "/census-checkpoints";
    options.session_num_threads = kSessionThreads;
    std::error_code ec;
    std::filesystem::remove_all(options.checkpoint_dir, ec);
    serving::SessionManager manager(&registry, options);
    for (int64_t u = 0; u < 4; ++u) {
      serving::SessionManager::Lease lease;
      if (!ops->Record(manager.Acquire(UserId(u), &lease))) continue;
      lease.session()->SeedRng(users[static_cast<size_t>(u)].session_seed);
      std::vector<int64_t> picked;
      StartUser(lease.session(), users[static_cast<size_t>(u)], &picked, ops);
    }
    std::vector<double> hit_ms, restore_ms;
    const serving::SessionManagerStats before = manager.stats();
    for (int64_t i = 0; i < 24; ++i) {
      const int64_t u = (i / 2) % 4;
      const serving::SessionManagerStats pre = manager.stats();
      serving::SessionManager::Lease lease;
      const double start = NowSeconds();
      {
        const Span span("serving.acquire");
        if (!ops->Record(manager.Acquire(UserId(u), &lease))) continue;
      }
      const double ms = (NowSeconds() - start) * 1000.0;
      const serving::SessionManagerStats post = manager.stats();
      (post.hits > pre.hits ? hit_ms : restore_ms).push_back(ms);
      Preview(*lease.session(), corpus.table, ops);
    }
    const serving::SessionManagerStats after = manager.stats();
    const int64_t acquires = (after.hits - before.hits) +
                             (after.restores - before.restores) +
                             (after.creates - before.creates);
    (*layers)["serving.acquire_hit_ms"] = {Quantile(hit_ms, 0.5), "census"};
    (*layers)["serving.acquire_restore_ms"] = {Quantile(restore_ms, 0.5), "census"};
    if (acquires > 0) {
      (*layers)["serving.hit_share"] = {
          static_cast<double>(after.hits - before.hits) / acquires, "census"};
      (*layers)["serving.evictions_per_request"] = {
          static_cast<double>(after.evictions - before.evictions) / acquires, "census"};
    }
    std::filesystem::remove_all(options.checkpoint_dir, ec);
  }
}

/// Scheduled minus direct retrieval latency, one client, 1-lane scheduler vs
/// a 1-thread session: the cost of queueing, the flush deadline and the
/// hand-off, with no coalescing to amortize it.
double SchedulerOverheadMs(const data::Table& table,
                           const std::vector<const core::ExplorationSession*>& sessions,
                           Ops* ops) {
  serving::CoalescedScanOptions options;
  options.num_threads = 1;
  serving::CoalescedScanScheduler scheduler(sessions.front()->model_handle(),
                                            &table, options);
  std::vector<double> direct_ms, scheduled_ms;
  std::vector<int64_t> matches;
  for (int64_t i = 0; i < kOverheadRequests; ++i) {
    const core::ExplorationSession& session =
        *sessions[static_cast<size_t>(i) % sessions.size()];
    // Alternate which path goes first so cache warmth favours neither.
    for (int64_t k = 0; k < 2; ++k) {
      const bool direct = (i + k) % 2 == 0;
      const double start = NowSeconds();
      ops->Record(direct ? session.RetrieveMatches(table, -1, &matches)
                         : scheduler.RetrieveMatches(session, -1, &matches));
      (direct ? direct_ms : scheduled_ms).push_back((NowSeconds() - start) * 1000.0);
    }
  }
  return Quantile(scheduled_ms, 0.5) - Quantile(direct_ms, 0.5);
}

/// Save/Load of replay sessions through checkpoint files.
void CheckpointLayers(const std::vector<const core::ExplorationSession*>& sessions,
                      const std::string& out_dir, Ops* ops, Layers* layers) {
  const std::string dir = out_dir + "/replay-checkpoints";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::vector<double> save_ms, load_ms, bytes;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const std::string path = dir + "/s" + std::to_string(i) + ".ltesession";
    for (int rep = 0; rep < 3; ++rep) {
      double start = NowSeconds();
      {
        const Span span("core.session_save");
        if (!ops->Record(sessions[i]->Save(path))) break;
      }
      save_ms.push_back((NowSeconds() - start) * 1000.0);
      core::ExplorationSession restored(sessions[i]->model_handle(), kSessionThreads);
      start = NowSeconds();
      {
        const Span span("core.session_load");
        if (!ops->Record(restored.Load(path))) break;
      }
      load_ms.push_back((NowSeconds() - start) * 1000.0);
    }
    bytes.push_back(static_cast<double>(std::filesystem::file_size(path, ec)));
  }
  std::filesystem::remove_all(dir, ec);
  (*layers)["core.session_save_ms"] = {Quantile(save_ms, 0.5), "replay"};
  (*layers)["core.session_load_ms"] = {Quantile(load_ms, 0.5), "replay"};
  (*layers)["core.checkpoint_bytes"] = {Mean(bytes), "replay"};
}

// Per-layer metrics, in BENCHMARK.json order, with their units.
const std::vector<std::pair<const char*, const char*>>& LayerMetricList() {
  static const std::vector<std::pair<const char*, const char*>> list = {
      {"core.pretrain_s", "s"},
      {"core.task_generation_s", "s"},
      {"core.meta_training_s", "s"},
      {"core.adapt_all_s", "s"},
      {"core.start_exploration_ms", "ms"},
      {"core.continue_exploration_ms", "ms"},
      {"policy.suggest_ms", "ms"},
      {"core.preview_retrieve_ms", "ms"},
      {"preprocess.encode_block_us", "us"},
      {"core.score_block_us", "us"},
      {"core.rows_scored_per_request", "count"},
      {"core.survivor_share", "ratio"},
      {"core.match_share", "ratio"},
      {"serving.requests_per_pass", "count"},
      {"serving.encode_passes_per_request", "count"},
      {"serving.scheduler_overhead_ms", "ms"},
      {"serving.acquire_hit_ms", "ms"},
      {"serving.acquire_restore_ms", "ms"},
      {"serving.hit_share", "ratio"},
      {"serving.evictions_per_request", "count"},
      {"core.session_save_ms", "ms"},
      {"core.session_load_ms", "ms"},
      {"core.checkpoint_bytes", "bytes"},
      {"live_refresh.append_ms", "ms"},
      {"data.append_rows_ms", "ms"},
      {"data.segments", "count"},
      {"live_refresh.refreshes_triggered", "count"},
      {"trace.overhead", "ratio"},
  };
  return list;
}

/// Median span duration of `name`, preferring the workload's own traced
/// phase over the census.
void SpanLayer(const std::vector<SpanRecord>& spans, const char* span_name,
               const char* metric, Layers* layers) {
  std::vector<double> ms = DurationsMs(spans, span_name, Phase::kWorkload);
  const char* source = "workload";
  if (ms.empty()) {
    ms = DurationsMs(spans, span_name, Phase::kCensus);
    source = "census";
  }
  if (!ms.empty() && layers->count(metric) == 0) {
    (*layers)[metric] = {Quantile(ms, 0.5), source};
  }
}

void PrintLayerTable(const std::vector<SpanRecord>& spans, Phase phase,
                     const char* title) {
  const std::vector<LayerRow> rows = SummarizeLayers(spans, phase);
  if (rows.empty()) return;
  std::printf("\n%s\n  %-32s %8s %10s %10s %12s %8s\n", title, "span", "count",
              "p50 ms", "p50 self", "total self", "share");
  for (const LayerRow& row : rows) {
    std::printf("  %-32s %8lld %10.3f %10.3f %12.1f %8.3f\n", row.name.c_str(),
                static_cast<long long>(row.count), row.p50_ms, row.p50_self_ms,
                row.total_self_ms, row.mean_request_share);
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Corpus& corpus,
                                       const BenchOptions& options) {
  if (name == "explore_loop") return std::make_unique<ExploreLoop>(corpus, options);
  if (name == "retrieve_scan") return std::make_unique<RetrieveScan>(corpus, options);
  if (name == "session_churn") return std::make_unique<SessionChurn>(corpus, options);
  if (name == "ingest_scan") return std::make_unique<IngestScan>(corpus, options);
  return nullptr;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"explore_loop", "retrieve_scan",
                                                 "session_churn", "ingest_scan"};
  return names;
}

int RunBenchmark(const BenchOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n", options.out_dir.c_str());
    return 1;
  }
  const std::unique_ptr<Corpus> corpus = BuildCorpus();
  if (corpus == nullptr) {
    std::fprintf(stderr, "servebench: corpus construction failed\n");
    return 1;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, *corpus, options);
  const int64_t warmup = workload->warmup_jobs();
  // Whole rounds of whole client batches, so every coalesced pass fills.
  const int64_t rounds = workload->rounds();
  const int64_t unit = rounds * workload->clients();
  const int64_t measured_jobs =
      unit * std::max<int64_t>(
                 1, std::llround(workload->jobs_per_second() * options.seconds / unit));
  const int64_t total = warmup + measured_jobs;

  std::printf("servebench %s seed=%llu seconds=%g trace=%d hardware_threads=%u\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  std::printf("  %s\n", workload->Describe().c_str());
  std::printf("  table rows=%lld, subspaces=4 (2-D), variant=Meta*, jobs=%lld "
              "(+%lld warm-up)\n",
              static_cast<long long>(kTableRows), static_cast<long long>(measured_jobs),
              static_cast<long long>(warmup));

  Rng rng(options.seed);
  workload->MakeInputs(total, &rng);
  Rng probe_rng = rng.Fork(0x4150);  // "AP"
  const auto probe_batches =
      MakeAppendBatches(*corpus, kProbeAppends, kProbeAppendRows, &probe_rng);

  Ops ops;
  SetupTimes times;
  Tracer::Enable(options.trace);
  Tracer::SetPhase(Phase::kSetup);
  for (int64_t i = 0; i < kSetups; ++i) SetupOnce(*corpus, workload.get(), &ops, &times);

  // One warm-up round, then the measured rounds. Workloads without appends
  // of their own then run the append probe.
  struct Measured {
    PhaseResult phase;
    std::vector<double> append_ms;
    int64_t probe_segments = 0;
    int64_t probe_refreshes = 0;
  };
  const auto measure = [&](bool traced) {
    Measured m;
    Tracer::Enable(false);
    RunPhase(workload.get(), 0, warmup, 1, false, &ops);
    Tracer::Enable(traced);
    Tracer::SetPhase(Phase::kWorkload);
    m.phase = RunPhase(workload.get(), warmup, total, rounds, true, &ops);
    if (workload->appends()) {
      m.append_ms = workload->MeasuredAppendsMs();
      return m;
    }
    const AppendProbe probe =
        ProbeAppends(*corpus, workload->model(), probe_batches, &ops);
    m.append_ms = probe.append_ms;
    m.probe_segments = probe.segments;
    m.probe_refreshes = probe.refreshes;
    if (m.probe_refreshes != 0) ops.Fail("in-distribution appends fired drift");
    return m;
  };

  const Measured untraced = measure(false);
  const PhaseResult& measured = untraced.phase;
  const std::vector<double>& append_ms = untraced.append_ms;
  const double match_f1 = workload->Check(&ops);
  Layers layers;

  const int64_t requests = measured.requests();
  const double requests_per_s =
      measured.MedianOverRounds([](const Round& r) { return r.requests_per_s; });
  const double p50_ms = measured.MedianOverRounds(
      [](const Round& r) { return Quantile(r.latencies_ms, 0.5); });
  const double p90_ms = measured.MedianOverRounds(
      [](const Round& r) { return Quantile(r.latencies_ms, 0.9); });
  const double p99_ms = measured.MedianOverRounds(
      [](const Round& r) { return Quantile(r.latencies_ms, 0.99); });
  const double cpu_ms = measured.MedianOverRounds(
      [](const Round& r) { return 1000.0 * r.cpu_s / r.latencies_ms.size(); });
  const int64_t round_requests = requests / rounds;

  if (options.trace) {
    Tracer::Enable(true);
    Tracer::SetPhase(Phase::kSetup);
    SetupOnce(*corpus, workload.get(), &ops, &times);
    const Measured traced_run = measure(true);
    const PhaseResult& traced = traced_run.phase;
    workload->NativeLayers(&layers);
    layers["trace.overhead"] = {traced.wall_s / measured.wall_s - 1.0, "workload"};

    Tracer::SetPhase(Phase::kCensus);
    const std::vector<const core::ExplorationSession*> replay_sessions =
        workload->ReplaySessions();
    const ModelHandle traced_model = workload->model();
    const ReplayResult replay = BlockReplay(replay_sessions, workload->table(), &ops);
    layers["preprocess.encode_block_us"] = {Quantile(replay.encode_block_us, 0.5), "replay"};
    layers["core.score_block_us"] = {Quantile(replay.score_block_us, 0.5), "replay"};
    layers["core.rows_scored_per_request"] = {replay.rows_scored_per_request, "replay"};
    layers["core.survivor_share"] = {replay.survivor_share, "replay"};
    layers["core.match_share"] = {replay.match_share, "replay"};
    layers["serving.scheduler_overhead_ms"] = {
        SchedulerOverheadMs(workload->table(), replay_sessions, &ops),
        "probe"};
    CheckpointLayers(replay_sessions, options.out_dir, &ops, &layers);
    layers["data.append_rows_ms"] = {
        Quantile(BareAppendMs(*corpus, probe_batches, &ops), 0.5), "probe"};
    if (!workload->appends()) {
      layers["data.segments"] = {static_cast<double>(traced_run.probe_segments), "probe"};
      layers["live_refresh.refreshes_triggered"] = {
          static_cast<double>(traced_run.probe_refreshes), "probe"};
    }
    Layers census;
    Census(*corpus, traced_model, workload->users(), options.out_dir, &ops, &census);
    for (const auto& [name, value] : census) layers.emplace(name, value);

    const std::vector<SpanRecord> spans = Tracer::Collect();
    SpanLayer(spans, "core.start_exploration", "core.start_exploration_ms", &layers);
    SpanLayer(spans, "core.continue_exploration", "core.continue_exploration_ms", &layers);
    SpanLayer(spans, "policy.suggest", "policy.suggest_ms", &layers);
    SpanLayer(spans, "core.preview_retrieve", "core.preview_retrieve_ms", &layers);
    SpanLayer(spans, "live_refresh.append", "live_refresh.append_ms", &layers);
    layers["core.pretrain_s"] = {Quantile(times.pretrain_s, 0.5), "setup"};
    layers["core.task_generation_s"] = {times.task_generation_s, "setup"};
    layers["core.meta_training_s"] = {times.meta_training_s, "setup"};
    if (Quantile(times.adapt_s, 0.5) > 0.0) {
      layers["core.adapt_all_s"] = {Quantile(times.adapt_s, 0.5), "setup"};
    }

    PrintLayerTable(spans, Phase::kSetup, "setup spans (all setups)");
    PrintLayerTable(spans, Phase::kWorkload, "workload spans (traced measured phase)");
    PrintLayerTable(spans, Phase::kCensus, "census spans");
    const std::string trace_path =
        options.out_dir + "/spans-" + options.workload + ".tsv";
    if (Tracer::WriteTsv(trace_path)) {
      std::printf("\nspans written to %s\n", trace_path.c_str());
    }
    std::printf("\nper-layer metrics\n");
    for (const auto& [name, unit] : LayerMetricList()) {
      const auto it = layers.find(name);
      const LayerValue v = it == layers.end() ? LayerValue{} : it->second;
      std::printf("  %-36s %14.6g %-6s (%s)\n", name, v.value, unit,
                  v.source.empty() ? "missing" : v.source.c_str());
    }
  }

  // End-to-end report.
  std::printf("\nend-to-end\n");
  std::printf("  setup_s              %10.4f s   (median of %lld setups:",
              Quantile(times.setup_s, 0.5), static_cast<long long>(kSetups));
  for (int64_t i = 0; i < kSetups; ++i) {
    std::printf(" %.3f", times.setup_s[static_cast<size_t>(i)]);
  }
  std::printf(")\n");
  std::printf("  (per-round medians over %lld rounds of ~%lld requests; %lld "
              "requests in %.3f s)\n",
              static_cast<long long>(rounds), static_cast<long long>(round_requests),
              static_cast<long long>(requests), measured.wall_s);
  std::printf("  requests_per_s       %10.3f 1/s (rounds:", requests_per_s);
  for (const Round& r : measured.rounds) {
    std::printf(" %.1f", r.requests_per_s);
  }
  std::printf(")\n");
  std::printf("  request_p50_ms       %10.4f ms\n", p50_ms);
  std::printf("  request_p90_ms       %10.4f ms  (~%lld samples per round, %lld "
              "above)\n",
              p90_ms, static_cast<long long>(round_requests),
              static_cast<long long>(round_requests / 10));
  std::printf("  request_p99_ms       %10.4f ms  (information only)\n", p99_ms);
  std::printf("  cpu_ms_per_request   %10.4f ms\n", cpu_ms);
  std::printf("  peak_rss_mb          %10.2f MiB\n", PeakRssMb());
  std::printf("  match_f1             %10.5f\n", match_f1);
  std::printf("  append_p50_ms        %10.4f ms  (p10 %.4f, p90 %.4f; %s)\n",
              Quantile(append_ms, 0.5), Quantile(append_ms, 0.1),
              Quantile(append_ms, 0.9),
              workload->appends() ? "appends beside scans"
                                  : "append probe after the rounds, no readers");
  Layers counters;
  workload->NativeLayers(&counters);
  for (const auto& [name, value] : counters) {
    std::printf("  %-34s %10.4f  (workload counter, information only)\n",
                name.c_str(), value.value);
  }
  std::printf("  ops                  %lld attempted, %lld failed\n",
              static_cast<long long>(ops.attempted.load()),
              static_cast<long long>(ops.failed.load()));

  // A metric no source filled, or one that is not finite, fails the run
  // instead of reading as a plausible 0.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetricList()) {
      const auto it = layers.find(name);
      if (it == layers.end() || it->second.source.empty() ||
          !std::isfinite(it->second.value)) {
        ops.Fail(std::string("per-layer metric ") + name + " missing or not finite");
        continue;
      }
      metrics.push_back({name, {it->second.value, unit}});
    }
  } else {
    metrics = {
        {"setup_s", {Quantile(times.setup_s, 0.5), "s"}},
        {"requests_per_s", {requests_per_s, "1/s"}},
        {"request_p50_ms", {p50_ms, "ms"}},
        {"request_p90_ms", {p90_ms, "ms"}},
        {"cpu_ms_per_request", {cpu_ms, "ms"}},
        {"peak_rss_mb", {PeakRssMb(), "MiB"}},
        {"match_f1", {match_f1, "ratio"}},
        {"append_p50_ms", {Quantile(append_ms, 0.5), "ms"}},
    };
    for (const auto& [name, value] : metrics) {
      if (!std::isfinite(value.first) || value.first <= 0.0) {
        ops.Fail("end-to-end metric " + name + " missing or not positive");
      }
    }
  }
  workload->Teardown();
  std::filesystem::remove_all(options.out_dir + "/checkpoints", ec);

  const int64_t failed = ops.failed.load();
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted.load());
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            JsonNumber(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace servebench
