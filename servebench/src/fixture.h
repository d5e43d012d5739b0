#ifndef SERVEBENCH_FIXTURE_H_
#define SERVEBENCH_FIXTURE_H_

// Inputs shared by every workload: the corpus (table, subspaces, model
// options, ground-truth generator), the simulated users drawn from the
// workload seed, and the small statistics helpers the report needs.
//
// The corpus is built from a fixed seed and the workload seed draws only the
// traffic (interest regions, oracle labels, candidate rows, request order,
// appended rows). Re-drawing the table and the generator's clustering per
// seed moved match_f1 and the per-user work by several percent between seeds,
// which no amount of traffic per run averages away.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/subspace.h"
#include "data/table.h"
#include "eval/uir_generator.h"
#include "preprocess/normalizer.h"

namespace servebench {

namespace core = lte::core;
namespace data = lte::data;
namespace eval = lte::eval;
namespace preprocess = lte::preprocess;
using lte::Rng;
using lte::Status;

// Sizes and pinned knobs. Every thread count is explicit: the library's
// "0 = auto" would make the work shape depend on the host.
inline constexpr uint64_t kCorpusSeed = 20231;
inline constexpr int64_t kTableRows = 8192;  // 8 scan blocks of 1024 rows.
inline constexpr int64_t kPretrainThreads = 4;  // ExplorerOptions.num_threads
inline constexpr int64_t kTrainerThreads = 1;   // MetaTrainerOptions.num_threads
inline constexpr int64_t kSessionThreads = 1;   // per-session override
inline constexpr int64_t kSetupThreads = 4;     // setup adapts fan out
inline constexpr int64_t kSetups = 5;           // setup_s is their median
// Turns, labels per turn and pool size follow the library's own iterative
// protocol defaults (eval::PolicySweepOptions: rounds 5, batch 5,
// candidate_pool 200); the paper fixes no per-turn shape.
inline constexpr int64_t kTurns = 5;            // turns after StartExploration
inline constexpr int64_t kCandidates = 200;     // SuggestTuples pool per turn
inline constexpr int64_t kSuggestK = 5;         // labels asked per turn
// One first page of results; an assumption, not taken from any source.
inline constexpr int64_t kPreviewLimit = 20;    // RetrieveMatches preview
inline constexpr int64_t kEvalThreads = 4;      // untimed F1 evaluation

/// The user-independent half of every workload.
struct Corpus {
  data::Table table;  // Min-max normalized SDSS-like rows.
  preprocess::MinMaxNormalizer normalizer;
  std::vector<data::Subspace> subspaces;
  core::ExplorerOptions options;
  std::unique_ptr<eval::UirGenerator> generator;
};

/// Builds the corpus from kCorpusSeed (input generation; never timed).
std::unique_ptr<Corpus> BuildCorpus();

/// One active-learning turn's inputs: the candidate points offered to
/// SuggestTuples and the oracle's label for each of them.
struct TurnInput {
  int64_t subspace = 0;
  std::vector<std::vector<double>> candidates;
  std::vector<double> labels;
};

/// One simulated user: a ground-truth interest region, the oracle's answers
/// and the session seed. Start labels depend on the model's initial tuples,
/// so they are filled once the first setup has pretrained.
struct User {
  eval::GroundTruthUir uir;
  uint64_t session_seed = 0;
  std::vector<std::vector<double>> start_labels;
  std::vector<TurnInput> turns;  // kTurns entries.
};

/// Draws `n` users: interest regions cycle through the paper's seven UIS
/// modes (mixed selectivity), candidates are rows sampled from the table.
std::vector<User> MakeUsers(const Corpus& corpus, int64_t n, Rng* rng);

/// Oracle labels of the model's initial tuples for every user.
void LabelStartTuples(const core::ExplorationModel& model,
                      const data::Table& table, std::vector<User>* users);

/// `count` batches of `rows` fresh in-distribution rows (new SDSS-like draws,
/// normalized with the corpus normalizer).
std::vector<std::vector<std::vector<double>>> MakeAppendBatches(
    const Corpus& corpus, int64_t count, int64_t rows, Rng* rng);

/// Fresh model for `corpus`, with the pinned thread knobs.
std::shared_ptr<core::ExplorationModel> NewModel(const Corpus& corpus);

/// Operation ledger: every library call whose Status the workload checks.
struct Ops {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  /// Counts one attempt; returns s.ok(). Prints the first few failures.
  bool Record(const lte::Status& s);
  /// Counts a failed output check as a failed operation.
  void Fail(const std::string& what);
};

/// Turn 0 of a user: StartExploration on the oracle's start labels, then
/// SuggestTuples over the first turn's candidates. `session` must be seeded.
bool StartUser(core::ExplorationSession* session, const User& user,
               std::vector<int64_t>* picked, Ops* ops);

/// Turn k (1..kTurns): ContinueExploration with the labels of the tuples
/// picked last turn, SuggestTuples for this turn's subspace, and (when
/// `table` is non-null) a preview RetrieveMatches.
bool ContinueUser(core::ExplorationSession* session, const User& user,
                  int64_t k, const data::Table* table,
                  std::vector<int64_t>* picked, Ops* ops);

/// A preview: RetrieveMatches limited to the first kPreviewLimit matches.
bool Preview(const core::ExplorationSession& session, const data::Table& table,
             Ops* ops);

/// Ground truth of `uir` over rows [0, table.num_rows()).
std::vector<uint8_t> TruthBitmap(const eval::GroundTruthUir& uir,
                                 const data::Table& table);

/// F1 of `matches` (ascending row ids) against `truth` restricted to rows
/// [0, n). 1.0 when both sets are empty.
double MatchF1(const std::vector<int64_t>& matches,
               const std::vector<uint8_t>& truth, int64_t n);

/// Runs fn(i) for i in [0, n) on `threads` std::threads, striped.
void ParallelStripes(int64_t n, int64_t threads,
                     const std::function<void(int64_t)>& fn);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Process CPU time (user + system, all threads), seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMb();
/// Monotonic clock, seconds.
double NowSeconds();

}  // namespace servebench

#endif  // SERVEBENCH_FIXTURE_H_
