// Block-scan serving throughput against the per-row oracle.
//
// The block scan (DESIGN.md §2b "Columnar serving path") evaluates one
// subspace at a time over 1024-row blocks gathered straight from the
// table's column storage, carrying each row's early-reject between
// subspaces. Its reference is the per-row oracle: `PredictRow` over every
// materialized `Table::Row`, fanned out over the same lane count. This bench
// sweeps variant x threads over a full-table PredictRows scan plus a bounded
// RetrieveMatches, reports throughput for the oracle and the block scan and
// their ratio, and verifies the contract as it goes: the scan must match the
// oracle byte for byte.
//
// The oracle materializes every row and allocates per call, so the
// `speedup` ratios (oracle / scan) are not comparable with figures recorded
// against the former row-at-a-time scan path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "bench_common.h"
#include "core/block_scan.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "eval/report.h"
#include "nn/dispatch.h"

namespace lte::bench {
namespace {

/// One (variant, threads) configuration of the sweep, both paths timed.
struct SweepRow {
  std::string variant;
  int64_t threads = 0;
  double row_wall_s = 0.0;  // The per-row oracle.
  double col_wall_s = 0.0;
  double row_rows_per_s = 0.0;
  double col_rows_per_s = 0.0;
  double speedup = 0.0;       // oracle / columnar.
  bool bit_identical = true;  // oracle vs columnar.
  // Rows that reached the batch forward in one full-table scan (the rest
  // were settled by the Meta* FP/FN subregions); deterministic.
  int64_t rows_forwarded = 0;
  // Rows of that scan that needed the direct FP/FN hull test (the rest took
  // their grid cell's proven membership); deterministic, 0 without
  // subregions.
  int64_t rows_located = 0;
};

const char* VariantName(core::Variant v) {
  switch (v) {
    case core::Variant::kBasic:
      return "Basic";
    case core::Variant::kMeta:
      return "Meta";
    case core::Variant::kMetaStar:
      return "Meta*";
  }
  return "?";
}

/// Scripted user labels: interesting iff the subspace point's first
/// coordinate falls below the 40% quantile of the initial tuples' firsts —
/// guaranteed mixed, so the conjunctive scan has real survivors to narrow.
std::vector<std::vector<double>> UserLabels(
    const core::ExplorationModel& model) {
  std::vector<std::vector<double>> labels(
      static_cast<size_t>(model.num_subspaces()));
  for (int64_t s = 0; s < model.num_subspaces(); ++s) {
    const auto& tuples = *model.InitialTuples(s);
    std::vector<double> firsts;
    firsts.reserve(tuples.size());
    for (const auto& t : tuples) firsts.push_back(t[0]);
    std::sort(firsts.begin(), firsts.end());
    const double threshold = firsts[(4 * firsts.size()) / 10];
    for (const auto& t : tuples) {
      labels[static_cast<size_t>(s)].push_back(t[0] < threshold ? 1.0 : 0.0);
    }
  }
  return labels;
}

/// The per-row oracle over `rows`, fanned out over `threads` lanes.
void OraclePredictRows(const core::ExplorationSession& session,
                       const data::Table& table,
                       const std::vector<int64_t>& rows, int64_t threads,
                       std::vector<double>* out) {
  out->assign(rows.size(), 0.0);
  ThreadPool::Shared().ParallelFor(
      0, static_cast<int64_t>(rows.size()), threads, [&](int64_t i) {
        const auto k = static_cast<size_t>(i);
        (*out)[k] = session.PredictRow(table.Row(rows[k])).value_or(-1.0);
      });
}

void Run() {
  PrintHeader("Block scan vs per-row oracle: variant x threads sweep");
  std::printf("hardware threads available: %lld\n",
              static_cast<long long>(DefaultThreadCount()));
  // Which kernel body ran: 4 = AVX2, 2 = SSE2 or generic vectors.
  std::printf("kernel width: %d\n", nn::KernelWidth());

  const int64_t rows = SmokeMode() ? 6000 : (FullScale() ? 100000 : 30000);
  const int64_t reps = SmokeMode() ? 2 : (FullScale() ? 5 : 3);
  Rng data_rng(11);
  const data::Table sdss = data::MakeSdssLike(rows, &data_rng);

  // One shared model with meta-training on, so the memory-mode variants are
  // servable. The serving path is what's measured, so meta-training itself
  // is kept cheap: few tasks and epochs, but the embedding (and with it the
  // per-row forward cost this bench exists to measure) stays at scale.
  core::ExplorerOptions opt = BaseRunnerOptions(1, ConvexPsi()).explorer;
  opt.num_meta_tasks = SmokeMode() ? 30 : 150;
  opt.trainer.epochs = SmokeMode() ? 1 : 2;
  auto model = std::make_shared<core::ExplorationModel>(opt);
  Rng pretrain_rng(42);
  if (!model->Pretrain(sdss, SdssSubspaces(), /*train_meta=*/true,
                      &pretrain_rng)
           .ok()) {
    std::printf("pretrain failed\n");
    return;
  }

  std::vector<int64_t> all_rows(static_cast<size_t>(sdss.num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const std::vector<std::vector<double>> labels = UserLabels(*model);

  const std::vector<core::Variant> variants = {
      core::Variant::kBasic, core::Variant::kMeta, core::Variant::kMetaStar};
  const std::vector<int64_t> thread_sweep =
      SmokeMode() ? std::vector<int64_t>{1, 2}
                  : std::vector<int64_t>{1, 2, 4};

  bool all_identical = true;
  double meta_single_thread_speedup = 0.0;
  std::vector<SweepRow> results;
  eval::TextTable table({"variant x threads", "oracle (s)", "columnar (s)",
                         "col rows/s", "col speedup", "identical",
                         "forwarded", "located"});
  for (const core::Variant variant : variants) {
    for (const int64_t threads : thread_sweep) {
      core::ExplorationSession session(model, threads);
      Rng rng(1000);
      if (!session.StartExploration(labels, variant, &rng).ok()) {
        std::printf("StartExploration failed for %s\n", VariantName(variant));
        return;
      }

      SweepRow row;
      row.variant = VariantName(variant);
      row.threads = threads;

      // Same adapted session answers the oracle and the scan, so any output
      // difference below is the scan implementation's fault alone. One
      // untimed warmup per path settles scratch capacities and the page
      // cache; the untimed RetrieveMatches call feeds the byte-identity
      // check without polluting the scan timing.
      std::vector<double> row_preds;
      std::vector<double> col_preds;
      std::vector<int64_t> row_matches;
      std::vector<int64_t> col_matches;

      OraclePredictRows(session, sdss, all_rows, threads, &row_preds);
      // The oracle's bounded retrieval: its first 500 matches in row order.
      for (size_t r = 0; r < row_preds.size() && row_matches.size() < 500;
           ++r) {
        if (row_preds[r] > 0.5) row_matches.push_back(static_cast<int64_t>(r));
      }
      if (!session.PredictRows(sdss, all_rows, &col_preds).ok()) return;
      if (!session.RetrieveMatches(sdss, /*limit=*/500, &col_matches).ok()) {
        return;
      }
      // The same full-table scan once more, as a bare one-subscriber pass
      // for its forward and hull-test counts.
      std::vector<double> counted(all_rows.size(), 0.0);
      core::ScanSubscriber counter;
      counter.session = &session;
      counter.predictions = counted;
      const core::BlockScanStats counts =
          core::RunBlockScan(sdss, all_rows, {&counter, 1}, threads);
      row.rows_forwarded = counts.rows_forwarded;
      row.rows_located = counts.rows_located;

      // Interleave single full-table passes and keep the minimum wall per
      // path. Back-to-back rep blocks attribute any machine-state drift
      // (frequency, competing load) to whichever path ran second; the
      // interleaved minimum compares the two paths' best under near-identical
      // conditions.
      row.row_wall_s = 0.0;
      row.col_wall_s = 0.0;
      for (int64_t r = 0; r < reps; ++r) {
        Stopwatch row_sw;
        OraclePredictRows(session, sdss, all_rows, threads, &row_preds);
        const double row_s = row_sw.ElapsedSeconds();
        if (r == 0 || row_s < row.row_wall_s) row.row_wall_s = row_s;

        Stopwatch col_sw;
        if (!session.PredictRows(sdss, all_rows, &col_preds).ok()) return;
        const double col_s = col_sw.ElapsedSeconds();
        if (r == 0 || col_s < row.col_wall_s) row.col_wall_s = col_s;
      }

      row.bit_identical = row_preds == col_preds &&
                          row_matches == col_matches && counted == col_preds;
      all_identical = all_identical && row.bit_identical;
      const double scanned = static_cast<double>(rows);
      row.row_rows_per_s =
          row.row_wall_s > 0.0 ? scanned / row.row_wall_s : 0.0;
      row.col_rows_per_s =
          row.col_wall_s > 0.0 ? scanned / row.col_wall_s : 0.0;
      row.speedup =
          row.col_wall_s > 0.0 ? row.row_wall_s / row.col_wall_s : 0.0;
      if (variant == core::Variant::kMeta && threads == 1) {
        meta_single_thread_speedup = row.speedup;
      }
      table.AddRow(row.variant + " x " + std::to_string(threads),
                   {row.row_wall_s, row.col_wall_s, row.col_rows_per_s,
                    row.speedup, row.bit_identical ? 1.0 : 0.0,
                    static_cast<double>(row.rows_forwarded),
                    static_cast<double>(row.rows_located)},
                   2);
      results.push_back(row);
    }
  }
  table.Print();
  std::printf("all oracle/columnar pairs byte-identical: %s\n",
              all_identical ? "yes" : "NO — scan contract violated");
  std::printf("Meta single-thread columnar speedup over the per-row oracle: "
              "%.2fx\n",
              meta_single_thread_speedup);

  const std::string json_path = JsonOutputPath();
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("could not open %s for writing\n", json_path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"columnar_scan\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n",
                 SmokeMode() ? "smoke" : (FullScale() ? "full" : "scaled"));
    std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(rows));
    std::fprintf(f, "  \"reps\": %lld,\n", static_cast<long long>(reps));
    std::fprintf(f, "  \"hardware_threads\": %lld,\n",
                 static_cast<long long>(DefaultThreadCount()));
    std::fprintf(f, "  \"kernel_width\": %d,\n", nn::KernelWidth());
    std::fprintf(f,
                 "  \"speedup_reference\": \"per-row PredictRow oracle\",\n");
    std::fprintf(f, "  \"bit_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "  \"meta_single_thread_speedup\": %.3f,\n",
                 meta_single_thread_speedup);
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const SweepRow& r = results[i];
      std::fprintf(
          f,
          "    {\"variant\": \"%s\", \"threads\": %lld, "
          "\"row_wall_s\": %.6f, \"columnar_wall_s\": %.6f, "
          "\"row_rows_per_s\": %.1f, \"columnar_rows_per_s\": %.1f, "
          "\"speedup\": %.3f, \"bit_identical\": %s, "
          "\"rows_forwarded\": %lld, \"rows_located\": %lld}%s\n",
          r.variant.c_str(), static_cast<long long>(r.threads), r.row_wall_s,
          r.col_wall_s, r.row_rows_per_s, r.col_rows_per_s, r.speedup,
          r.bit_identical ? "true" : "false",
          static_cast<long long>(r.rows_forwarded),
          static_cast<long long>(r.rows_located),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON results to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace lte::bench

int main() {
  lte::bench::Run();
  return 0;
}
