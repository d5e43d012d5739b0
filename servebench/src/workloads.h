#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  /// Scratch directory for session checkpoints and the span dump.
  std::string out_dir;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: prints its report and, as the last stdout line, the
/// result JSON. Returns the process exit code (0 unless the run could not
/// produce a result).
int RunBenchmark(const BenchOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
