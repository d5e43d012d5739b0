// servebench: closed-loop serving benchmark of the LTE library.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --out-dir <dir>
//
// Normally launched through servebench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::BenchOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.out_dir.empty() || !(options.seconds > 0.0)) {
    return Usage();
  }
  for (const std::string& name : servebench::WorkloadNames()) {
    if (name == options.workload) return servebench::RunBenchmark(options);
  }
  std::fprintf(stderr, "servebench: unknown workload \"%s\"\n",
               options.workload.c_str());
  return Usage();
}
