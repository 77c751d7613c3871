// The three workloads and one run of them: set-up, measured phases, the
// rate ladder, correctness checks and the metrics they yield.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;   ///< scratch files: journals, records, traces
  std::string self_exe;  ///< this binary, re-executed for the child processes
  std::vector<int> bifrost_cpus;  ///< where this process is pinned (may be empty)
  std::vector<int> load_cpus;     ///< where the load process is pinned
  std::vector<int> all_cpus;      ///< the affinity mask the run started with
};

/// Runs one workload; prints the run record and, last, the result JSON.
/// Returns the process exit code.
int run_benchmark(const RunOptions& options);

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> workload_names();

}  // namespace e2ebench
