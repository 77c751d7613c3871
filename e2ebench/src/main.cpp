// bifrost_e2ebench: end-to-end benchmark of the Bifrost middleware.
//
//   bifrost_e2ebench --workload <proxy-steady|check-storm|live-rollout>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// This process is the Bifrost process: proxies, engine, metrics server
// and journal run here. It re-executes itself with --load-process for
// the process that hosts the backends and generates user traffic, and
// pins the two to disjoint CPU sets when the affinity mask allows; and
// with --idle-poll for the process that keeps idle CPUs from halting.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

/// --idle-poll: one SCHED_IDLE spinning thread per allowed CPU until
/// stdin closes. SCHED_IDLE runs only when nothing else is runnable and
/// is preempted on any wake-up, so it takes no CPU from the benchmark;
/// it only stops idle vCPUs from halting.
int idle_poll_main() {
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (const int cpu : allowed_cpus()) {
    spinners.emplace_back([cpu, &stop] {
      pin_self({cpu});
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
  char buf[64];
  while (::read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  stop = true;
  for (std::thread& t : spinners) t.join();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bifrost_e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:");
  for (const std::string& name : e2ebench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--load-process") == 0) {
    return e2ebench::load_process_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--idle-poll") == 0) return idle_poll_main();
  bifrost::util::set_log_level(bifrost::util::LogLevel::kError);
  e2ebench::RunOptions options;
  options.out_dir = ".bench_build/run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) return usage();
  ::mkdir(options.out_dir.c_str(), 0755);

  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return 1;
  exe[n] = '\0';
  options.self_exe = exe;

  // Pin before any thread exists, so every Bifrost thread inherits it.
  const std::vector<int> cpus = allowed_cpus();
  options.all_cpus = cpus;
  if (cpus.size() >= 2) {
    const std::size_t half = cpus.size() / 2;
    options.bifrost_cpus.assign(cpus.begin(), cpus.begin() + static_cast<long>(half));
    options.load_cpus.assign(cpus.begin() + static_cast<long>(half), cpus.end());
    if (!pin_self(options.bifrost_cpus)) {
      options.bifrost_cpus.clear();
      options.load_cpus.clear();
    }
  }
  return e2ebench::run_benchmark(options);
}
