#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "harness.hpp"
#include "json/json.hpp"
#include "metrics/query.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2ebench {

using namespace bifrost;
using engine::StatusEvent;

namespace {

constexpr double kSloP99Us = 1000.0;     ///< rps_at_slo latency limit (p99)
constexpr double kLateBoundUs = 200.0;   ///< loadgen.late_p99_us validity bound
constexpr double kLadderStep = 1.04;     ///< rate ladder: rungs 4% apart
constexpr double kTraceDirectShare = 0.1;
/// Latency percentiles are medians over windows of this many samples.
constexpr std::size_t kRequestWindow = 1000;
constexpr std::size_t kCheckWindow = 250;
/// CPU figures are medians over blocks of this length.
constexpr std::chrono::milliseconds kCpuBlock{500};
/// Rounds in which the user path and the strategy path alternate when a
/// workload runs them apart.
constexpr int kRounds = 4;
/// Set-ups per run; setup_s is their median. All but the first are spare
/// set-ups, kSetupsPerGap after each phase of the first pass, so the
/// median samples the whole run rather than its first fraction of a second.
constexpr int kSetupsPerGap = 2;
constexpr int kSetups = 1 + 2 * kRounds * kSetupsPerGap;

// ---------------------------------------------------------------------------
// Strategies (generated DSL text, compiled by dsl::compile during set-up)

/// A check's metric query. Only a query that can legitimately return no
/// data gets `failOnNoData: false`: with it the engine also skips provider
/// errors, so a failed query could not fail the check.
struct Query {
  std::string text;
  bool may_be_empty = false;
};

struct StateSpec {
  std::string name;
  int checks = 0;
  int executions = 0;
  double interval = 0.1;
  double canary_percent = 0.0;  ///< of the routed service
  bool sticky = false;
  bool shadow = false;          ///< 100% duplication stable -> dark
  std::vector<Query> queries;   ///< per check; default: own series
};

std::string series_query(const std::string& state, int check) {
  return "bench_check{state=\"" + state + "\",check=\"c" +
         std::to_string(check) + "\"}";
}

std::string split_yaml(const std::string& indent, double canary_percent) {
  std::ostringstream out;
  out << indent << "split:\n";
  if (canary_percent < 100.0) {
    out << indent << "  - version: stable\n"
        << indent << "    percent: " << 100.0 - canary_percent << "\n";
  }
  if (canary_percent > 0.0) {
    out << indent << "  - version: canary\n"
        << indent << "    percent: " << canary_percent << "\n";
  }
  return out.str();
}

std::string checks_yaml(const std::string& indent, const StateSpec& state) {
  std::ostringstream out;
  out << indent << "checks:\n";
  for (int c = 0; c < state.checks; ++c) {
    const Query query = c < static_cast<int>(state.queries.size())
                            ? state.queries[static_cast<std::size_t>(c)]
                            : Query{series_query(state.name, c), false};
    out << indent << "  - check:\n"
        << indent << "      name: c" << c << "\n"
        << indent << "      intervalTime: " << state.interval << "\n"
        << indent << "      intervalLimit: " << state.executions << "\n"
        << indent << "      metrics:\n"
        << indent << "        - metric:\n"
        << indent << "            provider: prometheus\n"
        << indent << "            query: '" << query.text << "'\n"
        << indent << "            validator: \"<100000\"\n";
    if (query.may_be_empty) out << indent << "            failOnNoData: false\n";
  }
  return out.str();
}

std::string route_yaml(const std::string& service, double canary_percent,
                       bool sticky, bool shadow) {
  std::ostringstream out;
  out << "        routes:\n"
      << "          - route:\n"
      << "              service: " << service << "\n";
  if (sticky) out << "              sticky: true\n";
  out << split_yaml("              ", canary_percent);
  if (shadow) {
    out << "              shadows:\n"
        << "                - shadow: { from: stable, to: dark, percent: 100 }\n";
  }
  return out.str();
}

std::string deployment_yaml(const std::string& service, std::uint16_t admin,
                            const Endpoints& e) {
  std::ostringstream out;
  out << "deployment:\n"
      << "  providers:\n"
      << "    prometheus: { host: 127.0.0.1, port: " << e.metrics_port << " }\n"
      << "  services:\n"
      << "    - service:\n"
      << "        name: " << service << "\n"
      << "        proxy: { adminHost: 127.0.0.1, adminPort: " << admin << " }\n"
      << "        versions:\n";
  for (int v = 0; v < kVersionCount; ++v) {
    out << "          - version: { name: " << kVersions[v]
        << ", host: 127.0.0.1, port: " << e.backends.port[v] << " }\n";
  }
  return out.str();
}

/// A chain of states s_0 -> ... -> s_n -> done, each with its checks and
/// a routing change; any failing state rolls back.
std::string chain_yaml(const std::string& name, const std::string& service,
                       std::uint16_t admin, const std::vector<StateSpec>& states,
                       const std::string& tail, const Endpoints& e) {
  std::ostringstream out;
  out << "strategy:\n  name: " << name << "\n  initial: " << states.front().name
      << "\n  states:\n";
  for (std::size_t i = 0; i < states.size(); ++i) {
    const StateSpec& s = states[i];
    const std::string next =
        i + 1 < states.size() ? states[i + 1].name : (tail.empty() ? "done" : "ramp-25");
    out << "    - state:\n        name: " << s.name << "\n"
        << "        onSuccess: " << next << "\n        onFailure: rollback\n"
        << checks_yaml("        ", s)
        << route_yaml(service, s.canary_percent, s.sticky, s.shadow);
  }
  out << tail;
  out << "    - state:\n        name: done\n        final: success\n"
      << route_yaml(service, 100.0, false, false)
      << "    - state:\n        name: rollback\n        final: rollback\n"
      << route_yaml(service, 0.0, false, false);
  out << deployment_yaml(service, admin, e);
  return out.str();
}

// check-storm: tens of short states, many sub-second checks each, and a
// new split at every state boundary.
constexpr int kStormStates = 20;
constexpr int kStormChecks = 8;
constexpr int kStormExecutions = 4;
constexpr double kStormInterval = 0.05;
std::vector<StateSpec> storm_states(int count) {
  std::vector<StateSpec> states;
  for (int i = 0; i < count; ++i) {
    states.push_back(StateSpec{"s" + std::to_string(i), kStormChecks,
                               kStormExecutions, kStormInterval,
                               10.0 + 10.0 * (i % 9), false, false, {}});
  }
  return states;
}
std::string storm_yaml(const Endpoints& e) {
  return chain_yaml("check-storm", "svc", e.data_admin_port,
                    storm_states(kStormStates), "", e);
}

// proxy-steady: the first half of the storm, pushed to a second, idle
// proxy ("ctl"), so the strategy-step path is measured while the data
// proxy sees no change. A lighter strategy is not steady: a share of
// state visits, varying between runs, comes one check interval late, and
// only many visits per run average that share out.
constexpr int kProbeStates = kStormStates / 2;
std::string probe_yaml(const Endpoints& e) {
  return chain_yaml("control-probe", "ctl", e.control_admin_port,
                    storm_states(kProbeStates), "", e);
}

// live-rollout: the paper's four phases, compressed. Checks read the
// proxy's own series (scraped into the store); each check's query text
// is unique within its state. The canary series exist only once canary
// traffic has been scraped (its error counter only once it errs), so
// only those two queries may come back empty.
std::vector<Query> rollout_queries() {
  return {
      {"sum(bifrost_proxy_requests_total{version=\"stable\"}) + 0*1", false},
      {"sum(bifrost_proxy_backend_errors_total{version=\"canary\"}) + 0*2", true},
      {"sum(bifrost_proxy_request_latency_ms_sum{version=\"stable\"}) / "
       "sum(bifrost_proxy_request_latency_ms_count{version=\"stable\"})",
       false},
      {"sum(bifrost_proxy_requests_total{version=\"canary\"}) + 0*4", true},
  };
}
std::vector<StateSpec> rollout_states() {
  const auto q = rollout_queries();
  return {
      StateSpec{"canary", 2, 6, 0.05, 10.0, false, false, q},
      StateSpec{"dark", 2, 6, 0.05, 0.0, false, true, q},
      StateSpec{"ab", 2, 6, 0.05, 50.0, true, false, q},
  };
}
std::string rollout_yaml(const Endpoints& e) {
  StateSpec ramp{"ramp", 2, 4, 0.05, 0.0, false, false, rollout_queries()};
  std::ostringstream tail;
  tail << "    - rollout:\n        name: ramp\n        service: svc\n"
       << "        from: stable\n        to: canary\n"
       << "        startPercent: 25\n        stepPercent: 25\n"
       << "        endPercent: 100\n        stepDuration: 0.2\n"
       << "        onComplete: done\n        onFailure: rollback\n"
       << checks_yaml("        ", ramp);
  return chain_yaml("live-rollout", "svc", e.data_admin_port, rollout_states(),
                    tail.str(), e);
}

/// Three samples per series at t = 1000..1002 s, values well under every
/// validator. `check_series` names come first, fillers share the metric
/// name so selectors have to look at labels.
void prefill_series(metrics::TimeSeriesStore& store,
                    const std::vector<std::pair<std::string, int>>& checks,
                    std::size_t total, std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 7));
  std::size_t n = 0;
  const auto add = [&](const std::string& state, const std::string& check) {
    for (int s = 0; s < 3; ++s) {
      store.record("bench_check", {{"state", state}, {"check", check}},
                   1000.0 + s, rng.uniform() * 50.0);
    }
    ++n;
  };
  for (const auto& [state, count] : checks) {
    for (int c = 0; c < count; ++c) add(state, "c" + std::to_string(c));
  }
  for (std::size_t f = 0; n < total; ++f) add("f" + std::to_string(f), "c0");
}
/// The storm's series, which also cover the probe's (its first half).
void prefill_storm(metrics::TimeSeriesStore& store, std::size_t total,
                   std::uint64_t seed) {
  std::vector<std::pair<std::string, int>> checks;
  for (const StateSpec& s : storm_states(kStormStates)) checks.emplace_back(s.name, s.checks);
  prefill_series(store, checks, total, seed);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  double rate;          ///< offered user requests per second
  Mix mix;
  std::uint32_t users;  ///< seeded cookie population
  bool sticky_split;    ///< data proxy 90/10 sticky for the whole run
  bool control_proxy;
  std::size_t prefill;  ///< synthetic series in the metrics store
  std::string (*yaml)(const Endpoints&);
  void (*prefill_fn)(metrics::TimeSeriesStore&, std::size_t, std::uint64_t);
  /// Wall time reserved per strategy run: a phase of T seconds runs
  /// floor(T / slot) strategies back to back (at least one).
  double slot_s;
  bool scrape;          ///< scrape the proxy's /metrics into the store
  /// Shares of a run's --seconds: user traffic alone, strategies alone,
  /// both at once, and (untraced runs only) the rate ladder.
  double users_alone;
  double strategies_alone;
  double together;
  double ladder;
};

// About a quarter of the rps_at_slo measured when the benchmark was
// introduced (20-30k req/s on 2 CPUs): at half, the proxy's p90 and p99
// were too unsteady between runs. live-rollout runs at a quarter of it.
constexpr double kSteadyRate = 7500.0;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"proxy-steady", kSteadyRate, Mix::kTiny, 50000, true, true, 300, &probe_yaml,
       &prefill_storm, 3.0, false, 0.4, 0.35, 0.0, 0.25},
      {"check-storm", kSteadyRate, Mix::kTiny, 2000, false, false, 300, &storm_yaml,
       &prefill_storm, 5.5, false, 0.35, 0.65, 0.0, 0.0},
      {"live-rollout", kSteadyRate / 4.0, Mix::kPaper, 5000, false, false, 0,
       &rollout_yaml, nullptr, 2.0, true, 0.0, 0.0, 1.0, 0.0},
  };
  return all;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Self-rescheduling timer on the engine's event loop; its lateness is
/// the time work waits for the single automaton thread.
class LoopProbe {
 public:
  LoopProbe(runtime::EventLoop& loop, Probes& probes) : loop_(loop), probes_(probes) {}
  void start() {
    on_ = true;
    arm(loop_.now() + std::chrono::milliseconds(1));
  }
  void stop() { on_ = false; }

 private:
  void arm(runtime::Time when) {
    loop_.schedule_at(when, [this, when] {
      if (!on_) return;
      const runtime::Time now = loop_.now();
      {
        const std::lock_guard<std::mutex> lock(probes_.mutex);
        probes_.loop_lag_ns.push_back((now - when).count());
      }
      arm(now + std::chrono::milliseconds(1));
    });
  }
  runtime::EventLoop& loop_;
  Probes& probes_;
  std::atomic<bool> on_{false};
};

/// Everything one measured phase produced.
struct Phase {
  std::vector<ClientRecord> client;
  std::vector<BackendRecord> backend;
  std::vector<std::string> strategy_ids;
  double wall_s = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t shadow_requests = 0;
  std::uint64_t shadow_copies = 0;
  std::uint64_t shadows_shed = 0;
  /// (time, process CPU seconds) every kCpuBlock, for per-block figures.
  std::vector<std::pair<std::int64_t, double>> cpu_samples;
  std::string error;
};

struct Run {
  const Workload* workload = nullptr;
  RunOptions options;
  Probes probes;
  std::unique_ptr<ChildProcess> poller;  ///< keeps every CPU out of idle
  std::unique_ptr<ChildProcess> load;
  BackendPorts ports;
  std::unique_ptr<LoopProbe> loop_probe;  // outlives the stack's loop tasks
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  int phases = 0;
  bool setup_strategy_pending = true;  ///< submitted in set-up, not yet run
  std::uint32_t next_request_id = 1;
  std::string file(const std::string& name) const {
    return options.out_dir + "/" + name;
  }
};

StackSpec stack_spec(const Run& run) {
  StackSpec spec;
  spec.sticky_split = run.workload->sticky_split;
  spec.control_proxy = run.workload->control_proxy;
  spec.prefill_series = run.workload->prefill;
  spec.pool_workers = std::max<std::size_t>(1, run.options.bifrost_cpus.size());
  spec.seed = run.options.seed;
  spec.strategy_yaml = run.workload->yaml;
  spec.prefill = run.workload->prefill_fn;
  return spec;
}

/// One timed set-up into `stack`: build every Bifrost component (with its
/// journal at `journal`), compile the strategy, have it accepted and one
/// request answered. Returns an error text, empty on success.
std::string set_up(Run& run, const std::string& journal, std::unique_ptr<Stack>& stack) {
  const std::int64_t start = mono_ns();
  StackSpec spec = stack_spec(run);
  spec.journal_path = run.file(journal);
  try {
    stack = std::make_unique<Stack>(spec, run.ports, run.probes);
    if (std::string error = stack->finish_setup(); !error.empty()) return error;
  } catch (const std::exception& e) {
    return e.what();
  }
  run.setup_s.push_back(static_cast<double>(mono_ns() - start) / 1e9);
  run.compile_ms.push_back(stack->dsl_compile_ms);
  return "";
}

/// Open-loop traffic through the data proxy; returns the client records.
bool start_traffic(Run& run, double rate, double seconds, std::uint64_t seed,
                   Mix mix, double direct_share, const std::string& out) {
  TrafficSpec spec;
  spec.proxy_port = run.stack->data_proxy->data_port();
  spec.direct_port = run.ports.port[0];
  spec.rate = rate;
  spec.seconds = seconds;
  spec.seed = seed;
  spec.users = run.workload->users;
  spec.population = run.options.seed;  // one user population per run
  spec.first_id = run.next_request_id;  // ids stay unique across phases
  run.next_request_id += static_cast<std::uint32_t>(rate * seconds * 2 + 1000);
  spec.mix = mix;
  spec.direct_share = direct_share;
  spec.t0_ns = mono_ns();
  spec.out_path = out;
  run.load->send("run " + spec.to_line());
  return run.load->read_line().rfind("started ", 0) == 0;
}

bool finish_traffic(Run& run, const std::string& out,
                    std::vector<ClientRecord>& records) {
  const std::string reply = run.load->read_line();
  if (reply.rfind("done ", 0) != 0) return false;
  return read_records(out, records);
}

int strategies_per_phase(const Workload& w, double seconds) {
  return std::max(1, static_cast<int>(seconds / w.slot_s));
}

/// One measured phase: open-loop user traffic, back-to-back strategy
/// runs, or both at once, with Bifrost's CPU sampled throughout.
Phase run_phase(Run& run, double seconds, bool traced, bool traffic, bool strategies) {
  Phase phase;
  Stack& stack = *run.stack;
  run.probes.tracing = traced;
  const std::uint64_t shadow0 = stack.data_proxy->shadow_requests();
  const std::uint64_t copies0 = stack.data_proxy->shadow_copies();
  const std::uint64_t shed0 = stack.data_proxy->shadows_shed();
  const std::string out = run.file("client-phase" + std::to_string(run.phases) + ".bin");
  const std::uint64_t traffic_seed = util::derive_seed(run.options.seed, 100 + run.phases);
  const std::size_t ids_before = stack.strategy_ids.size() - (run.setup_strategy_pending ? 1 : 0);

  phase.start_ns = mono_ns();
  std::atomic<bool> sampling{true};
  std::thread cpu_sampler([&] {
    while (sampling.load()) {
      phase.cpu_samples.emplace_back(mono_ns(), cpu_seconds());
      std::this_thread::sleep_for(kCpuBlock);
    }
  });
  if (traffic && !start_traffic(run, run.workload->rate, seconds, traffic_seed,
                                run.workload->mix, traced ? kTraceDirectShare : 0.0, out)) {
    phase.error = "load process did not start traffic";
  }
  std::atomic<bool> scraping{traffic && run.workload->scrape && phase.error.empty()};
  metrics::Scraper scraper(stack.loop, stack.store, std::chrono::milliseconds(100));
  scraper.add_target(metrics::Scraper::Target{
      "127.0.0.1", stack.data_proxy->admin_port(), "/metrics", {{"job", "svc"}}});
  // The stable series must be in the store before the first check reads them.
  if (scraping.load()) scraper.scrape_once();
  std::thread scrape_thread([&] {
    while (scraping.load()) {
      const std::int64_t start = mono_ns();
      scraper.scrape_once();
      if (run.probes.tracing.load()) {
        Timed timed;
        timed.start_ns = start;
        timed.end_ns = mono_ns();
        timed.track = thread_track();
        run.probes.record(run.probes.scrapes, std::move(timed));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  if (strategies && phase.error.empty()) {
    // The first strategy phase runs the strategy submitted during set-up.
    if (traced) run.loop_probe->start();
    const int count = strategies_per_phase(*run.workload, seconds);
    int target = stack.finished.load();
    if (!run.setup_strategy_pending && stack.submit().empty()) phase.error = "submit refused";
    run.setup_strategy_pending = false;
    stack.loop.start();
    const std::int64_t deadline =
        mono_ns() + static_cast<std::int64_t>((seconds * 2 + 10) * 1e9);
    for (int k = 0; k < count && phase.error.empty(); ++k) {
      ++target;
      while (stack.finished.load() < target && mono_ns() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stack.finished.load() < target) {
        phase.error = "strategy did not finish";
        break;
      }
      if (k + 1 < count && stack.submit().empty()) phase.error = "submit refused";
    }
    run.loop_probe->stop();
  }
  std::vector<ClientRecord> records;
  if (traffic && !finish_traffic(run, out, records) && phase.error.empty()) {
    phase.error = "traffic run failed";
  }
  phase.end_ns = mono_ns();
  phase.wall_s = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  scraping = false;
  scrape_thread.join();
  sampling = false;
  cpu_sampler.join();
  phase.cpu_samples.emplace_back(mono_ns(), cpu_seconds());
  run.probes.tracing = false;
  phase.client = std::move(records);
  if (strategies) {
    phase.strategy_ids.assign(stack.strategy_ids.begin() + static_cast<long>(ids_before),
                              stack.strategy_ids.end());
  }
  phase.shadow_requests = stack.data_proxy->shadow_requests() - shadow0;
  phase.shadow_copies = stack.data_proxy->shadow_copies() - copies0;
  phase.shadows_shed = stack.data_proxy->shadows_shed() - shed0;
  const std::string dump = run.file("backend-phase" + std::to_string(run.phases) + ".bin");
  if (run.load->call("dump " + dump).rfind("dumped", 0) != 0 ||
      !read_records(dump, phase.backend)) {
    if (phase.error.empty()) phase.error = "backend records lost";
  }
  ++run.phases;
  return phase;
}

/// One Phase holding several phases' records, strategy runs, counters and
/// CPU samples. A CPU block spanning the gap between two of them holds no
/// completions of the merged path, so cpu_us_per_unit skips it.
Phase merge_phases(std::vector<Phase> parts) {
  Phase all;
  for (Phase& part : parts) {
    all.client.insert(all.client.end(), part.client.begin(), part.client.end());
    all.backend.insert(all.backend.end(), part.backend.begin(), part.backend.end());
    all.strategy_ids.insert(all.strategy_ids.end(), part.strategy_ids.begin(),
                            part.strategy_ids.end());
    all.cpu_samples.insert(all.cpu_samples.end(), part.cpu_samples.begin(),
                           part.cpu_samples.end());
    all.wall_s += part.wall_s;
    all.shadow_requests += part.shadow_requests;
    all.shadow_copies += part.shadow_copies;
    all.shadows_shed += part.shadows_shed;
    if (!part.error.empty()) all.error += (all.error.empty() ? "" : "; ") + part.error;
  }
  if (!parts.empty()) {
    all.start_ns = parts.front().start_ns;
    all.end_ns = parts.back().end_ns;
  }
  return all;
}

// ---------------------------------------------------------------------------
// Correctness

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void fail(const std::string& what, std::uint64_t count = 1) {
    if (count == 0) return;
    failed += count;
    if (failures.size() < 20) failures.push_back(what + " (x" + std::to_string(count) + ")");
  }
};

/// One routing table the data proxy enacted, and when it may have been
/// live: from its state's entry until the next table's apply returned.
struct ConfigWindow {
  std::int64_t enter_ns = INT64_MIN;
  std::int64_t applied_ns = INT64_MIN;
  std::set<int> versions;
  bool sticky = false;
};

std::vector<ConfigWindow> config_timeline(Run& run) {
  Stack& stack = *run.stack;
  std::vector<ConfigWindow> windows;
  ConfigWindow initial;
  initial.versions.insert(0);
  if (run.workload->sticky_split) initial.versions.insert(1);
  initial.sticky = run.workload->sticky_split;
  windows.push_back(initial);
  const std::lock_guard<std::mutex> lock(stack.events_mutex);
  for (const Stack::Event& e : stack.events) {
    if (e.event.type == StatusEvent::Type::kStateEntered) {
      const core::StateDef* state = stack.strategy.find_state(e.event.state);
      if (state == nullptr) continue;
      for (const core::ServiceRouting& routing : state->routing) {
        if (routing.service != "svc") continue;
        ConfigWindow w;
        w.enter_ns = e.mono_ns;
        w.applied_ns = INT64_MAX;
        for (const core::VersionSplit& split : routing.splits) {
          if (split.percent > 0.0) w.versions.insert(version_index(split.version));
        }
        w.sticky = routing.sticky;
        windows.push_back(w);
      }
    } else if (e.event.type == StatusEvent::Type::kRoutingApplied &&
               e.event.check == "svc" && windows.size() > 1) {
      windows.back().applied_ns = e.mono_ns;
    }
  }
  return windows;
}

/// Versions that may legitimately serve a request in flight over
/// [send, recv]: those of every table possibly live in that interval.
std::set<int> allowed_versions(const std::vector<ConfigWindow>& windows,
                               std::int64_t send, std::int64_t recv) {
  std::set<int> allowed;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::int64_t until =
        i + 1 < windows.size() ? windows[i + 1].applied_ns : INT64_MAX;
    if (windows[i].enter_ns <= recv && until >= send) {
      allowed.insert(windows[i].versions.begin(), windows[i].versions.end());
    }
  }
  return allowed;
}

void check_requests(Run& run, const std::vector<const std::vector<ClientRecord>*>& all,
                    const std::vector<const std::vector<BackendRecord>*>& backends,
                    Checks& checks) {
  const std::vector<ConfigWindow> windows = config_timeline(run);
  std::uint64_t bad_status = 0, bad_version = 0, mislabelled = 0;
  // Sticky: (window, user) -> version, over requests wholly inside a
  // window where only that sticky table can be live.
  std::map<std::pair<std::size_t, std::uint32_t>, int> pinned;
  std::uint64_t unsticky = 0;
  // Split: the first response each user ever got in the initial table.
  std::map<std::uint32_t, int> first_seen;
  for (const auto* records : all) {
    for (const ClientRecord& r : *records) {
      ++checks.attempted;
      if (r.status != 200) {
        ++bad_status;
        continue;
      }
      if (r.target == static_cast<std::uint8_t>(Target::kDirect)) {
        if (r.served_by != 0) ++mislabelled;
        continue;
      }
      if (r.version < 0 || r.version != r.served_by) {
        ++mislabelled;
        continue;
      }
      const std::set<int> allowed = allowed_versions(windows, r.send_ns, r.recv_ns);
      if (allowed.count(r.version) == 0) ++bad_version;
      for (std::size_t i = 0; i < windows.size(); ++i) {
        if (!windows[i].sticky) continue;
        const std::int64_t end =
            i + 1 < windows.size() ? windows[i + 1].enter_ns : INT64_MAX;
        if (r.send_ns > windows[i].applied_ns && r.recv_ns < end) {
          const auto [it, inserted] = pinned.emplace(std::make_pair(i, r.user), r.version);
          if (!inserted && it->second != r.version) ++unsticky;
          if (i == 0) first_seen.emplace(r.user, r.version);
        }
      }
    }
  }
  checks.fail("responses not 200", bad_status);
  checks.fail("X-Bifrost-Version missing or not the backend that served", mislabelled);
  checks.fail("version outside the live split", bad_version);
  checks.fail("sticky cookie changed version", unsticky);
  if (run.workload->sticky_split) {
    ++checks.attempted;
    double n = 0, canary = 0;
    for (const auto& [user, version] : first_seen) {
      n += 1;
      if (version == 1) canary += 1;
    }
    const double tolerance = 5.0 * std::sqrt(n * 0.1 * 0.9) + 1.0;
    if (n < 100 || std::fabs(canary - 0.1 * n) > tolerance) {
      checks.fail("90/10 split off: " + std::to_string(canary) + " canary of " +
                  std::to_string(n) + " new sessions");
    }
  }
  std::uint64_t stray = 0;
  for (const auto* records : backends) {
    for (const BackendRecord& b : *records) {
      // The dark backend serves only duplicates, and duplicates only go there.
      if ((b.version == 2) != (b.shadow == 1)) ++stray;
    }
  }
  checks.fail("shadow backend got a live request or a shadow went elsewhere", stray);
}

/// Expected path: follow each state's success transition to a final state.
std::vector<std::string> expected_path(const core::StrategyDef& def) {
  std::vector<std::string> path;
  const core::StateDef* state = def.find_state(def.initial_state);
  while (state != nullptr && path.size() < 1000) {
    path.push_back(state->name);
    if (state->is_final() || state->transitions.empty()) break;
    state = def.find_state(state->transitions.back());
  }
  return path;
}

std::uint64_t expected_checks(const core::StrategyDef& def) {
  std::uint64_t n = 0;
  for (const std::string& name : expected_path(def)) {
    for (const core::CheckDef& check : def.find_state(name)->checks) {
      n += static_cast<std::uint64_t>(check.executions);
    }
  }
  return n;
}

void check_strategies(Run& run, const std::vector<std::string>& ids, Checks& checks) {
  Stack& stack = *run.stack;
  const std::vector<std::string> path = expected_path(stack.strategy);
  const std::uint64_t scheduled = expected_checks(stack.strategy);
  for (const std::string& id : ids) {
    ++checks.attempted;
    const auto snapshot = stack.engine->status(id);
    if (!snapshot || snapshot->status != engine::ExecutionStatus::kSucceeded) {
      checks.fail("strategy " + id + " did not succeed");
      continue;
    }
    std::vector<std::string> visited;
    for (const engine::StateVisit& visit : snapshot->history) visited.push_back(visit.state);
    if (visited != path) checks.fail("strategy " + id + " left the expected path");
    if (snapshot->checks_executed != scheduled) {
      checks.fail("strategy " + id + " ran " + std::to_string(snapshot->checks_executed) +
                  " checks, scheduled " + std::to_string(scheduled));
    }
  }
  ++checks.attempted;
  auto read = engine::read_journal_file(stack.journal_path);
  if (!read.ok()) {
    checks.fail("journal unreadable: " + read.error_message());
    return;
  }
  if (read.value().truncated_tail) checks.fail("journal has a truncated tail");
  std::map<std::string, const engine::JournalRecord*> last;
  for (const engine::JournalRecord& record : read.value().records) {
    const std::string id = record.data.get_string("id");
    if (!id.empty()) last[id] = &record;
  }
  for (const std::string& id : stack.strategy_ids) {
    const auto it = last.find(id);
    if (it == last.end() || it->second->type != engine::RecordType::kFinished ||
        it->second->data.get_string("status") != "succeeded") {
      checks.fail("journal: last record of " + id + " is not kFinished/succeeded");
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics from records and events

std::vector<double> request_latencies_us(const Phase& phase, Target target) {
  std::vector<double> out;
  for (const ClientRecord& r : phase.client) {
    if (r.target != static_cast<std::uint8_t>(target)) continue;
    // A failed request misses any latency limit.
    out.push_back(r.status == 200 ? static_cast<double>(r.recv_ns - r.due_ns) / 1e3
                                  : 1e12);
  }
  return out;
}

/// Bifrost CPU per unit of work, as the median over kCpuBlock blocks of
/// (CPU spent in the block / units completed in it); `done` holds the
/// completion times. Blocks that completed nothing are skipped.
double cpu_us_per_unit(const Phase& phase, std::vector<std::int64_t> done) {
  std::sort(done.begin(), done.end());
  std::vector<double> blocks;
  for (std::size_t b = 0; b + 1 < phase.cpu_samples.size(); ++b) {
    const auto& [t0, c0] = phase.cpu_samples[b];
    const auto& [t1, c1] = phase.cpu_samples[b + 1];
    const auto n = std::lower_bound(done.begin(), done.end(), t1) -
                   std::lower_bound(done.begin(), done.end(), t0);
    if (n > 0) blocks.push_back((c1 - c0) * 1e6 / static_cast<double>(n));
  }
  return median(blocks);
}

std::vector<std::int64_t> request_completions(const Phase& phase) {
  std::vector<std::int64_t> done;
  for (const ClientRecord& r : phase.client) {
    if (r.status == 200) done.push_back(r.recv_ns);
  }
  return done;
}

std::uint64_t completed_requests(const Phase& phase) {
  std::uint64_t n = 0;
  for (const ClientRecord& r : phase.client) n += r.status == 200 ? 1 : 0;
  return n;
}

struct EngineFigures {
  std::vector<double> enactment_s;  ///< StrategySnapshot::enactment_delay_seconds
  std::vector<double> check_lag_ms;
  std::vector<double> switch_ms;
  std::uint64_t checks = 0;
  /// Per check execution, for tracing: (state, check, due_ns, done_ns).
  struct Execution {
    std::string state;
    std::string check;
    std::int64_t due_ns;
    std::int64_t done_ns;
  };
  std::vector<Execution> executions;
  struct Switch {
    std::int64_t enter_ns;
    std::int64_t applied_ns;
  };
  std::vector<Switch> switches;
};

EngineFigures engine_figures(Run& run, const std::vector<std::string>& ids) {
  Stack& stack = *run.stack;
  EngineFigures f;
  const std::set<std::string> wanted(ids.begin(), ids.end());
  std::vector<Stack::Event> events;
  {
    const std::lock_guard<std::mutex> lock(stack.events_mutex);
    events = stack.events;
  }
  // Loop time -> monotonic ns, for spans.
  const std::int64_t offset = mono_ns() - stack.loop.now().count();
  const auto to_mono = [offset](double seconds) {
    return static_cast<std::int64_t>(seconds * 1e9) + offset;
  };
  std::map<std::string, double> base;  // strategy id -> arm time of first checks
  std::map<std::pair<std::string, std::string>, double> last_exec;
  std::map<std::string, double> entered;
  for (const Stack::Event& e : events) {
    const StatusEvent& ev = e.event;
    if (wanted.count(ev.strategy_id) == 0) continue;
    switch (ev.type) {
      case StatusEvent::Type::kStateEntered:
        base[ev.strategy_id] = ev.time_seconds;
        entered[ev.strategy_id] = ev.time_seconds;
        for (auto it = last_exec.begin(); it != last_exec.end();) {
          it = it->first.first == ev.strategy_id ? last_exec.erase(it) : std::next(it);
        }
        break;
      case StatusEvent::Type::kRoutingApplied:
        // Checks are armed once the state's routing is in place.
        base[ev.strategy_id] = ev.time_seconds;
        f.switch_ms.push_back((ev.time_seconds - entered[ev.strategy_id]) * 1e3);
        f.switches.push_back({to_mono(entered[ev.strategy_id]), to_mono(ev.time_seconds)});
        break;
      case StatusEvent::Type::kCheckExecuted: {
        const core::StateDef* state = stack.strategy.find_state(ev.state);
        double interval = 0.0;
        if (state != nullptr) {
          for (const core::CheckDef& c : state->checks) {
            if (c.name == ev.check) {
              interval = std::chrono::duration<double>(c.interval).count();
            }
          }
        }
        const auto key = std::make_pair(ev.strategy_id, ev.check);
        const auto it = last_exec.find(key);
        const double due = (it == last_exec.end() ? base[ev.strategy_id] : it->second) + interval;
        f.check_lag_ms.push_back((ev.time_seconds - due) * 1e3);
        f.executions.push_back({ev.state, ev.check, to_mono(due), to_mono(ev.time_seconds)});
        last_exec[key] = ev.time_seconds;
        ++f.checks;
        break;
      }
      default:
        break;
    }
  }
  for (const std::string& id : ids) {
    const auto snapshot = stack.engine->status(id);
    if (!snapshot || snapshot->status != engine::ExecutionStatus::kSucceeded) continue;
    f.enactment_s.push_back(snapshot->enactment_delay_seconds);
  }
  return f;
}

std::vector<std::int64_t> check_completions(const EngineFigures& f) {
  std::vector<std::int64_t> done;
  for (const EngineFigures::Execution& ex : f.executions) done.push_back(ex.done_ns);
  return done;
}

// ---------------------------------------------------------------------------
// Rate ladder

struct LadderResult {
  double rps_at_slo = 0.0;
  int probes = 0;
  std::vector<std::vector<ClientRecord>> records;
};

/// Highest rung of the ladder (rates kLadderStep apart, anchored at
/// proxy-steady's rate) whose p99 from the due time stays within the SLO
/// with no growing backlog and no failure. Strides of 6 rungs bracket the
/// answer, bisection finds the rung. Each probe's p99 is the median of
/// its windows' p99s, and a failed rung is tried once more, so a lone
/// stall does not fail a rung; past the knee the backlog fails both.
LadderResult rate_ladder(Run& run, double budget_s) {
  LadderResult result;
  constexpr int kStride = 6;
  constexpr int kLowest = -36;
  constexpr int kHighest = 48;
  const double probe_s = std::max(0.3, budget_s / 12.0);
  const auto probe = [&](int rung) {
    const double rate = kSteadyRate * std::pow(kLadderStep, rung);
    const std::string out = run.file("ladder-" + std::to_string(result.probes) + ".bin");
    std::vector<ClientRecord> records;
    const std::uint64_t seed =
        util::derive_seed(run.options.seed, 1000 + static_cast<std::uint64_t>(result.probes));
    ++result.probes;
    if (!start_traffic(run, rate, probe_s, seed, Mix::kTiny, 0.0, out) ||
        !finish_traffic(run, out, records)) {
      return false;
    }
    std::vector<double> lat;
    bool failed = false;
    for (const ClientRecord& r : records) {
      failed |= r.status != 200;
      lat.push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    }
    const std::size_t fifth = lat.size() / 5;
    const bool backlog =
        fifth > 10 &&
        median(std::vector<double>(lat.end() - static_cast<long>(fifth), lat.end())) >
            2.0 * median(std::vector<double>(lat.begin(), lat.begin() + static_cast<long>(fifth))) +
                100.0;
    const double p99 = windowed_percentile(lat, 99.0, 500);
    const bool ok = !failed && !backlog && lat.size() >= 100 && p99 <= kSloP99Us;
    std::fprintf(stderr, "ladder rung %+d: %.0f req/s, %zu requests, p99 %.0f us%s -> %s\n",
                 rung, rate, lat.size(), p99, backlog ? ", backlog grows" : "",
                 ok ? "pass" : "fail");
    result.records.push_back(std::move(records));
    return ok;
  };
  const auto passes = [&](int rung) { return probe(rung) || probe(rung); };
  int lo = kLowest - 1;  // highest rung known to pass
  int hi = kHighest + 1;  // lowest rung known to fail
  if (passes(0)) {
    lo = 0;
    for (int k = kStride; k <= kHighest; k += kStride) {
      if (!passes(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
  } else {
    hi = 0;
    for (int k = -kStride; k >= kLowest; k -= kStride) {
      if (passes(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  while (hi - lo > 1 && lo >= kLowest && hi <= kHighest) {
    const int mid = (lo + hi) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.rps_at_slo = kSteadyRate * std::pow(kLadderStep, std::max(lo, kLowest));
  return result;
}

// ---------------------------------------------------------------------------
// Tracing: per-layer figures and spans

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add_request_spans(Trace& trace, const Phase& phase, Run& run,
                       std::vector<Metric>& out, double traced_p50_us) {
  // Live proxied requests as the backends saw them, in arrival order per
  // version, matched to the injector calls in call order per version. A
  // swap between two requests can only happen when their calls are closer
  // than one upstream hop, so it barely moves the split.
  std::unordered_map<std::uint32_t, const ClientRecord*> by_id;
  for (const ClientRecord& r : phase.client) by_id[r.id] = &r;
  std::vector<std::vector<const BackendRecord*>> entries(kVersionCount);
  for (const BackendRecord& b : phase.backend) {
    if (b.shadow == 0 && b.version >= 0) {
      const auto it = by_id.find(b.id);
      if (it != by_id.end() && it->second->target == static_cast<std::uint8_t>(Target::kProxy)) {
        entries[static_cast<std::size_t>(b.version)].push_back(&b);
      }
    }
  }
  std::vector<std::vector<std::int64_t>> calls(kVersionCount);
  {
    const std::lock_guard<std::mutex> lock(run.probes.mutex);
    for (const auto& [t, v] : run.probes.injections) {
      if (v >= 0) calls[static_cast<std::size_t>(v)].push_back(t);
    }
  }
  std::vector<double> ingress, upstream, handler, egress;
  std::uint64_t unmatched = 0;
  for (int v = 0; v < kVersionCount; ++v) {
    auto& e = entries[static_cast<std::size_t>(v)];
    auto& c = calls[static_cast<std::size_t>(v)];
    std::sort(e.begin(), e.end(), [](auto* a, auto* b) { return a->entry_ns < b->entry_ns; });
    std::sort(c.begin(), c.end());
    if (e.size() != c.size()) unmatched += std::max(e.size(), c.size()) - std::min(e.size(), c.size());
    for (std::size_t i = 0; i < std::min(e.size(), c.size()); ++i) {
      const BackendRecord& b = *e[i];
      const ClientRecord& r = *by_id[b.id];
      const std::int64_t inj = c[i];
      ingress.push_back(static_cast<double>(inj - r.send_ns) / 1e3);
      upstream.push_back(static_cast<double>(b.entry_ns - inj) / 1e3);
      handler.push_back(static_cast<double>(b.exit_ns - b.entry_ns) / 1e3);
      egress.push_back(static_cast<double>(r.recv_ns - b.exit_ns) / 1e3);
      const std::int64_t root = trace.add("user.request", r.due_ns, r.recv_ns, r.id, -1, 1, 1);
      trace.add("loadgen.wait", r.due_ns, r.send_ns, r.id, root, 1, 1);
      trace.add("proxy.ingress", r.send_ns, inj, r.id, root, 2, 2);
      trace.add("proxy.upstream", inj, b.entry_ns, r.id, root, 2, 2);
      trace.add("backend.handler", b.entry_ns, b.exit_ns, r.id, root, 1, 3 + static_cast<std::uint32_t>(v));
      trace.add("proxy.egress", b.exit_ns, r.recv_ns, r.id, root, 2, 2);
    }
  }
  for (const ClientRecord& r : phase.client) {
    if (r.target == static_cast<std::uint8_t>(Target::kDirect)) {
      const std::int64_t root = trace.add("direct.request", r.due_ns, r.recv_ns, r.id, -1, 1, 6);
      trace.add("loadgen.wait", r.due_ns, r.send_ns, r.id, root, 1, 6);
    }
  }
  const double in50 = percentile(ingress, 50), up50 = percentile(upstream, 50);
  const double be50 = percentile(handler, 50), eg50 = percentile(egress, 50);
  out.push_back({"proxy.ingress_us.p50", in50, "us"});
  out.push_back({"proxy.ingress_us.p99", percentile(ingress, 99), "us"});
  out.push_back({"proxy.upstream_us.p50", up50, "us"});
  out.push_back({"proxy.upstream_us.p99", percentile(upstream, 99), "us"});
  out.push_back({"backend.handler_us", be50, "us"});
  out.push_back({"proxy.egress_us.p50", eg50, "us"});
  out.push_back({"proxy.egress_us.p99", percentile(egress, 99), "us"});
  out.push_back({"proxy.stage_matched", static_cast<double>(ingress.size()), "count"});
  out.push_back({"proxy.stage_unmatched", static_cast<double>(unmatched), "count"});
  const double sum = in50 + up50 + be50 + eg50;
  out.push_back({"trace.stage_sum_ratio", traced_p50_us > 0 ? sum / traced_p50_us : 0.0, "ratio"});
  std::fprintf(stderr,
               "stage split (p50, us): ingress %.1f + upstream %.1f + backend %.1f + "
               "egress %.1f = %.1f vs traced req_p50_us %.1f (%+.1f%%)\n",
               in50, up50, be50, eg50, sum, traced_p50_us,
               traced_p50_us > 0 ? (sum / traced_p50_us - 1.0) * 100.0 : 0.0);
}

void add_engine_spans(Trace& trace, Run& run, const EngineFigures& f,
                      double worker_seconds, std::vector<Metric>& out) {
  Probes& p = run.probes;
  const std::lock_guard<std::mutex> lock(p.mutex);
  // Query -> check: each check's query text is unique within its state,
  // and one check's executions run one after another, so a FIFO per
  // query text pairs query ends with kCheckExecuted events.
  std::map<std::string, std::deque<std::size_t>> by_query;
  std::vector<std::size_t> query_order(p.queries.size());
  for (std::size_t i = 0; i < p.queries.size(); ++i) query_order[i] = i;
  std::sort(query_order.begin(), query_order.end(),
            [&](std::size_t a, std::size_t b) { return p.queries[a].end_ns < p.queries[b].end_ns; });
  for (const std::size_t i : query_order) by_query[p.queries[i].key].push_back(i);
  const auto query_of = [&](const std::string& state, const std::string& check) {
    const core::StateDef* s = run.stack->strategy.find_state(state);
    if (s == nullptr) return std::string();
    for (const core::CheckDef& c : s->checks) {
      if (c.name == check && !c.conditions.empty()) return c.conditions.back().query;
    }
    return std::string();
  };
  // Jobs by track, to find the pool job that ran a query.
  std::map<std::uint32_t, std::vector<std::size_t>> jobs_by_track;
  for (std::size_t j = 0; j < p.jobs.size(); ++j) jobs_by_track[p.jobs[j].track].push_back(j);
  const auto job_of = [&](const Timed& q) -> long {
    for (const std::size_t j : jobs_by_track[q.track]) {
      if (p.jobs[j].start_ns <= q.start_ns && q.end_ns <= p.jobs[j].end_ns) return static_cast<long>(j);
    }
    return -1;
  };
  std::vector<double> marshal;
  std::uint64_t id = 1u << 30;
  for (const EngineFigures::Execution& ex : f.executions) {
    ++id;
    const std::int64_t root = trace.add("check", ex.due_ns, ex.done_ns, id, -1, 2, 10);
    auto& fifo = by_query[query_of(ex.state, ex.check)];
    if (fifo.empty()) continue;
    const Timed& q = p.queries[fifo.front()];
    fifo.pop_front();
    marshal.push_back(static_cast<double>(ex.done_ns - q.end_ns) / 1e3);
    const long job = job_of(q);
    std::int64_t parent = root;
    if (job >= 0) {
      const Timed& jt = p.jobs[static_cast<std::size_t>(job)];
      const std::int64_t submitted = p.job_submits[static_cast<std::size_t>(job)];
      trace.add("runtime.timer_wait", ex.due_ns, submitted, id, root, 2, 10);
      trace.add("runtime.pool_wait", submitted, jt.start_ns, id, root, 2, 10);
      parent = trace.add("runtime.job", jt.start_ns, jt.end_ns, id, root, 2, jt.track);
    }
    trace.add("engine.query", q.start_ns, q.end_ns, id, parent, 2, q.track);
    trace.add("engine.marshal", q.end_ns, ex.done_ns, id, root, 2, 10);
  }
  for (const EngineFigures::Switch& s : f.switches) {
    ++id;
    const std::int64_t root = trace.add("engine.switch", s.enter_ns, s.applied_ns, id, -1, 2, 11);
    for (const Timed& a : p.appends) {
      if (a.start_ns >= s.enter_ns && a.end_ns <= s.applied_ns) {
        trace.add("journal.append", a.start_ns, a.end_ns, id, root, 2, 11);
      }
    }
    for (const Timed& a : p.applies) {
      if (a.start_ns >= s.enter_ns && a.end_ns <= s.applied_ns) {
        trace.add("proxy.apply", a.start_ns, a.end_ns, id, root, 2, 11);
      }
    }
  }
  for (const Timed& s : p.scrapes) trace.add("metrics.scrape", s.start_ns, s.end_ns, ++id, -1, 2, 12);

  std::vector<double> query_us, wait_us, apply_us, append_us, scrape_us, lag_us;
  std::uint64_t query_errors = 0, bytes = 0;
  double busy_ns = 0;
  for (const Timed& q : p.queries) {
    query_us.push_back(static_cast<double>(q.end_ns - q.start_ns) / 1e3);
    query_errors += q.ok ? 0 : 1;
  }
  for (std::size_t j = 0; j < p.jobs.size(); ++j) {
    wait_us.push_back(static_cast<double>(p.jobs[j].start_ns - p.job_submits[j]) / 1e3);
    busy_ns += static_cast<double>(p.jobs[j].end_ns - p.jobs[j].start_ns);
  }
  for (const Timed& a : p.applies) apply_us.push_back(static_cast<double>(a.end_ns - a.start_ns) / 1e3);
  for (const Timed& a : p.appends) {
    append_us.push_back(static_cast<double>(a.end_ns - a.start_ns) / 1e3);
    bytes += a.bytes;
  }
  for (const Timed& s : p.scrapes) scrape_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  for (const std::int64_t l : p.loop_lag_ns) lag_us.push_back(static_cast<double>(l) / 1e3);
  out.push_back({"proxy.apply_us.p50", percentile(apply_us, 50), "us"});
  out.push_back({"proxy.apply_us.p99", percentile(apply_us, 99), "us"});
  out.push_back({"engine.query_us.p50", percentile(query_us, 50), "us"});
  out.push_back({"engine.query_us.p99", percentile(query_us, 99), "us"});
  out.push_back({"engine.queries", static_cast<double>(p.queries.size()), "count"});
  out.push_back({"engine.query_errors", static_cast<double>(query_errors), "count"});
  out.push_back({"engine.marshal_us.p50", percentile(marshal, 50), "us"});
  out.push_back({"engine.marshal_us.p99", percentile(marshal, 99), "us"});
  out.push_back({"metrics.scrape_us.p50", percentile(scrape_us, 50), "us"});
  out.push_back({"metrics.scrape_us.p99", percentile(scrape_us, 99), "us"});
  out.push_back({"runtime.pool_wait_us.p50", percentile(wait_us, 50), "us"});
  out.push_back({"runtime.pool_wait_us.p99", percentile(wait_us, 99), "us"});
  out.push_back({"runtime.loop_lag_p99_us", percentile(lag_us, 99), "us"});
  out.push_back({"journal.append_us.p50", percentile(append_us, 50), "us"});
  out.push_back({"journal.append_us.p99", percentile(append_us, 99), "us"});
  out.push_back({"journal.records", static_cast<double>(p.appends.size()), "count"});
  out.push_back({"journal.bytes_per_record",
                 p.appends.empty() ? 0.0 : static_cast<double>(bytes) / static_cast<double>(p.appends.size()),
                 "B"});
  out.push_back({"runtime.pool_busy_ratio",
                 worker_seconds > 0 ? busy_ns / (worker_seconds * 1e9) : 0.0, "ratio"});
}

/// metrics::evaluate on the queries the checks sent, straight against
/// the store: evaluation cost without HTTP and without the "now" scan.
double direct_eval_us(Run& run) {
  std::set<std::string> texts;
  {
    const std::lock_guard<std::mutex> lock(run.probes.mutex);
    for (const Timed& q : run.probes.queries) {
      texts.insert(q.key);
      if (texts.size() >= 200) break;
    }
  }
  double now = 0.0;
  for (const metrics::SeriesKey& key : run.stack->store.series()) {
    for (const auto& [k, s] : run.stack->store.instant({key.name, key.labels}, 1e18, 1e18)) {
      now = std::max(now, s.time);
    }
  }
  std::vector<double> us;
  for (const std::string& text : texts) {
    auto expr = metrics::parse_expr(text);
    if (!expr.ok()) continue;
    const std::int64_t start = mono_ns();
    const metrics::QueryResult result = metrics::evaluate(run.stack->store, expr.value(), now);
    us.push_back(static_cast<double>(mono_ns() - start) / 1e3);
    (void)result;
  }
  return percentile(us, 50);
}

// ---------------------------------------------------------------------------
// Output

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string read_first_line(const char* path, const char* prefix) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string out = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::string s(line);
    if (s.rfind(prefix, 0) == 0) {
      out = s.substr(s.find(':') + 2);
      while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
      break;
    }
  }
  std::fclose(f);
  return out;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out.empty() ? "unpinned" : out;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

int run_benchmark(const RunOptions& options) {
  Run run;
  run.options = options;
  for (const Workload& w : workloads()) {
    if (options.workload == w.name) run.workload = &w;
  }
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const std::int64_t run_start = mono_ns();
  // Idle vCPUs halt, and waking one goes through the host: milliseconds
  // of noise on every wake-up. A SCHED_IDLE spinner per CPU (its own
  // process, so Bifrost's getrusage does not see it) keeps them running;
  // it yields to any runnable thread at once.
  run.poller = std::make_unique<ChildProcess>(options.self_exe, "--idle-poll",
                                              options.all_cpus);
  run.load = std::make_unique<ChildProcess>(options.self_exe, "--load-process",
                                            options.load_cpus);
  {
    std::istringstream ports(run.load->call("backends"));
    std::string word;
    ports >> word >> run.ports.port[0] >> run.ports.port[1] >> run.ports.port[2];
    if (word != "ports" || run.ports.port[2] == 0) {
      std::fprintf(stderr, "load process failed to start its backends\n");
      return 1;
    }
  }

  // The first set-up builds the stack that is measured; spare set-ups run
  // between the phases of the first pass (see set_up).
  if (const std::string error = set_up(run, "journal.wal", run.stack); !error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  run.loop_probe = std::make_unique<LoopProbe>(run.stack->loop, run.probes);

  Checks checks;
  std::vector<Metric> metrics;
  const auto spare_set_ups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      std::unique_ptr<Stack> spare;
      const std::string error = set_up(run, "journal-spare.wal", spare);
      if (!error.empty()) checks.fail("spare set-up failed: " + error);
    }
  };
  // One pass = the workload's phases at `scale` of --seconds. Paths that
  // run alone alternate in kRounds rounds, so each is sampled across the
  // whole run rather than in one stretch of it. A pass yields the user
  // path's phases and the strategy path's phases, each merged into one.
  struct Pass {
    Phase users;
    Phase steps;
  };
  const Workload& w = *run.workload;
  const double seconds = options.seconds;
  const auto pass = [&](double scale, bool traced) {
    run.probes.clear();
    std::vector<Phase> users;
    std::vector<Phase> steps;
    if (w.together > 0) {
      users.push_back(run_phase(run, seconds * scale * w.together, traced, true, true));
      steps.push_back(users.back());
      if (!traced) spare_set_ups(kSetups - 1);
    }
    for (int r = 0; r < kRounds && w.together == 0; ++r) {
      users.push_back(run_phase(run, seconds * scale * w.users_alone / kRounds, traced, true, false));
      if (!traced) spare_set_ups(kSetupsPerGap);
      steps.push_back(
          run_phase(run, seconds * scale * w.strategies_alone / kRounds, traced, false, true));
      if (!traced) spare_set_ups(kSetupsPerGap);
    }
    return Pass{merge_phases(std::move(users)), merge_phases(std::move(steps))};
  };
  std::vector<Pass> passes;
  passes.push_back(pass(options.trace ? 0.45 : 1.0 - w.ladder, false));
  if (options.trace) passes.push_back(pass(0.45, true));
  for (const Pass& p : passes) {
    for (const Phase* phase : {&p.users, &p.steps}) {
      if (!phase->error.empty()) {
        std::fprintf(stderr, "phase failed: %s\n", phase->error.c_str());
        checks.fail(phase->error);
      }
    }
  }
  const double peak_rss = peak_rss_mib();
  LadderResult ladder;
  if (!options.trace && w.ladder > 0) ladder = rate_ladder(run, seconds * w.ladder);
  run.stack->loop.stop();  // no further engine activity during analysis

  std::vector<const std::vector<ClientRecord>*> all_client;
  std::vector<const std::vector<BackendRecord>*> all_backend;
  for (const Pass& p : passes) {
    all_client.push_back(&p.users.client);
    all_backend.push_back(&p.users.backend);
  }
  for (const auto& r : ladder.records) all_client.push_back(&r);
  check_requests(run, all_client, all_backend, checks);
  const std::vector<std::string> ids = run.stack->strategy_ids;
  check_strategies(run, ids, checks);
  // Counted in every run: a query that may come back empty does not fail
  // its check even when the provider errs.
  checks.fail("metric queries failed", run.probes.queries_failed.load());

  const Phase& users = passes.front().users;
  const Phase& steps = passes.front().steps;
  const std::vector<double> lat = request_latencies_us(users, Target::kProxy);
  const EngineFigures fig = engine_figures(run, steps.strategy_ids);
  {
    std::string delays;
    for (const double d : fig.enactment_s) delays += " " + fmt(d);
    std::fprintf(stderr, "enactment delay per strategy run (s):%s\n", delays.c_str());
  }
  const double req_p50 = windowed_percentile(lat, 50, kRequestWindow);
  const double req_p99 = windowed_percentile(lat, 99, kRequestWindow);
  const double check_lag_p99 = windowed_percentile(fig.check_lag_ms, 99, kCheckWindow);
  const double cpu_per_req = cpu_us_per_unit(users, request_completions(users));
  const double cpu_per_check = cpu_us_per_unit(steps, check_completions(fig));
  std::vector<double> late;
  for (const ClientRecord& r : users.client) late.push_back(static_cast<double>(r.send_ns - r.ready_ns) / 1e3);
  const double late_p99 = percentile(late, 99);
  const bool valid = late_p99 <= kLateBoundUs;

  if (!options.trace) {
    metrics.push_back({"setup_s", median(run.setup_s), "s"});
    metrics.push_back({"req_p50_us", req_p50, "us"});
    metrics.push_back({"req_p90_us", windowed_percentile(lat, 90, kRequestWindow), "us"});
    metrics.push_back({"cpu_us_per_req", cpu_per_req, "us"});
    metrics.push_back({"check_lag_p50_ms", windowed_percentile(fig.check_lag_ms, 50, kCheckWindow), "ms"});
    metrics.push_back({"check_lag_p90_ms", windowed_percentile(fig.check_lag_ms, 90, kCheckWindow), "ms"});
    metrics.push_back({"cpu_us_per_check", cpu_per_check, "us"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
  } else {
    const Phase& traced_users = passes.back().users;
    const Phase& traced_steps = passes.back().steps;
    Trace trace;
    const std::vector<double> tlat = request_latencies_us(traced_users, Target::kProxy);
    const std::vector<double> dlat = request_latencies_us(traced_users, Target::kDirect);
    const EngineFigures tfig = engine_figures(run, traced_steps.strategy_ids);
    const double treq_p50 = windowed_percentile(tlat, 50, kRequestWindow);
    std::vector<double> tlate;
    for (const ClientRecord& r : traced_users.client) {
      tlate.push_back(static_cast<double>(r.send_ns - r.ready_ns) / 1e3);
    }
    metrics.push_back({"loadgen.late_p99_us", percentile(tlate, 99), "us"});
    metrics.push_back({"http.direct_p50_us", percentile(dlat, 50), "us"});
    add_request_spans(trace, traced_users, run, metrics, treq_p50);
    metrics.push_back({"proxy.self_us", treq_p50 - percentile(dlat, 50), "us"});
    std::uint64_t delivered = 0;
    for (const BackendRecord& b : traced_users.backend) delivered += b.version == 2 && b.shadow == 1 ? 1 : 0;
    metrics.push_back({"proxy.shadow_delivered_ratio",
                       traced_users.shadow_requests == 0
                           ? 0.0
                           : static_cast<double>(delivered) /
                                 static_cast<double>(traced_users.shadow_requests),
                       "ratio"});
    metrics.push_back({"proxy.shadow_copies", static_cast<double>(traced_users.shadow_copies), "count"});
    metrics.push_back({"proxy.shadows_shed", static_cast<double>(traced_users.shadows_shed), "count"});
    metrics.push_back({"proxy.sticky_sessions",
                       static_cast<double>(run.stack->data_proxy->sticky_sessions()), "count"});
    add_engine_spans(trace, run, tfig,
                     static_cast<double>(run.stack->pool.workers()) * traced_steps.wall_s, metrics);
    metrics.push_back({"metrics.eval_us", direct_eval_us(run), "us"});
    metrics.push_back({"metrics.series", static_cast<double>(run.stack->store.series_count()), "count"});
    metrics.push_back({"dsl.compile_ms", median(run.compile_ms), "ms"});
    const double tcpu_per_check = cpu_us_per_unit(traced_steps, check_completions(tfig));
    metrics.push_back({"trace.overhead_ratio", req_p50 > 0 ? treq_p50 / req_p50 : 0.0, "ratio"});
    metrics.push_back({"trace.overhead_ratio.cpu_per_check",
                       cpu_per_check > 0 ? tcpu_per_check / cpu_per_check : 0.0, "ratio"});
    const std::string trace_path = run.file("trace-" + options.workload + ".json");
    trace.write_chrome_json(trace_path, 100000);
    std::fprintf(stderr, "per-layer self time (traced phase, %zu spans; Chrome trace: %s)\n%s",
                 trace.size(), trace_path.c_str(), trace.self_time_summary().c_str());
  }

  // Run record: the workload, sample counts, figures kept out of the
  // gated metrics, the pinning, the machine, the validity.
  const std::uint64_t attempted =
      checks.attempted + expected_checks(run.stack->strategy) * ids.size();
  json::Array failures;
  for (const std::string& f : checks.failures) failures.push_back(f);
  const json::Value record(json::Object{{"record", json::Object{
      {"workload", options.workload},
      {"seed", static_cast<std::int64_t>(options.seed)},
      {"trace", options.trace},
      {"rate_rps", w.rate},
      {"connections", 4},
      {"users", static_cast<std::int64_t>(w.users)},
      {"mix", w.mix == Mix::kTiny ? "tiny" : "paper"},
      {"requests", users.client.size()},
      {"strategy_runs", ids.size()},
      {"check_executions", fig.checks},
      {"req_error_ratio", users.client.empty() ? 0.0
                              : 1.0 - static_cast<double>(completed_requests(users)) /
                                          static_cast<double>(users.client.size())},
      {"req_p99_us", req_p99},
      {"check_lag_p99_ms", check_lag_p99},
      {"enactment_delay_s", median(fig.enactment_s)},
      {"switches", fig.switch_ms.size()},
      {"switch_p50_ms", median(fig.switch_ms)},
      {"metric_queries", run.probes.queries_sent.load()},
      {"metric_query_errors", run.probes.queries_failed.load()},
      {"rps_at_slo", ladder.rps_at_slo},
      {"ladder_probes", ladder.probes},
      {"loadgen_late_p99_us", late_p99},
      {"valid", valid},
      {"bifrost_cpus", cpu_list(options.bifrost_cpus)},
      {"idle_poll_cpus", cpu_list(options.all_cpus)},
      {"load_cpus", cpu_list(options.load_cpus)},
      {"nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency())},
      {"cpu_model", read_first_line("/proc/cpuinfo", "model name")},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"wall_s", static_cast<double>(mono_ns() - run_start) / 1e9},
      {"failures", std::move(failures)},
  }}});
  std::printf("%s\n", record.dump().c_str());
  if (!valid) {
    std::fprintf(stderr, "run flagged invalid: loadgen.late_p99_us %.1f > %.0f\n", late_p99,
                 kLateBoundUs);
  }
  for (const std::string& f : checks.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

  json::Object metric_json;
  for (const Metric& m : metrics) {
    metric_json[m.name] = json::Object{{"value", m.value}, {"unit", m.unit}};
  }
  const json::Value result(json::Object{
      {"correct", checks.failed == 0},
      {"attempted", static_cast<std::int64_t>(std::max<std::uint64_t>(1, attempted))},
      {"failed", static_cast<std::int64_t>(checks.failed)},
      {"metrics", std::move(metric_json)},
  });
  run.stack->shutdown();
  run.load->stop();
  run.poller->stop();
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace e2ebench
