#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "dsl/dsl.hpp"
#include "http/client.hpp"

namespace e2ebench {

using namespace bifrost;

// ---------------------------------------------------------------------------
// Child processes

ChildProcess::ChildProcess(const std::string& self_exe, const char* role,
                           const std::vector<int>& cpus) {
  int down[2];
  int up[2];
  if (::pipe2(down, O_CLOEXEC) != 0 || ::pipe2(up, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the Bifrost process
    ::dup2(down[0], STDIN_FILENO);
    ::dup2(up[1], STDOUT_FILENO);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (const int cpu : cpus) CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof set, &set);
    }
    ::execl(self_exe.c_str(), self_exe.c_str(), role, static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
}

ChildProcess::~ChildProcess() { stop(); }

void ChildProcess::send(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t off = 0;
  while (to_child_ >= 0 && off < data.size()) {
    const ssize_t w = ::write(to_child_, data.data() + off, data.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

std::string ChildProcess::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char buf[4096];
    const ssize_t r = ::read(from_child_, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return "";
    buffer_.append(buf, static_cast<std::size_t>(r));
  }
}

std::string ChildProcess::call(const std::string& line) {
  send(line);
  return read_line();
}

void ChildProcess::stop() {
  if (pid_ <= 0) return;
  send("quit");
  ::close(to_child_);
  to_child_ = -1;
  // The child exits once its stdin closes; a wedged child is killed
  // after five seconds so the benchmark never leaves a process behind.
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    ::usleep(10000);
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  ::close(from_child_);
  from_child_ = -1;
}

// ---------------------------------------------------------------------------
// Probes and decorators

void Probes::clear() {
  const std::lock_guard<std::mutex> lock(mutex);
  queries.clear();
  applies.clear();
  appends.clear();
  jobs.clear();
  job_submits.clear();
  injections.clear();
  loop_lag_ns.clear();
  scrapes.clear();
}

void Probes::record(std::vector<Timed>& into, Timed timed) {
  const std::lock_guard<std::mutex> lock(mutex);
  into.push_back(std::move(timed));
}

std::uint32_t thread_track() {
  static std::atomic<std::uint32_t> next{100};
  thread_local const std::uint32_t track = next.fetch_add(1);
  return track;
}

util::Result<std::optional<double>> TimedMetricsClient::query(
    const core::ProviderConfig& provider, const std::string& query) {
  const bool tracing = probes_.tracing.load(std::memory_order_relaxed);
  Timed timed;
  if (tracing) timed.start_ns = mono_ns();
  auto result = inner_.query(provider, query);
  probes_.queries_sent.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) probes_.queries_failed.fetch_add(1, std::memory_order_relaxed);
  if (!tracing) return result;
  timed.end_ns = mono_ns();
  timed.track = thread_track();
  timed.ok = result.ok();
  timed.key = query;
  probes_.record(probes_.queries, std::move(timed));
  return result;
}

util::Result<void> TimedProxyController::apply(
    const core::ServiceDef& service, const proxy::ProxyConfig& config) {
  if (!probes_.tracing.load(std::memory_order_relaxed)) {
    return inner_.apply(service, config);
  }
  Timed timed;
  timed.start_ns = mono_ns();
  auto result = inner_.apply(service, config);
  timed.end_ns = mono_ns();
  timed.track = thread_track();
  timed.ok = result.ok();
  timed.key = service.name;
  probes_.record(probes_.applies, std::move(timed));
  return result;
}

util::Result<void> TimedJournal::append(engine::RecordType type,
                                        json::Value data) {
  if (!probes_.tracing.load(std::memory_order_relaxed)) {
    return inner_.append(type, std::move(data));
  }
  Timed timed;
  timed.bytes = engine::frame_record(type, data).size();
  timed.key = engine::record_type_name(type);
  timed.start_ns = mono_ns();
  auto result = inner_.append(type, std::move(data));
  timed.end_ns = mono_ns();
  timed.track = thread_track();
  timed.ok = result.ok();
  probes_.record(probes_.appends, std::move(timed));
  return result;
}

bool TimedExecutor::submit(Job job) {
  if (!probes_.tracing.load(std::memory_order_relaxed)) {
    return inner_.submit(std::move(job));
  }
  const std::int64_t submitted = mono_ns();
  return inner_.submit([this, submitted, job = std::move(job)] {
    Timed timed;
    timed.start_ns = mono_ns();
    job();
    timed.end_ns = mono_ns();
    timed.track = thread_track();
    const std::lock_guard<std::mutex> lock(probes_.mutex);
    probes_.jobs.push_back(std::move(timed));
    probes_.job_submits.push_back(submitted);
  });
}

// ---------------------------------------------------------------------------
// Stack

namespace {

proxy::ProxyConfig initial_config(const std::string& service,
                                  const BackendPorts& ports, bool sticky_split) {
  proxy::ProxyConfig config;
  config.service = service;
  config.mode = core::RoutingMode::kCookie;
  config.sticky = sticky_split;
  config.default_version = kVersions[0];
  proxy::BackendTarget stable{kVersions[0], "127.0.0.1", ports.port[0],
                              sticky_split ? 90.0 : 100.0, "", "", 0, 0};
  config.backends.push_back(stable);
  if (sticky_split) {
    config.backends.push_back(proxy::BackendTarget{
        kVersions[1], "127.0.0.1", ports.port[1], 10.0, "", "", 0, 0});
  }
  return config;
}

}  // namespace

Stack::Stack(const StackSpec& spec, const BackendPorts& backend_ports,
             Probes& probes)
    : pool(spec.pool_workers),
      metrics_client(http_metrics, probes),
      proxy_controller(http_proxies, probes),
      executor(pool, probes),
      journal_path(spec.journal_path),
      ports(backend_ports),
      spec_(spec),
      probes_(probes) {
  if (spec.prefill != nullptr) spec.prefill(store, spec.prefill_series, spec.seed);
  metrics_server = std::make_unique<metrics::MetricsServer>(store);
  metrics_server->start();

  proxy::BifrostProxy::Options options;
  options.rng_seed = util::derive_seed(spec.seed, 3);
  // Called on every live request just before the forward; returns 0, so
  // it delays nothing and is not counted in injected_delays().
  options.latency_injector = [&probes](const std::string& version) {
    if (probes.tracing.load(std::memory_order_relaxed)) {
      const std::int64_t now = mono_ns();
      const std::lock_guard<std::mutex> lock(probes.mutex);
      probes.injections.emplace_back(now, version_index(version));
    }
    return std::chrono::milliseconds(0);
  };
  data_proxy = std::make_unique<proxy::BifrostProxy>(
      options, initial_config("svc", ports, spec.sticky_split));
  data_proxy->start();
  if (spec.control_proxy) {
    proxy::BifrostProxy::Options control_options;
    control_options.rng_seed = util::derive_seed(spec.seed, 4);
    control_proxy = std::make_unique<proxy::BifrostProxy>(
        control_options, initial_config("ctl", ports, false));
    control_proxy->start();
  }

  ::unlink(journal_path.c_str());
  auto opened = engine::FileJournal::open(journal_path);  // sync_every = 1
  if (!opened.ok()) {
    throw std::runtime_error("journal: " + opened.error_message());
  }
  file_journal = std::move(opened).value();
  journal = std::make_unique<TimedJournal>(*file_journal, probes);

  engine::Engine::Options engine_options;
  engine_options.journal = journal.get();
  engine_options.check_executor = &executor;
  engine = std::make_unique<engine::Engine>(loop, metrics_client,
                                            proxy_controller, engine_options);
}

Stack::~Stack() { shutdown(); }

std::string Stack::finish_setup() {
  endpoints.metrics_port = metrics_server->port();
  endpoints.data_admin_port = data_proxy->admin_port();
  endpoints.control_admin_port = control_proxy ? control_proxy->admin_port() : 0;
  endpoints.backends = ports;
  const std::string yaml = spec_.strategy_yaml(endpoints);
  const std::int64_t compile_start = mono_ns();
  auto compiled = dsl::compile(yaml);
  if (!compiled.ok()) return "dsl: " + compiled.error_message();
  if (auto valid = core::validate(compiled.value()); !valid) {
    return "validate: " + valid.error_message();
  }
  dsl_compile_ms = static_cast<double>(mono_ns() - compile_start) / 1e6;
  strategy = std::move(compiled).value();
  if (submit().empty()) return "strategy submit refused";

  http::HttpClient client;
  auto response = client.get("http://127.0.0.1:" +
                             std::to_string(data_proxy->data_port()) + "/s");
  if (!response.ok()) return "first request: " + response.error_message();
  if (response.value().status != 200) {
    return "first request: HTTP " + std::to_string(response.value().status);
  }
  return "";
}

std::string Stack::submit() {
  auto submitted = engine->submit(strategy, [this](const engine::StatusEvent& e) {
    const std::int64_t now = mono_ns();
    const std::lock_guard<std::mutex> lock(events_mutex);
    events.push_back(Event{now, e});
    if (e.type == engine::StatusEvent::Type::kFinished ||
        e.type == engine::StatusEvent::Type::kAborted) {
      finished.fetch_add(1);
    }
  });
  if (!submitted.ok()) return "";
  strategy_ids.push_back(submitted.value());
  return submitted.value();
}

void Stack::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  loop.stop();
  engine.reset();  // waits out check jobs still reading their execution
  pool.shutdown();
  if (data_proxy) data_proxy->stop();
  if (control_proxy) control_proxy->stop();
  if (metrics_server) metrics_server->stop();
  journal.reset();
  file_journal.reset();
}

}  // namespace e2ebench
