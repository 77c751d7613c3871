// The Bifrost side of the benchmark: the load-process handle, the
// tracing decorators over Bifrost's public interfaces, and the stack of
// real Bifrost components one workload runs against.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "engine/engine.hpp"
#include "engine/http_clients.hpp"
#include "engine/journal.hpp"
#include "metrics/scraper.hpp"
#include "metrics/server.hpp"
#include "metrics/timeseries.hpp"
#include "proxy/proxy.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/work_stealing_pool.hpp"

namespace e2ebench {

/// A child process of this binary, driven by lines over its stdin and
/// stdout: the load process (`--load-process`) and the idle poller
/// (`--idle-poll`). It dies with its parent and is reaped by stop().
class ChildProcess {
 public:
  /// Spawns `self_exe <role>`, pinned to `cpus` when non-empty.
  ChildProcess(const std::string& self_exe, const char* role,
               const std::vector<int>& cpus);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Sends one command line and returns the reply line ("" when the
  /// child is gone).
  std::string call(const std::string& line);
  void send(const std::string& line);
  std::string read_line();

  /// Asks the child to quit (closes its stdin) and waits for it.
  void stop();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

/// A timed call into one of Bifrost's interfaces.
struct Timed {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t track = 0;  ///< small per-thread number
  bool ok = true;
  std::string key;     ///< query text / service / record type
  std::uint64_t bytes = 0;
};

/// What the decorators record while tracing is on. Writers are Bifrost
/// threads (pool workers, the event loop, proxy workers), hence the lock.
struct Probes {
  std::atomic<bool> tracing{false};
  /// MetricsClient::query calls and provider errors over the whole run,
  /// traced or not; clear() leaves them alone.
  std::atomic<std::uint64_t> queries_sent{0};
  std::atomic<std::uint64_t> queries_failed{0};
  std::mutex mutex;
  std::vector<Timed> queries;   ///< MetricsClient::query
  std::vector<Timed> applies;   ///< ProxyController::apply
  std::vector<Timed> appends;   ///< Journal::append
  std::vector<Timed> jobs;      ///< Executor jobs: start_ns=start, key unused
  std::vector<std::int64_t> job_submits;  ///< parallel to jobs
  std::vector<std::pair<std::int64_t, int>> injections;  ///< (time, version)
  std::vector<std::int64_t> loop_lag_ns;
  std::vector<Timed> scrapes;

  void clear();
  void record(std::vector<Timed>& into, Timed timed);
};

/// Small stable number of the calling thread (span track).
std::uint32_t thread_track();

class TimedMetricsClient final : public bifrost::engine::MetricsClient {
 public:
  TimedMetricsClient(bifrost::engine::MetricsClient& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}
  bifrost::util::Result<std::optional<double>> query(
      const bifrost::core::ProviderConfig& provider,
      const std::string& query) override;

 private:
  bifrost::engine::MetricsClient& inner_;
  Probes& probes_;
};

class TimedProxyController final : public bifrost::engine::ProxyController {
 public:
  TimedProxyController(bifrost::engine::ProxyController& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}
  bifrost::util::Result<void> apply(
      const bifrost::core::ServiceDef& service,
      const bifrost::proxy::ProxyConfig& config) override;
  bifrost::util::Result<bifrost::engine::ProxyStateView> fetch(
      const bifrost::core::ServiceDef& service) override {
    return inner_.fetch(service);
  }

 private:
  bifrost::engine::ProxyController& inner_;
  Probes& probes_;
};

class TimedJournal final : public bifrost::engine::Journal {
 public:
  TimedJournal(bifrost::engine::Journal& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}
  bifrost::util::Result<void> append(bifrost::engine::RecordType type,
                                     bifrost::json::Value data) override;
  bifrost::util::Result<void> sync() override { return inner_.sync(); }
  [[nodiscard]] std::uint64_t records_written() const override {
    return inner_.records_written();
  }

 private:
  bifrost::engine::Journal& inner_;
  Probes& probes_;
};

class TimedExecutor final : public bifrost::runtime::Executor {
 public:
  TimedExecutor(bifrost::runtime::Executor& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}
  bool submit(Job job) override;

 private:
  bifrost::runtime::Executor& inner_;
  Probes& probes_;
};

/// Backend ports the load process reported, by version index.
struct BackendPorts {
  std::uint16_t port[kVersionCount] = {0, 0, 0};
};

struct Endpoints {
  std::uint16_t metrics_port = 0;
  std::uint16_t data_admin_port = 0;
  std::uint16_t control_admin_port = 0;
  BackendPorts backends;
};

/// How one workload configures the stack.
struct StackSpec {
  bool sticky_split = false;     ///< data proxy starts 90/10 sticky, else stable 100
  bool control_proxy = false;    ///< engine drives a second, idle proxy
  std::size_t prefill_series = 0;
  std::size_t pool_workers = 2;  ///< check-evaluation pool, sized to the cores
  std::uint64_t seed = 1;
  std::string journal_path;
  /// Builds the strategy YAML given the live endpoints.
  std::string (*strategy_yaml)(const Endpoints&) = nullptr;
  /// Fills the metrics store with the workload's synthetic series.
  void (*prefill)(bifrost::metrics::TimeSeriesStore&, std::size_t series,
                  std::uint64_t seed) = nullptr;
};

/// Every Bifrost component of one workload, in one process. Construction
/// is the benchmark's set-up; shutdown() tears down in dependency order.
class Stack {
 public:
  Stack(const StackSpec& spec, const BackendPorts& ports, Probes& probes);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Compiles the strategy, submits it (accepted, not yet running: the
  /// event loop starts with the measured phase) and answers one request
  /// through the data proxy. Returns an error text, empty on success.
  std::string finish_setup();

  void shutdown();

  /// Submits another run of the strategy; returns its id or "".
  std::string submit();

  bifrost::runtime::EventLoop loop;
  bifrost::runtime::WorkStealingPool pool;
  bifrost::metrics::TimeSeriesStore store;
  std::unique_ptr<bifrost::metrics::MetricsServer> metrics_server;
  std::unique_ptr<bifrost::proxy::BifrostProxy> data_proxy;
  std::unique_ptr<bifrost::proxy::BifrostProxy> control_proxy;
  std::unique_ptr<bifrost::engine::FileJournal> file_journal;
  std::unique_ptr<TimedJournal> journal;
  bifrost::engine::HttpMetricsClient http_metrics;
  bifrost::engine::HttpProxyController http_proxies;
  TimedMetricsClient metrics_client;
  TimedProxyController proxy_controller;
  TimedExecutor executor;
  std::unique_ptr<bifrost::engine::Engine> engine;
  bifrost::core::StrategyDef strategy;
  double dsl_compile_ms = 0.0;
  std::vector<std::string> strategy_ids;

  /// Status events of every submitted run, stamped on arrival.
  struct Event {
    std::int64_t mono_ns = 0;
    bifrost::engine::StatusEvent event;
  };
  std::mutex events_mutex;
  std::vector<Event> events;
  std::atomic<int> finished{0};

  std::string journal_path;
  BackendPorts ports;
  Endpoints endpoints;

 private:
  StackSpec spec_;
  Probes& probes_;
  bool shut_down_ = false;
};

}  // namespace e2ebench
