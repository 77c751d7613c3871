// The parallel check scheduler: WorkStealingPool semantics, the
// engine's submit-evaluate-marshal path on a deterministic executor,
// determinism of automaton traces across simulated worker counts, and
// the real EventLoop + WorkStealingPool integration (the configuration
// the tsan preset hammers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/execution.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/manual_clock.hpp"
#include "runtime/work_stealing_pool.hpp"
#include "sim/sim_env.hpp"
#include "sim/simulation.hpp"

namespace bifrost {
namespace {

using namespace std::chrono_literals;
using engine::StatusEvent;
using engine::StrategyExecution;
using runtime::WorkStealingPool;

// ---------------------------------------------------------------------------
// WorkStealingPool

TEST(WorkStealingPool, ExecutesAllJobs) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(pool.submit([&] { count.fetch_add(1); }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(WorkStealingPool, IdleWorkersStealFromBusyOnes) {
  WorkStealingPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  // Pin one worker, then keep feeding both deques round-robin: the
  // pinned worker's share can only drain via the free worker stealing.
  ASSERT_TRUE(pool.submit([&] {
    started = true;
    while (!release.load()) std::this_thread::sleep_for(1ms);
  }));
  for (int i = 0; i < 2000 && !started; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(started.load());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&] { count.fetch_add(1); }));
  }
  for (int i = 0; i < 2000 && count.load() < 100; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(count.load(), 100);  // drained while one worker stayed pinned
  release = true;
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_GT(pool.steals(), 0u);
}

TEST(WorkStealingPool, WaitIdleBlocksUntilJobsFinish) {
  WorkStealingPool pool(2);
  std::atomic<bool> done{false};
  ASSERT_TRUE(pool.submit([&] {
    std::this_thread::sleep_for(30ms);
    done = true;
  }));
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

TEST(WorkStealingPool, RefusesAfterShutdownAndNeverRunsRefusedJob) {
  WorkStealingPool pool(2);
  pool.shutdown();
  std::atomic<bool> ran{false};
  EXPECT_FALSE(pool.submit([&] { ran = true; }));
  pool.shutdown();  // idempotent
  EXPECT_FALSE(ran.load());
}

TEST(WorkStealingPool, DrainsAcceptedJobsOnShutdown) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.submit([&] {
      std::this_thread::sleep_for(1ms);
      count.fetch_add(1);
    }));
  }
  pool.shutdown();  // accepted jobs run exactly once
  EXPECT_EQ(count.load(), 50);
}

TEST(WorkStealingPool, SurvivesThrowingJob) {
  WorkStealingPool pool(2);
  std::atomic<bool> later{false};
  ASSERT_TRUE(pool.submit([] { throw std::runtime_error("job boom"); }));
  pool.wait_idle();
  ASSERT_TRUE(pool.submit([&] { later = true; }));
  pool.wait_idle();
  EXPECT_TRUE(later.load());
}

TEST(WorkStealingPool, StressConcurrentSubmitters) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  submitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        while (!pool.submit([&] { count.fetch_add(1); })) {
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2000);
}

// ---------------------------------------------------------------------------
// Engine async check path on a deterministic hand-cranked executor

/// Executor that queues jobs until the test runs them explicitly — makes
/// the submit / evaluate / marshal phases of a check execution visible.
class RecordingExecutor final : public runtime::Executor {
 public:
  bool submit(Job job) override {
    jobs_.push_back(std::move(job));
    return true;
  }
  std::size_t run_all() {
    std::vector<Job> batch;
    batch.swap(jobs_);
    for (Job& job : batch) job();
    return batch.size();
  }
  [[nodiscard]] std::size_t queued() const { return jobs_.size(); }

 private:
  std::vector<Job> jobs_;
};

class MapMetrics final : public engine::MetricsClient {
 public:
  void set(const std::string& query, double value) { values_[query] = value; }
  util::Result<std::optional<double>> query(const core::ProviderConfig&,
                                            const std::string& query) override {
    ++queries;
    const auto it = values_.find(query);
    if (it == values_.end()) return std::optional<double>{};
    return std::optional<double>{it->second};
  }
  int queries = 0;

 private:
  std::map<std::string, double> values_;
};

class NullProxies final : public engine::ProxyController {
 public:
  util::Result<void> apply(const core::ServiceDef&,
                           const proxy::ProxyConfig&) override {
    return {};
  }
};

/// One state with `checks` checks (executions x interval each), then a
/// success final state; rollback path present to satisfy validation.
core::StrategyDef small_strategy(int checks, int executions,
                                 runtime::Duration interval) {
  core::StrategyDef strategy;
  strategy.name = "parallel";
  strategy.initial_state = "phase";
  strategy.providers["prometheus"] = core::ProviderConfig{"127.0.0.1", 9090};

  core::StateDef phase;
  phase.name = "phase";
  for (int i = 0; i < checks; ++i) {
    core::CheckDef check;
    check.name = "check-" + std::to_string(i);
    check.conditions.push_back(core::MetricCondition{
        "prometheus", check.name, "errors_" + std::to_string(i),
        core::Validator::parse("<5").value(), true});
    check.interval = interval;
    check.executions = executions;
    check.thresholds = {executions - 0.5};
    check.outputs = {0, 1};
    phase.checks.push_back(std::move(check));
  }
  phase.thresholds = {checks - 0.5};
  phase.transitions = {"rollback", "done"};
  strategy.states.push_back(std::move(phase));

  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  strategy.states.push_back(done);
  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  strategy.states.push_back(rollback);
  return strategy;
}

TEST(ParallelCheckPath, EvaluationRunsAsJobAndMarshalsBack) {
  runtime::ManualClock clock;
  MapMetrics metrics;
  metrics.set("errors_0", 1.0);
  NullProxies proxies;
  RecordingExecutor executor;

  std::vector<StatusEvent> events;
  StrategyExecution::Options options;
  options.check_executor = &executor;
  StrategyExecution execution(
      "s-0", clock, metrics, proxies, small_strategy(1, 1, 10s),
      [&](const StatusEvent& event) { events.push_back(event); }, options);

  execution.start();
  EXPECT_EQ(executor.queued(), 0u);  // nothing due yet
  clock.advance_to(runtime::Time(10s));

  // The due check submitted its evaluation instead of running inline:
  // no metric query and no checkExecuted event happened yet.
  ASSERT_EQ(executor.queued(), 1u);
  EXPECT_EQ(metrics.queries, 0);
  for (const StatusEvent& event : events) {
    EXPECT_NE(event.type, StatusEvent::Type::kCheckExecuted);
  }

  // Run the job: it queries metrics and arms the marshalling timer, but
  // the aggregates only move once the scheduler delivers it.
  EXPECT_EQ(executor.run_all(), 1u);
  EXPECT_EQ(metrics.queries, 1);
  EXPECT_EQ(execution.checks_executed(), 0u);

  clock.advance_by(runtime::Duration(0));  // deliver the marshalled result
  EXPECT_EQ(execution.checks_executed(), 1u);
  EXPECT_EQ(execution.status(), engine::ExecutionStatus::kSucceeded);

  bool saw_executed = false;
  for (const StatusEvent& event : events) {
    if (event.type == StatusEvent::Type::kCheckExecuted) saw_executed = true;
  }
  EXPECT_TRUE(saw_executed);
}

TEST(ParallelCheckPath, JobAfterDestructionIsSafeNoOp) {
  runtime::ManualClock clock;
  MapMetrics metrics;
  metrics.set("errors_0", 1.0);
  NullProxies proxies;
  RecordingExecutor executor;

  {
    StrategyExecution::Options options;
    options.check_executor = &executor;
    StrategyExecution execution("s-0", clock, metrics, proxies,
                                small_strategy(1, 1, 10s),
                                [](const StatusEvent&) {}, options);
    execution.start();
    clock.advance_to(runtime::Time(10s));
    ASSERT_EQ(executor.queued(), 1u);
  }  // execution destroyed with the evaluation job still queued

  EXPECT_EQ(executor.run_all(), 1u);  // must not touch the dead execution
  EXPECT_EQ(metrics.queries, 0);
  clock.advance_by(runtime::Duration(0));  // no marshalled timer may fire
}

// ---------------------------------------------------------------------------
// Determinism under the simulation across worker counts

/// State-level automaton trace: entry/completion/finish events with
/// their outcomes, excluding timestamps (which legitimately shift with
/// the worker count) — the byte-comparable fingerprint of the run.
std::string run_trace(int workers) {
  sim::Simulation::Options sim_options;
  sim_options.workers = workers;
  sim::Simulation sim(sim_options);
  sim::SimMetricsClient metrics(sim, sim::always_healthy(0.0));
  sim::SimProxyController proxies(sim);

  std::ostringstream trace;
  StrategyExecution::Options options;
  if (workers > 0) options.check_executor = &sim;
  StrategyExecution execution(
      "s-0", sim, metrics, proxies, small_strategy(16, 3, 2s),
      [&](const StatusEvent& event) {
        switch (event.type) {
          case StatusEvent::Type::kStateEntered:
          case StatusEvent::Type::kStateCompleted:
          case StatusEvent::Type::kFinished:
            trace << event.type_name() << ' ' << event.state << ' '
                  << event.value << '\n';
            break;
          default:
            break;
        }
      },
      options);
  sim.schedule_at(runtime::Time{0}, [&] { execution.start(); });
  sim.run_all();
  EXPECT_EQ(execution.status(), engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(execution.checks_executed(), 48u);
  return trace.str();
}

TEST(ParallelDeterminism, TraceIdenticalAcrossWorkerCountsAndRuns) {
  const std::string baseline = run_trace(0);
  ASSERT_FALSE(baseline.empty());
  for (const int workers : {0, 1, 2, 4}) {
    EXPECT_EQ(run_trace(workers), baseline) << "workers=" << workers;
    EXPECT_EQ(run_trace(workers), baseline)
        << "repeat run, workers=" << workers;
  }
}

TEST(ParallelDeterminism, WorkersReduceEnactmentDelay) {
  const auto delay_with = [](int workers) {
    sim::Simulation::Options sim_options;
    sim_options.workers = workers;
    sim::Simulation sim(sim_options);
    sim::SimMetricsClient metrics(sim, sim::always_healthy(0.0));
    sim::SimProxyController proxies(sim);
    StrategyExecution::Options options;
    if (workers > 0) options.check_executor = &sim;
    StrategyExecution execution("s-0", sim, metrics, proxies,
                                small_strategy(80, 3, 1s),
                                [](const StatusEvent&) {}, options);
    sim.schedule_at(runtime::Time{0}, [&] { execution.start(); });
    sim.run_all();
    EXPECT_EQ(execution.status(), engine::ExecutionStatus::kSucceeded);
    return execution.enactment_delay();
  };

  const runtime::Duration one = delay_with(1);
  const runtime::Duration four = delay_with(4);
  EXPECT_LT(four, one);
  EXPECT_LT(four * 2, one);  // meaningfully, not marginally, faster
}

// ---------------------------------------------------------------------------
// Real runtime integration: EventLoop + WorkStealingPool (tsan target)

class ThreadSafeMetrics final : public engine::MetricsClient {
 public:
  util::Result<std::optional<double>> query(const core::ProviderConfig&,
                                            const std::string&) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++queries_;
    std::this_thread::sleep_for(200us);  // make evaluations overlap
    return std::optional<double>{1.0};
  }
  [[nodiscard]] int queries() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queries_;
  }

 private:
  mutable std::mutex mutex_;
  int queries_ = 0;
};

TEST(ParallelIntegration, EventLoopPlusPoolCompletesStrategy) {
  runtime::EventLoop loop;
  loop.start();
  WorkStealingPool pool(4);
  ThreadSafeMetrics metrics;
  NullProxies proxies;

  std::atomic<bool> finished{false};
  StrategyExecution::Options options;
  options.check_executor = &pool;
  StrategyExecution execution(
      "s-0", loop, metrics, proxies, small_strategy(16, 2, 5ms),
      [&](const StatusEvent& event) {
        if (event.type == StatusEvent::Type::kFinished) finished = true;
      },
      options);
  execution.request_start();

  for (int i = 0; i < 2000 && !finished; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(finished.load());
  pool.wait_idle();
  loop.stop();  // joins the loop thread: reads below are synchronized

  EXPECT_EQ(execution.status(), engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(execution.checks_executed(), 32u);
  EXPECT_EQ(metrics.queries(), 32);
  pool.shutdown();
}

// Check-pool threads arm each marshalling timer due at once, so the
// loop can fire it before the arming thread has recorded its id. Once
// every timer has fired, none may still be tracked as live.
TEST(ParallelIntegration, ForeignThreadTimersLeaveNoLiveTimers) {
  runtime::EventLoop loop;
  loop.start();
  WorkStealingPool pool(4);
  ThreadSafeMetrics metrics;
  NullProxies proxies;

  std::atomic<bool> finished{false};
  StrategyExecution::Options options;
  options.check_executor = &pool;
  StrategyExecution execution(
      "s-0", loop, metrics, proxies, small_strategy(32, 8, 1ms),
      [&](const StatusEvent& event) {
        if (event.type == StatusEvent::Type::kFinished) finished = true;
      },
      options);
  execution.request_start();

  for (int i = 0; i < 2000 && !finished; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(finished.load());
  pool.wait_idle();
  for (int i = 0;
       i < 400 && (loop.pending() > 0 || execution.live_timers() > 0); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  loop.stop();

  EXPECT_EQ(execution.status(), engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(execution.checks_executed(), 256u);
  EXPECT_EQ(execution.live_timers(), 0u);
  pool.shutdown();
}

}  // namespace
}  // namespace bifrost
