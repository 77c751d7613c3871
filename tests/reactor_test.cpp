// net::Reactor in isolation, below the HTTP layer: a raw line protocol
// exercises connection ownership, suspend/complete marshalling, torn
// reads, multi-worker accept, idle sweep, drain ordering, outbound
// connections and timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/tcp.hpp"

namespace bifrost::net {
namespace {

using namespace std::chrono_literals;

/// Reads until `delim` or EOF/error; returns what was read.
std::string read_until(TcpStream& stream, char delim) {
  std::string out;
  char byte = 0;
  while (true) {
    const auto n = stream.read_some(&byte, 1);
    if (!n.ok() || n.value() == 0) return out;
    out.push_back(byte);
    if (byte == delim) return out;
  }
}

/// Line-echo reactor: every '\n'-terminated line is answered with
/// "echo:<line>\n", sent as two writev parts.
Reactor::DataFn echo_fn(Reactor*& reactor) {
  return [&reactor](Reactor::ConnId id, std::string& input) {
    std::size_t pos = 0;
    while ((pos = input.find('\n')) != std::string::npos) {
      std::string line = input.substr(0, pos);
      input.erase(0, pos + 1);
      if (line == "quit") {
        reactor->send(id, {"bye\n"}, /*close_after=*/true);
        return Reactor::Verdict::kClose;
      }
      reactor->send(id, {"echo:", line + "\n"}, /*close_after=*/false);
    }
    return Reactor::Verdict::kContinue;
  };
}

TEST(ReactorTest, EchoRoundTripAndTornWrites) {
  Reactor* raw = nullptr;
  Reactor reactor(Reactor::Options{}, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  // Deliver one line one byte at a time: the reactor must park the
  // partial line and fire once the terminator arrives.
  const std::string line = "hello reactor\n";
  for (const char c : line) {
    ASSERT_TRUE(stream.value().write_all(std::string(1, c)));
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(read_until(stream.value(), '\n'), "echo:hello reactor\n");
  // A second line on the same connection (keep-alive reuse).
  ASSERT_TRUE(stream.value().write_all("again\n"));
  EXPECT_EQ(read_until(stream.value(), '\n'), "echo:again\n");
  reactor.stop();
}

TEST(ReactorTest, CloseAfterFlushDeliversFullResponse) {
  Reactor* raw = nullptr;
  Reactor reactor(Reactor::Options{}, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("quit\n"));
  EXPECT_EQ(read_until(stream.value(), '\n'), "bye\n");
  // Then EOF, not more data.
  char byte = 0;
  const auto n = stream.value().read_some(&byte, 1);
  EXPECT_TRUE(!n.ok() || n.value() == 0);
  reactor.stop();
}

TEST(ReactorTest, ManyConcurrentConnectionsHeldOpen) {
  Reactor* raw = nullptr;
  Reactor reactor(Reactor::Options{}, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  constexpr int kConns = 200;
  std::vector<TcpStream> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", reactor.port());
    ASSERT_TRUE(stream.ok()) << stream.error_message();
    conns.push_back(std::move(stream).value());
  }
  // Every connection gets served while all the others stay open.
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(conns[i].write_all(std::to_string(i) + "\n"));
    EXPECT_EQ(read_until(conns[i], '\n'),
              "echo:" + std::to_string(i) + "\n");
  }
  EXPECT_EQ(reactor.open_connections(), static_cast<std::size_t>(kConns));
  reactor.stop();
}

TEST(ReactorTest, MultipleWorkersShareOnePort) {
  Reactor* raw = nullptr;
  Reactor::Options options;
  options.workers = 4;
  Reactor reactor(options, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  // SO_REUSEPORT spreads conns across workers; every one must serve.
  for (int i = 0; i < 64; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", reactor.port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.value().write_all("w\n"));
    EXPECT_EQ(read_until(stream.value(), '\n'), "echo:w\n");
  }
  reactor.stop();
}

TEST(ReactorTest, SuspendCompleteMarshalsBackFromForeignThread) {
  std::mutex mutex;
  std::vector<Reactor::ConnId> pending;
  Reactor reactor(Reactor::Options{},
                  [&](Reactor::ConnId id, std::string& input) {
                    if (input.find('\n') == std::string::npos) {
                      return Reactor::Verdict::kContinue;
                    }
                    input.clear();
                    const std::lock_guard<std::mutex> lock(mutex);
                    pending.push_back(id);
                    return Reactor::Verdict::kSuspend;
                  });
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("work\n"));
  // Wait until the connection is parked.
  for (int i = 0; i < 200 && reactor.suspended_connections() == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(reactor.suspended_connections(), 1u);
  std::atomic<bool> done{false};
  std::thread completer([&] {
    Reactor::ConnId id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ASSERT_EQ(pending.size(), 1u);
      id = pending.front();
    }
    reactor.complete(id, {"late:", "result\n"}, /*close_after=*/false,
                     [&] { done = true; });
  });
  EXPECT_EQ(read_until(stream.value(), '\n'), "late:result\n");
  completer.join();
  for (int i = 0; i < 200 && !done.load(); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(done.load());
  EXPECT_EQ(reactor.suspended_connections(), 0u);
  // The connection is reusable after completion.
  ASSERT_TRUE(stream.value().write_all("more\n"));
  for (int i = 0; i < 200 && reactor.suspended_connections() == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(reactor.suspended_connections(), 1u);
  reactor.stop();
}

// A burst of completions from a foreign thread must each wake the
// worker. A post() that lands while the worker runs the previous batch
// must not have its eventfd signal consumed after the queue was taken:
// its response would then wait for unrelated traffic on the worker or
// for the 250 ms epoll timeout.
TEST(ReactorTest, BackToBackCompletionsAreNeverStranded) {
  constexpr std::size_t kConns = 16;
  constexpr int kRounds = 100;
  std::mutex mutex;
  std::vector<Reactor::ConnId> pending;
  Reactor reactor(Reactor::Options{},
                  [&](Reactor::ConnId id, std::string& input) {
                    if (input.find('\n') == std::string::npos) {
                      return Reactor::Verdict::kContinue;
                    }
                    input.clear();
                    const std::lock_guard<std::mutex> lock(mutex);
                    pending.push_back(id);
                    return Reactor::Verdict::kSuspend;
                  });
  ASSERT_TRUE(reactor.start().ok());
  std::vector<TcpStream> streams;
  for (std::size_t i = 0; i < kConns; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", reactor.port());
    ASSERT_TRUE(stream.ok());
    streams.push_back(std::move(stream.value()));
  }

  auto slowest = std::chrono::steady_clock::duration::zero();
  for (int round = 0; round < kRounds; ++round) {
    for (auto& stream : streams) ASSERT_TRUE(stream.write_all("go\n"));
    for (int i = 0; i < 400 && reactor.suspended_connections() < kConns; ++i) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(reactor.suspended_connections(), kConns);
    std::vector<Reactor::ConnId> ids;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ids.swap(pending);
    }
    ASSERT_EQ(ids.size(), kConns);
    // No socket traffic reaches the worker from here on: only the
    // completions' own wake-ups can get the responses out.
    const auto begin = std::chrono::steady_clock::now();
    std::thread completer([&] {
      for (const Reactor::ConnId id : ids) {
        reactor.complete(id, {"done\n"}, /*close_after=*/false);
      }
    });
    for (auto& stream : streams) {
      EXPECT_EQ(read_until(stream, '\n'), "done\n");
    }
    slowest = std::max(slowest, std::chrono::steady_clock::now() - begin);
    completer.join();
  }
  EXPECT_LT(slowest, 100ms) << "slowest round took " << slowest / 1ms << " ms";
  reactor.stop();
}

TEST(ReactorTest, CompleteOnClosedConnectionIsSafeNoOp) {
  std::atomic<Reactor::ConnId> seen{0};
  Reactor reactor(Reactor::Options{},
                  [&](Reactor::ConnId id, std::string& input) {
                    input.clear();
                    seen = id;
                    return Reactor::Verdict::kSuspend;
                  });
  ASSERT_TRUE(reactor.start().ok());
  {
    auto stream = TcpStream::connect("127.0.0.1", reactor.port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.value().write_all("x"));
    for (int i = 0; i < 200 && seen.load() == 0; ++i) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_NE(seen.load(), 0u);
  }  // peer disconnects while suspended
  std::atomic<bool> done{false};
  reactor.complete(seen.load(), {"into the void"}, false,
                   [&] { done = true; });
  for (int i = 0; i < 200 && !done.load(); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  // on_done fires even though the peer is gone; nothing crashes.
  EXPECT_TRUE(done.load());
  reactor.stop();
}

TEST(ReactorTest, IdleConnectionsSweptAfterTimeout) {
  Reactor* raw = nullptr;
  Reactor::Options options;
  options.idle_timeout = 150ms;
  Reactor reactor(options, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("ping\n"));
  EXPECT_EQ(read_until(stream.value(), '\n'), "echo:ping\n");
  EXPECT_EQ(reactor.open_connections(), 1u);
  for (int i = 0; i < 40 && reactor.open_connections() > 0; ++i) {
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_EQ(reactor.open_connections(), 0u);
  reactor.stop();
}

TEST(ReactorTest, DrainFlushesSuspendedThenCloses) {
  std::atomic<Reactor::ConnId> seen{0};
  Reactor reactor(Reactor::Options{},
                  [&](Reactor::ConnId id, std::string& input) {
                    input.clear();
                    seen = id;
                    return Reactor::Verdict::kSuspend;
                  });
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("x"));
  for (int i = 0; i < 200 && seen.load() == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_NE(seen.load(), 0u);
  reactor.drain();
  // New connections are refused after drain: either connect fails or the
  // socket is closed before serving.
  // The suspended connection still gets its response, then closes even
  // though close_after is false (draining forces it).
  reactor.complete(seen.load(), {"drained\n"}, /*close_after=*/false);
  EXPECT_EQ(read_until(stream.value(), '\n'), "drained\n");
  char byte = 0;
  const auto n = stream.value().read_some(&byte, 1);
  EXPECT_TRUE(!n.ok() || n.value() == 0);
  reactor.stop();
}

TEST(ReactorTest, StopWithOpenConnectionsIsClean) {
  Reactor* raw = nullptr;
  Reactor reactor(Reactor::Options{}, echo_fn(raw));
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  std::vector<TcpStream> conns;
  for (int i = 0; i < 16; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", reactor.port());
    ASSERT_TRUE(stream.ok());
    conns.push_back(std::move(stream).value());
  }
  reactor.stop();
  EXPECT_EQ(reactor.open_connections(), 0u);
}

// ---------------------------------------------------------------------------
// Outbound connections and timers: everything runs on the worker that
// owns the inbound connection.

/// A one-shot upstream on a loopback listener: accepts one connection,
/// reads one line, waits `delay`, writes `answer` and closes.
class LineUpstream {
 public:
  LineUpstream(std::string answer, std::chrono::milliseconds delay)
      : listener_(std::move(TcpListener::bind(0)).value()) {
    thread_ = std::thread([this, answer = std::move(answer), delay] {
      auto conn = listener_.accept();
      if (!conn.ok()) return;
      line_ = read_until(conn.value(), '\n');
      std::this_thread::sleep_for(delay);
      (void)conn.value().write_all(answer);
    });
  }
  ~LineUpstream() {
    listener_.close();
    thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// What the upstream read; valid once the relay answered.
  [[nodiscard]] const std::string& line() const { return line_; }

 private:
  TcpListener listener_;
  std::string line_;
  std::thread thread_;
};

/// Relay reactor: an inbound "go\n" opens an outbound connection to
/// `upstream_port`, sends "ping\n" and parks the inbound connection; when
/// the upstream closes, the bytes it sent are relayed back as
/// "got:<bytes>|err:<errno>\n" through resume(). Records the thread of
/// every callback.
struct Relay {
  explicit Relay(std::uint16_t upstream_port) {
    reactor = std::make_unique<Reactor>(
        Reactor::Options{}, [this, upstream_port](Reactor::ConnId id,
                                                  std::string& input) {
          if (input.find('\n') == std::string::npos) {
            return Reactor::Verdict::kContinue;
          }
          input.clear();
          note_thread();
          auto fns = std::make_shared<Reactor::OutboundFns>();
          fns->on_data = [this](Reactor::ConnId, std::string&) {
            note_thread();  // leave the bytes for on_close
          };
          fns->on_close = [this, id](Reactor::ConnId, std::string& rest,
                                     int error) {
            note_thread();
            reactor->resume(id,
                            {"got:" + rest, "|err:" + std::to_string(error),
                             "\n"},
                            /*close_after=*/false);
          };
          auto fd = connect_nonblocking("127.0.0.1", upstream_port);
          if (!fd.ok()) {
            reactor->send(id, {"no socket\n"}, false);
            return Reactor::Verdict::kContinue;
          }
          auto out = reactor->adopt(std::move(fd).value(), std::move(fns));
          if (!out.ok()) {
            reactor->send(id, {"no adopt\n"}, false);
            return Reactor::Verdict::kContinue;
          }
          reactor->send(out.value(), {"ping\n"}, false);
          return Reactor::Verdict::kSuspend;
        });
  }

  void note_thread() {
    const std::lock_guard<std::mutex> lock(mutex);
    threads.push_back(std::this_thread::get_id());
  }

  std::mutex mutex;
  std::vector<std::thread::id> threads;
  std::unique_ptr<Reactor> reactor;
};

TEST(ReactorTest, OutboundConnectionRelaysOnTheOwningWorker) {
  LineUpstream upstream("pong-body", 0ms);
  Relay relay(upstream.port());
  ASSERT_TRUE(relay.reactor->start().ok());
  auto stream = TcpStream::connect("127.0.0.1", relay.reactor->port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("go\n"));
  // The upstream's EOF delimits its answer: on_close hands it over whole.
  EXPECT_EQ(read_until(stream.value(), '\n'), "got:pong-body|err:0\n");
  EXPECT_EQ(upstream.line(), "ping\n");
  {
    const std::lock_guard<std::mutex> lock(relay.mutex);
    ASSERT_GE(relay.threads.size(), 2u);  // DataFn, on_data..., on_close
    for (const auto& id : relay.threads) EXPECT_EQ(id, relay.threads.front());
  }
  EXPECT_EQ(relay.reactor->suspended_connections(), 0u);
  // Outbound connections do not count as open (inbound) connections.
  EXPECT_EQ(relay.reactor->open_connections(), 1u);
  relay.reactor->stop();
}

TEST(ReactorTest, OutboundConnectRefusedReportsTheError) {
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }  // closed: nothing listens there now
  Relay relay(dead_port);
  ASSERT_TRUE(relay.reactor->start().ok());
  auto stream = TcpStream::connect("127.0.0.1", relay.reactor->port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("go\n"));
  const std::string answer = read_until(stream.value(), '\n');
  EXPECT_EQ(answer.rfind("got:|err:", 0), 0u) << answer;
  EXPECT_NE(answer, "got:|err:0\n") << "a refused connect carries its errno";
  relay.reactor->stop();
}

TEST(ReactorTest, DrainLeavesOutboundRequestsInFlight) {
  LineUpstream upstream("late", 200ms);
  Relay relay(upstream.port());
  ASSERT_TRUE(relay.reactor->start().ok());
  auto stream = TcpStream::connect("127.0.0.1", relay.reactor->port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("go\n"));
  for (int i = 0; i < 200 && relay.reactor->suspended_connections() == 0;
       ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(relay.reactor->suspended_connections(), 1u);
  relay.reactor->drain();
  // The outbound connection survives the drain and its answer is
  // relayed; draining then closes the inbound connection.
  EXPECT_EQ(read_until(stream.value(), '\n'), "got:late|err:0\n");
  char byte = 0;
  const auto n = stream.value().read_some(&byte, 1);
  EXPECT_TRUE(!n.ok() || n.value() == 0);
  relay.reactor->stop();
}

TEST(ReactorTest, TimersFireInDeadlineOrderAndCancelledOnesNever) {
  Reactor* raw = nullptr;
  std::string order;  // touched only on the worker, read after resume
  Reactor reactor(Reactor::Options{}, [&](Reactor::ConnId id,
                                          std::string& input) {
    if (input.find('\n') == std::string::npos) {
      return Reactor::Verdict::kContinue;
    }
    input.clear();
    const auto now = std::chrono::steady_clock::now();
    raw->start_timer(now + 30ms, [&] { order += "30,"; });
    raw->start_timer(now + 10ms, [&] { order += "10,"; });
    const Reactor::Timer doomed =
        raw->start_timer(now + 20ms, [&] { order += "20,"; });
    raw->cancel_timer(doomed);
    raw->cancel_timer(doomed);  // a second cancel is a no-op
    raw->start_timer(now + 40ms, [&, id] {
      raw->resume(id, {order, "\n"}, /*close_after=*/false);
    });
    return Reactor::Verdict::kSuspend;
  });
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  // Off a worker thread there is no timer queue to join.
  EXPECT_EQ(reactor.start_timer(std::chrono::steady_clock::now(), [] {}).seq,
            0u);
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(stream.value().write_all("t\n"));
  EXPECT_EQ(read_until(stream.value(), '\n'), "10,30,\n");
  // epoll_wait sleeps until the earliest deadline, not its 250 ms cap.
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 200ms);
  EXPECT_EQ(reactor.pending_timers(), 0u);
  reactor.stop();
}

TEST(ReactorTest, StopDestroysPendingTimersUnfired) {
  std::atomic<bool> fired{false};
  std::atomic<bool> armed{false};
  Reactor* raw = nullptr;
  Reactor reactor(Reactor::Options{}, [&](Reactor::ConnId, std::string& in) {
    in.clear();
    raw->start_timer(std::chrono::steady_clock::now() + 10s,
                     [&] { fired = true; });
    armed = true;
    return Reactor::Verdict::kSuspend;
  });
  raw = &reactor;
  ASSERT_TRUE(reactor.start().ok());
  auto stream = TcpStream::connect("127.0.0.1", reactor.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("x"));
  for (int i = 0; i < 200 && !armed.load(); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(reactor.pending_timers(), 1u);
  reactor.stop();
  EXPECT_EQ(reactor.pending_timers(), 0u);
  EXPECT_FALSE(fired.load());
}

}  // namespace
}  // namespace bifrost::net
