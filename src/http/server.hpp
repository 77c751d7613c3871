#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/reactor.hpp"
#include "runtime/thread_pool.hpp"

namespace bifrost::http {

/// HTTP/1.1 server on an epoll reactor with SO_REUSEPORT
/// worker-per-core accept loops (net::Reactor). Each reactor thread
/// owns its connections outright; request bytes are parsed
/// incrementally on the reactor thread. Tens of thousands of idle
/// keep-alive connections cost two buffers each, no thread.
///
/// A request is answered in one of two ways, fixed at construction:
///  * Handler: runs on a bounded handler pool, whose responses marshal
///    back to the owning reactor for writev assembly. The pool bounds
///    request concurrency, not connection count. Handlers run
///    concurrently; they must be thread-safe, and they may block
///    (unless Options::inline_handlers is set).
///  * ReactorHandler: runs on the reactor thread that owns the
///    connection and answers through a Reply, at once or later from a
///    continuation on the same worker (a reactor timer or outbound
///    connection). It must never block.
class HttpServer {
 public:
  using Handler = std::function<Response(const Request&)>;

  /// Answers one request of a ReactorHandler. Call it exactly once, on
  /// the worker that ran the handler; copies name the same request.
  class Reply {
   public:
    void operator()(Response response) const;
    /// The reactor whose worker runs the handler: for continuations
    /// (timers, outbound connections) that answer later.
    [[nodiscard]] net::Reactor& reactor() const { return *server_->reactor_; }

   private:
    friend class HttpServer;
    Reply(HttpServer* server, net::Reactor::ConnId id, bool close)
        : server_(server), id_(id), close_(close) {}
    HttpServer* server_;
    net::Reactor::ConnId id_;
    bool close_;
  };
  using ReactorHandler = std::function<void(Request request, Reply reply)>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral
    /// Handler pool size: bounds concurrently running handlers, not
    /// connections. Unused with a ReactorHandler or inline_handlers.
    std::size_t worker_threads = 8;
    /// Reactor threads, each owning one epoll set, one SO_REUSEPORT
    /// accept socket and every connection it accepted. Sized to cores;
    /// connection capacity does not depend on it.
    std::size_t reactor_workers = 2;
    /// Run a Handler on the reactor thread instead of the pool, as a
    /// ReactorHandler that answers at once. Strictly for handlers that
    /// never block (microbench ceilings, trivial static responses) — a
    /// blocking inline handler stalls every connection owned by that
    /// reactor worker.
    bool inline_handlers = false;
    /// Connections that send nothing for this long are closed: idle
    /// keep-alive connections and clients stalled mid-request alike.
    std::chrono::milliseconds idle_timeout{60000};
    /// How long stop() waits for in-flight requests to finish before
    /// force-closing their connections (graceful drain). 0 = immediate.
    std::chrono::milliseconds drain_timeout{5000};
  };

  HttpServer(Options options, Handler handler);
  HttpServer(Options options, ReactorHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts accepting. Throws std::runtime_error on bind error.
  void start();

  /// Stops accepting, waits up to Options::drain_timeout for in-flight
  /// requests to complete (idle keep-alive connections are closed
  /// immediately), force-closes stragglers and the reactor's outbound
  /// connections, joins all threads. Idempotent.
  void stop();

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }

  /// Currently open connections (idle + in flight), for diagnostics.
  [[nodiscard]] std::size_t open_connections() const;
  /// Reactor timers not yet fired or cancelled, for diagnostics.
  [[nodiscard]] std::size_t pending_timers() const;

 private:
  net::Reactor::Verdict reactor_data(net::Reactor::ConnId id,
                                     std::string& input);
  [[nodiscard]] Response run_handler(const Request& request);
  void answer(net::Reactor::ConnId id, bool close, Response response);
  void finish_inflight();

  Options options_;
  Handler handler_;
  ReactorHandler reactor_handler_;
  std::uint16_t port_ = 0;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<net::Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  /// Requests handed to the pool, or to a ReactorHandler that did not
  /// answer at once, and not answered yet; stop() drains on this.
  std::atomic<std::size_t> inflight_{0};
  /// stop() waits on drain_cv_ (under mutex_) for inflight_ to reach
  /// zero; every decrement notifies it.
  std::mutex mutex_;
  std::condition_variable drain_cv_;
};

}  // namespace bifrost::http
