// Event-driven multicore I/O: an epoll reactor with SO_REUSEPORT
// worker-per-core accept loops. Each worker thread owns one epoll
// instance, one listening socket sharing the server port, every
// connection it ever accepted or adopted, and a timer queue —
// connections never migrate between workers, so per-connection state
// needs no locking. Protocol logic lives above (http::HttpServer,
// http::UpstreamClient): the reactor hands buffered bytes to a callback
// on the owning worker thread and assembles output with writev from
// queued scatter-gather parts.
//
// Ownership/threading contract:
//  * DataFn runs on the worker that owns the connection. It may consume
//    bytes from the input buffer and queue output via send().
//  * A protocol layer that answers later returns Verdict::kSuspend; the
//    connection stays parked (its input still accumulates, bounded)
//    until resume() (on the owning worker) or complete() (from any
//    thread) queues the response.
//  * Outbound connections (adopt()) and timers (start_timer()) belong to
//    the worker that created them; their callbacks run there. So a
//    request can be forwarded upstream and answered without leaving the
//    worker that owns the inbound connection.
//  * Bounded buffers give backpressure both ways: a connection whose
//    input buffer fills stops being read until bytes are consumed; one
//    whose output queue exceeds the bound is closed as a slow reader.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "util/result.hpp"

namespace bifrost::net {

class Reactor {
 public:
  /// Stable connection identity. Encodes the owning worker; ids are
  /// never reused, so a completion racing a close is a safe no-op.
  using ConnId = std::uint64_t;

  enum class Verdict {
    kContinue,  ///< consumed what it could; resume reading
    kSuspend,   ///< a handler owns the connection until complete()
    kClose,     ///< flush queued output, then close
  };

  /// Invoked on the owning worker whenever a connection has new input
  /// (and is not suspended). The callback erases the bytes it consumed
  /// from `input` and may queue responses with send().
  using DataFn = std::function<Verdict(ConnId id, std::string& input)>;

  /// Callbacks of an outbound connection (adopt()); both run on the
  /// owning worker. on_data consumes bytes from `input`, like DataFn.
  /// on_close reports that the connect failed, the peer closed the
  /// connection or an I/O error hit it (`error` is the errno, 0 for an
  /// orderly EOF); `input` holds the bytes still unconsumed, so a
  /// message delimited by the close is complete now. on_close is not
  /// called for close() or stop().
  struct OutboundFns {
    std::function<void(ConnId id, std::string& input)> on_data;
    std::function<void(ConnId id, std::string& input, int error)> on_close;
  };

  /// Handle of a pending timer (start_timer()); the default value names
  /// no timer.
  struct Timer {
    std::chrono::steady_clock::time_point deadline{};
    std::uint64_t seq = 0;
  };

  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral
    std::size_t workers = 1;
    int backlog = 1024;
    /// Idle (non-suspended) connections are closed after this long
    /// without traffic.
    std::chrono::milliseconds idle_timeout{60000};
    /// Per-connection input bound; reading pauses (backpressure) while
    /// the protocol layer has this much unconsumed data buffered.
    std::size_t max_read_buffer = 1 << 20;
    /// Per-connection output bound; a peer that won't drain this much
    /// queued response data is closed.
    std::size_t max_write_buffer = 4u << 20;
  };

  Reactor(Options options, DataFn on_data);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds one SO_REUSEPORT listener per worker and starts the worker
  /// threads.
  util::Result<void> start();

  /// Stops accepting and closes idle connections. Suspended connections
  /// survive until their resume()/complete(); their responses are
  /// flushed and the connection is then closed regardless of
  /// keep-alive. Outbound connections and timers are left alone: they
  /// may carry the requests the drain waits for.
  void drain();

  /// Force-closes everything (outbound connections included) and joins
  /// the workers. Pending timers and callbacks are destroyed without
  /// running. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Accepted connections currently open (outbound ones not counted).
  [[nodiscard]] std::size_t open_connections() const;
  /// Connections currently parked under Verdict::kSuspend.
  [[nodiscard]] std::size_t suspended_connections() const;
  /// Timers started and neither fired nor cancelled yet.
  [[nodiscard]] std::size_t pending_timers() const;

  /// Index of the calling thread's worker, or kNotAWorker when the
  /// caller is not one of this reactor's worker threads.
  [[nodiscard]] std::size_t current_worker() const;

  /// Queues bytes on the connection (scatter-gather: parts are written
  /// with writev, never concatenated). Worker-thread only. Returns false
  /// when the connection is gone afterwards (write error, output bound,
  /// or close_after with everything flushed): its input buffer is freed
  /// and must not be touched again.
  bool send(ConnId id, std::vector<std::string> parts, bool close_after);

  /// Worker-thread only (the owning worker): queues the response of a
  /// suspended connection and resumes reading it (or closes it, if
  /// close_after / draining / the peer vanished). Pipelined requests
  /// that arrived meanwhile are handed to DataFn before it returns.
  void resume(ConnId id, std::vector<std::string> parts, bool close_after);

  /// Thread-safe resume(): marshals the response to the owning worker.
  /// `on_done` — optional — runs on the owning worker after the response
  /// is queued and flushed as far as the socket allows, whether or not
  /// the connection still exists.
  void complete(ConnId id, std::vector<std::string> parts, bool close_after,
                std::function<void()> on_done = nullptr);

  /// Worker-thread only: takes over a connecting socket (see
  /// net::connect_nonblocking) as an outbound connection of the calling
  /// worker. Output queued with send() goes out once the connect
  /// completes. A peer EOF or error closes it at once, even with output
  /// unsent, and reports through fns->on_close. Outbound connections are
  /// exempt from the idle sweep and drain(); their owner closes them.
  util::Result<ConnId> adopt(FdHandle fd,
                             std::shared_ptr<const OutboundFns> fns);

  /// Worker-thread only: closes any connection of the calling worker
  /// without invoking callbacks.
  void close(ConnId id);

  /// Worker-thread only: runs `fn` on the calling worker at `deadline`
  /// (epoll_wait sleeps no longer than the earliest pending deadline).
  /// Returns a default Timer when called off a worker.
  Timer start_timer(std::chrono::steady_clock::time_point deadline,
                    std::function<void()> fn);
  /// Worker-thread only: cancels a pending timer; no-op for a timer that
  /// already fired or was cancelled.
  void cancel_timer(const Timer& timer);

 private:
  struct Conn;
  struct Worker;

  void worker_loop(Worker& worker);
  void accept_ready(Worker& worker);
  void conn_readable(Worker& worker, Conn& conn);
  void run_data(Worker& worker, Conn& conn);
  void connect_done(Worker& worker, Conn& conn);
  void run_timers(Worker& worker);
  bool queue_output(Worker& worker, Conn& conn,
                    std::vector<std::string> parts, bool close_after);
  bool flush(Worker& worker, Conn& conn);
  void close_conn(Worker& worker, ConnId id, bool notify = true);
  void resume_reading(Worker& worker, Conn& conn);
  void update_interest(Worker& worker, Conn& conn);
  void sweep_idle(Worker& worker);
  void post(std::size_t worker_index, std::function<void()> fn);
  [[nodiscard]] static std::size_t worker_of(ConnId id);

  Options options_;
  DataFn on_data_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace bifrost::net
