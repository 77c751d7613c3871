// Thin RAII layer over POSIX TCP sockets. Blocking I/O with per-socket
// timeouts; higher layers (HTTP server/client) provide concurrency.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace bifrost::net {

/// Move-only owner of a file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_.store(other.release(), std::memory_order_relaxed);
    }
    return *this;
  }
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  [[nodiscard]] int get() const { return fd_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool valid() const { return get() >= 0; }
  int release() { return fd_.exchange(-1, std::memory_order_relaxed); }
  void reset();

 private:
  // Atomic so a server's stop() can close the listener while the dispatch
  // loop concurrently checks valid(); close/poll interleaving is handled by
  // the wake pipe, this only removes the word-level race on the descriptor.
  std::atomic<int> fd_{-1};
};

/// Starts a TCP connect to host:port (IPv4 literal or resolvable name)
/// on a non-blocking socket with TCP_NODELAY set. The handshake may
/// still be in flight: the socket turns writable when it completes (or
/// fails; SO_ERROR then says why). Event loops adopt the socket
/// (net::Reactor::adopt); TcpStream::connect waits for it with poll().
util::Result<FdHandle> connect_nonblocking(const std::string& host,
                                          std::uint16_t port);

/// A connected TCP stream (blocking, with optional I/O timeouts).
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FdHandle fd) : fd_(std::move(fd)) {}

  /// Connects to host:port (IPv4 literal or resolvable name).
  static util::Result<TcpStream> connect(
      const std::string& host, std::uint16_t port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  [[nodiscard]] bool valid() const { return fd_.valid(); }

  /// Applies a receive+send timeout to subsequent operations.
  util::Result<void> set_io_timeout(std::chrono::milliseconds timeout);

  /// Disables Nagle's algorithm (latency-sensitive request/response).
  util::Result<void> set_no_delay(bool on);

  /// Reads up to `len` bytes. Returns 0 on orderly shutdown.
  util::Result<std::size_t> read_some(char* buf, std::size_t len);

  /// Writes the whole buffer (looping over partial writes).
  util::Result<void> write_all(const char* buf, std::size_t len);
  util::Result<void> write_all(const std::string& data) {
    return write_all(data.data(), data.size());
  }

  void close() { fd_.reset(); }

  /// Shuts down both directions without closing the descriptor; a
  /// blocked read on another thread returns immediately with EOF.
  void shutdown_both();

  /// Raw descriptor for poll()-style readiness watching. The stream
  /// retains ownership.
  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  FdHandle fd_;
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens on loopback. Port 0 picks an ephemeral port.
  static util::Result<TcpListener> bind(std::uint16_t port,
                                        int backlog = 128);

  /// Like bind(), but sets SO_REUSEPORT before binding so several
  /// listeners (one per reactor worker) can share one port and let the
  /// kernel spread incoming connections across them.
  static util::Result<TcpListener> bind_reuseport(std::uint16_t port,
                                                  int backlog = 128);

  /// Blocks until a client connects. Transient per-connection failures
  /// (EINTR, ECONNABORTED, and friends) are retried internally; only
  /// listener-level errors surface — notably the listener being closed
  /// from another thread (used to stop accept loops).
  util::Result<TcpStream> accept();

  /// Switches the listening socket to non-blocking accepts (reactor
  /// accept loops drain with accept4 until EAGAIN).
  util::Result<void> set_non_blocking();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Closing from another thread unblocks accept() with an error.
  void close();

 private:
  static util::Result<TcpListener> bind_impl(std::uint16_t port, int backlog,
                                             bool reuse_port);

  FdHandle fd_;
  std::uint16_t port_ = 0;
};

}  // namespace bifrost::net
