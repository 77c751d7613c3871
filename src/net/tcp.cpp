#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bifrost::net {
namespace {

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void FdHandle::reset() {
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

util::Result<FdHandle> connect_nonblocking(const std::string& host,
                                          std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Numeric addresses (every backend in this repository) skip the
  // resolver; names still go through getaddrinfo.
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string service = std::to_string(port);
    if (const int rc =
            ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
        rc != 0) {
      return util::Result<FdHandle>::error("getaddrinfo(" + host +
                                           "): " + gai_strerror(rc));
    }
    std::memcpy(&addr, res->ai_addr, sizeof addr);
    ::freeaddrinfo(res);
  }
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) {
    return util::Result<FdHandle>::error(errno_message("socket"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    return util::Result<FdHandle>::error(errno_message("connect"));
  }
  return fd;
}

util::Result<TcpStream> TcpStream::connect(const std::string& host,
                                           std::uint16_t port,
                                           std::chrono::milliseconds timeout) {
  auto connecting = connect_nonblocking(host, port);
  if (!connecting.ok()) {
    return util::Result<TcpStream>::error(connecting.error_message());
  }
  FdHandle fd = std::move(connecting).value();
  // Wait for the handshake with poll() so we honour the timeout.
  pollfd pfd{fd.get(), POLLOUT, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (rc <= 0) {
    return util::Result<TcpStream>::error(
        rc == 0 ? "connect timeout" : errno_message("poll"));
  }
  int err = 0;
  socklen_t len = sizeof err;
  ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    return util::Result<TcpStream>::error(std::string("connect: ") +
                                          std::strerror(err));
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK);  // back to blocking
  return TcpStream(std::move(fd));
}

util::Result<void> TcpStream::set_io_timeout(
    std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
      ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
    return util::Result<void>::error(errno_message("setsockopt(timeout)"));
  }
  return {};
}

util::Result<void> TcpStream::set_no_delay(bool on) {
  const int value = on ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &value,
                   sizeof value) != 0) {
    return util::Result<void>::error(errno_message("setsockopt(nodelay)"));
  }
  return {};
}

util::Result<std::size_t> TcpStream::read_some(char* buf, std::size_t len) {
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buf, len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return util::Result<std::size_t>::error("read timeout");
    }
    return util::Result<std::size_t>::error(errno_message("recv"));
  }
}

util::Result<void> TcpStream::write_all(const char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd_.get(), buf + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return util::Result<void>::error("write timeout");
    }
    return util::Result<void>::error(errno_message("send"));
  }
  return {};
}

void TcpStream::shutdown_both() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

util::Result<TcpListener> TcpListener::bind(std::uint16_t port, int backlog) {
  return bind_impl(port, backlog, /*reuse_port=*/false);
}

util::Result<TcpListener> TcpListener::bind_reuseport(std::uint16_t port,
                                                      int backlog) {
  return bind_impl(port, backlog, /*reuse_port=*/true);
}

util::Result<TcpListener> TcpListener::bind_impl(std::uint16_t port,
                                                 int backlog,
                                                 bool reuse_port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return util::Result<TcpListener>::error(errno_message("socket"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) !=
          0) {
    return util::Result<TcpListener>::error(
        errno_message("setsockopt(reuseport)"));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return util::Result<TcpListener>::error(errno_message("bind"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return util::Result<TcpListener>::error(errno_message("listen"));
  }

  socklen_t len = sizeof addr;
  ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len);

  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

util::Result<TcpStream> TcpListener::accept() {
  while (true) {
    const int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) {
      TcpStream stream((FdHandle(client)));
      (void)stream.set_no_delay(true);
      return stream;
    }
    // Transient, per-connection failures: the client gave up between
    // SYN and accept (ECONNABORTED, or EPROTO on some stacks), a signal
    // interrupted us, or the kernel reported an early network error on
    // the nascent connection. None of these say anything about the
    // listener — retry instead of surfacing a spurious error (a loaded
    // CI runner hits these regularly).
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO ||
        errno == ENETDOWN || errno == EHOSTUNREACH || errno == ENETUNREACH ||
        errno == EHOSTDOWN || errno == ENONET) {
      continue;
    }
    return util::Result<TcpStream>::error(errno_message("accept"));
  }
}

util::Result<void> TcpListener::set_non_blocking() {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return util::Result<void>::error(errno_message("fcntl(nonblock)"));
  }
  return {};
}

void TcpListener::close() {
  // Shut down first so a concurrent accept() wakes with an error instead
  // of racing on the closed descriptor.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  fd_.reset();
}

}  // namespace bifrost::net
