// HTTP/1.1 client for code that already runs on a net::Reactor worker
// thread (a ReactorHandler and its continuations): a request goes out
// on an outbound connection of the calling worker and its response
// comes back as a callback on the same worker, so nothing blocks and
// no thread is crossed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "net/reactor.hpp"
#include "util/result.hpp"

namespace bifrost::http {

/// Keep-alive pools, one per reactor worker and touched only by that
/// worker, so no lock. Connections are taken most recently used first
/// (a warm socket the backend just served is least likely to hit its
/// idle timeout mid-flight). No health check is needed on take: the
/// reactor closes an idle connection the moment its peer does. What a
/// race with that close leaves is covered by HttpClient's rule: a
/// reused connection that dies before any response byte arrives is
/// retried once, on a fresh connection.
class UpstreamClient {
 public:
  using Callback = std::function<void(util::Result<Response> response)>;

  /// `workers`: the worker count of the reactor it will run on.
  explicit UpstreamClient(std::size_t workers);
  ~UpstreamClient();

  UpstreamClient(const UpstreamClient&) = delete;
  UpstreamClient& operator=(const UpstreamClient&) = delete;

  /// Worker-thread only. Sends `request` as is (the caller sets Host)
  /// to host:port and calls `done` on the calling worker with the
  /// response or an error. `timeout` bounds the whole exchange; a
  /// reactor timer enforces it, and the timer is cancelled when the
  /// exchange ends. Errors naming a deadline contain "timeout". `done`
  /// may run before request() returns (a connect that fails at once).
  void request(net::Reactor& reactor, const Request& request,
               const std::string& host, std::uint16_t port,
               std::chrono::milliseconds timeout, Callback done);

  /// Forgets every connection and unanswered exchange. Only while the
  /// reactor is stopped: its stop() closed the connections.
  void reset();

 private:
  struct Exchange;
  struct Link;
  struct Pool;

  void dispatch(Pool& pool, std::unique_ptr<Exchange> exchange,
                bool fresh_only);
  [[nodiscard]] net::Reactor::ConnId take_idle(Pool& pool,
                                               const std::string& endpoint);
  void on_data(Pool& pool, net::Reactor::ConnId id, std::string& input);
  void on_close(Pool& pool, net::Reactor::ConnId id, std::string& input,
                int error);
  void on_deadline(Pool& pool, net::Reactor::ConnId id);

  std::vector<std::unique_ptr<Pool>> pools_;
};

}  // namespace bifrost::http
