#include "http/upstream.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "http/parser.hpp"
#include "net/tcp.hpp"
#include "util/strings.hpp"

namespace bifrost::http {
namespace {

/// Same pool policy as HttpClient's defaults: idle connections older
/// than this are not reused (backends close idle keep-alive sockets),
/// and at most this many stay idle per endpoint.
constexpr std::chrono::milliseconds kIdleTtl{30000};
constexpr std::size_t kMaxIdlePerEndpoint = 16;

bool keeps_alive(const Response& response) {
  const auto conn_header = response.headers.get("Connection");
  return !(conn_header && util::iequals(*conn_header, "close")) &&
         response.version == "HTTP/1.1";
}

}  // namespace

/// One request in flight. It moves from connection to connection only
/// for the stale retry; its deadline stays the same.
struct UpstreamClient::Exchange {
  std::string wire;  ///< kept while a stale retry is still possible
  std::string host;
  std::uint16_t port = 0;
  std::string endpoint;  ///< "host:port", the pool key
  std::chrono::milliseconds timeout{0};
  std::chrono::steady_clock::time_point deadline;
  net::Reactor::Timer timer;
  Callback done;
  bool reused = false;

  void finish(net::Reactor& reactor, util::Result<Response> response) {
    reactor.cancel_timer(timer);
    done(std::move(response));
  }
};

/// One outbound connection: busy while it carries an exchange, parked
/// in its endpoint's idle stack otherwise.
struct UpstreamClient::Link {
  std::string endpoint;
  std::unique_ptr<Exchange> exchange;
  std::chrono::steady_clock::time_point idle_since;
};

struct UpstreamClient::Pool {
  net::Reactor* reactor = nullptr;
  std::shared_ptr<const net::Reactor::OutboundFns> fns;
  std::unordered_map<net::Reactor::ConnId, Link> links;
  /// Per-endpoint stacks of idle connections, most recently used last.
  std::unordered_map<std::string, std::vector<net::Reactor::ConnId>> idle;

  void forget_idle(const std::string& endpoint, net::Reactor::ConnId id) {
    const auto it = idle.find(endpoint);
    if (it == idle.end()) return;
    std::erase(it->second, id);
  }
};

UpstreamClient::UpstreamClient(std::size_t workers) {
  for (std::size_t i = 0; i < std::max<std::size_t>(1, workers); ++i) {
    auto pool = std::make_unique<Pool>();
    Pool* raw = pool.get();
    pool->fns = std::make_shared<const net::Reactor::OutboundFns>(
        net::Reactor::OutboundFns{
            [this, raw](net::Reactor::ConnId id, std::string& input) {
              on_data(*raw, id, input);
            },
            [this, raw](net::Reactor::ConnId id, std::string& input,
                        int error) { on_close(*raw, id, input, error); }});
    pools_.push_back(std::move(pool));
  }
}

UpstreamClient::~UpstreamClient() = default;

void UpstreamClient::request(net::Reactor& reactor, const Request& request,
                             const std::string& host, std::uint16_t port,
                             std::chrono::milliseconds timeout,
                             Callback done) {
  const std::size_t worker = reactor.current_worker();
  if (worker >= pools_.size()) {
    done(util::Result<Response>::error("upstream: not on a reactor worker"));
    return;
  }
  Pool& pool = *pools_[worker];
  pool.reactor = &reactor;
  auto exchange = std::make_unique<Exchange>();
  exchange->wire = request.serialize();
  exchange->host = host;
  exchange->port = port;
  exchange->endpoint = host + ":" + std::to_string(port);
  exchange->timeout = timeout;
  exchange->deadline = std::chrono::steady_clock::now() + timeout;
  exchange->done = std::move(done);
  dispatch(pool, std::move(exchange), /*fresh_only=*/false);
}

void UpstreamClient::dispatch(Pool& pool, std::unique_ptr<Exchange> exchange,
                              bool fresh_only) {
  net::Reactor& reactor = *pool.reactor;
  net::Reactor::ConnId id = fresh_only ? 0 : take_idle(pool, exchange->endpoint);
  exchange->reused = id != 0;
  if (id == 0) {
    auto fd = net::connect_nonblocking(exchange->host, exchange->port);
    if (!fd.ok()) {
      exchange->finish(reactor,
                       util::Result<Response>::error(fd.error_message()));
      return;
    }
    auto adopted = reactor.adopt(std::move(fd).value(), pool.fns);
    if (!adopted.ok()) {
      exchange->finish(reactor,
                       util::Result<Response>::error(adopted.error_message()));
      return;
    }
    id = adopted.value();
    pool.links.emplace(id, Link{exchange->endpoint, nullptr, {}});
  }
  reactor.cancel_timer(exchange->timer);  // a retry re-arms on its new link
  exchange->timer = reactor.start_timer(
      exchange->deadline, [this, &pool, id] { on_deadline(pool, id); });
  // Only a reused connection may need the bytes again, for the retry.
  std::string wire =
      exchange->reused ? exchange->wire : std::move(exchange->wire);
  pool.links.at(id).exchange = std::move(exchange);
  // A failed send reports through on_close, which retries or answers.
  (void)reactor.send(id, {std::move(wire)}, /*close_after=*/false);
}

net::Reactor::ConnId UpstreamClient::take_idle(Pool& pool,
                                               const std::string& endpoint) {
  const auto it = pool.idle.find(endpoint);
  if (it == pool.idle.end()) return 0;
  const auto now = std::chrono::steady_clock::now();
  std::vector<net::Reactor::ConnId>& stack = it->second;
  while (!stack.empty()) {
    const net::Reactor::ConnId id = stack.back();
    stack.pop_back();
    const auto link = pool.links.find(id);
    if (link == pool.links.end()) continue;
    if (now - link->second.idle_since > kIdleTtl) {
      pool.links.erase(link);
      pool.reactor->close(id);
      continue;
    }
    return id;
  }
  return 0;
}

void UpstreamClient::on_data(Pool& pool, net::Reactor::ConnId id,
                             std::string& input) {
  const auto it = pool.links.find(id);
  if (it == pool.links.end()) return;
  net::Reactor& reactor = *pool.reactor;
  if (!it->second.exchange) {
    // Bytes nobody asked for would desynchronize the next exchange.
    pool.forget_idle(it->second.endpoint, id);
    pool.links.erase(it);
    reactor.close(id);
    return;
  }
  IncrementalResponse parsed = try_parse_response(input, /*at_eof=*/false);
  if (parsed.status == IncrementalParse::Status::kNeedMore) return;
  std::unique_ptr<Exchange> exchange = std::move(it->second.exchange);
  if (parsed.status == IncrementalParse::Status::kError) {
    pool.links.erase(it);
    reactor.close(id);
    exchange->finish(reactor, util::Result<Response>::error(parsed.error));
    return;
  }
  input.erase(0, parsed.consumed);
  Link& link = it->second;
  auto& stack = pool.idle[link.endpoint];
  if (keeps_alive(parsed.response) && input.empty() &&
      stack.size() < kMaxIdlePerEndpoint) {
    link.idle_since = std::chrono::steady_clock::now();
    stack.push_back(id);
  } else {
    pool.links.erase(it);
    reactor.close(id);
  }
  // Last: the callback may start the next exchange on this connection.
  exchange->finish(reactor, std::move(parsed.response));
}

void UpstreamClient::on_close(Pool& pool, net::Reactor::ConnId id,
                              std::string& input, int error) {
  const auto it = pool.links.find(id);
  if (it == pool.links.end()) return;
  std::unique_ptr<Exchange> exchange = std::move(it->second.exchange);
  if (!exchange) pool.forget_idle(it->second.endpoint, id);
  pool.links.erase(it);
  if (!exchange) return;  // an idle connection the backend closed
  net::Reactor& reactor = *pool.reactor;
  if (!input.empty()) {
    // Part of a response arrived; a body delimited by EOF is complete.
    IncrementalResponse parsed = try_parse_response(input, /*at_eof=*/true);
    if (parsed.status == IncrementalParse::Status::kDone) {
      exchange->finish(reactor, std::move(parsed.response));
    } else {
      exchange->finish(reactor, util::Result<Response>::error(parsed.error));
    }
    return;
  }
  if (exchange->reused) {
    // Stale keep-alive connection; retry once on a fresh one.
    dispatch(pool, std::move(exchange), /*fresh_only=*/true);
    return;
  }
  exchange->finish(reactor,
                   util::Result<Response>::error(
                       error != 0 ? std::string("upstream: ") +
                                        std::strerror(error)
                                  : std::string("connection closed")));
}

void UpstreamClient::on_deadline(Pool& pool, net::Reactor::ConnId id) {
  const auto it = pool.links.find(id);
  if (it == pool.links.end() || !it->second.exchange) return;
  std::unique_ptr<Exchange> exchange = std::move(it->second.exchange);
  exchange->timer = {};  // fired
  pool.links.erase(it);
  pool.reactor->close(id);
  exchange->finish(*pool.reactor,
                   util::Result<Response>::error(
                       "upstream timeout after " +
                       std::to_string(exchange->timeout.count()) + " ms"));
}

void UpstreamClient::reset() {
  for (auto& pool : pools_) {
    pool->links.clear();
    pool->idle.clear();
    pool->reactor = nullptr;
  }
}

}  // namespace bifrost::http
