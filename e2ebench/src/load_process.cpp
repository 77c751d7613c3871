// The load process: hosts the trivial backends and generates open-loop
// user traffic. It runs apart from the Bifrost process so that
// getrusage(RUSAGE_SELF) over there counts Bifrost's CPU only.
//
// Threads: the main thread (control + the traffic generator) and one
// reactor thread per backend, at most three — four in all.
//
// Control protocol, one line per command on stdin, one reply on stdout:
//   backends                 -> "ports <stable> <canary> <dark>"
//   run <TrafficSpec line>   -> "started <t0 ns>" once the schedule is built,
//                               then "done <records>" (records in spec.out_path)
//   dump <path>              -> "dumped <records>" (backend records, cleared)
//   quit                     -> exits
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "loadgen/arrivals.hpp"
#include "loadgen/workload.hpp"
#include "util/rng.hpp"

namespace e2ebench {

int version_index(const std::string& name) {
  for (int i = 0; i < kVersionCount; ++i) {
    if (name == kVersions[i]) return i;
  }
  return -1;
}

std::string TrafficSpec::to_line() const {
  std::ostringstream out;
  out.precision(17);
  out << proxy_port << ' ' << direct_port << ' ' << rate << ' ' << seconds
      << ' ' << seed << ' ' << users << ' ' << population << ' ' << first_id << ' '
      << static_cast<int>(mix) << ' '
      << direct_share << ' ' << t0_ns << ' ' << out_path;
  return out.str();
}

bool TrafficSpec::from_line(const std::string& line, TrafficSpec& out) {
  std::istringstream in(line);
  int mix = 0;
  in >> out.proxy_port >> out.direct_port >> out.rate >> out.seconds >>
      out.seed >> out.users >> out.population >> out.first_id >> mix >> out.direct_share >> out.t0_ns >>
      out.out_path;
  out.mix = static_cast<Mix>(mix);
  return static_cast<bool>(in) && out.rate > 0.0 && out.users > 0;
}

template <typename T>
bool write_records(const std::string& path, const std::vector<T>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size() * sizeof(T)));
  return static_cast<bool>(out);
}

template <typename T>
bool read_records(const std::string& path, std::vector<T>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const auto size = static_cast<std::size_t>(in.tellg());
  if (size % sizeof(T) != 0) return false;
  out.resize(size / sizeof(T));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

template bool write_records(const std::string&,
                            const std::vector<ClientRecord>&);
template bool write_records(const std::string&,
                            const std::vector<BackendRecord>&);
template bool read_records(const std::string&, std::vector<ClientRecord>&);
template bool read_records(const std::string&, std::vector<BackendRecord>&);

namespace {

using namespace bifrost;

/// Response body sizes by path: the smallest GET, and the paper mix
/// (buy: empty, details: small, products: the catalogue, search: medium).
const std::string& body_for(std::string_view path) {
  static const std::string kTiny = "ok";
  static const std::string kEmpty;
  static const std::string kDetails(256, 'd');
  static const std::string kCatalogue(48 * 1024, 'p');
  static const std::string kSearch(4 * 1024, 's');
  if (path == "/s") return kTiny;
  if (path == "/buy") return kEmpty;
  if (path == "/products") return kCatalogue;
  if (path.starts_with("/products/")) return kDetails;
  if (path.starts_with("/search")) return kSearch;
  return kTiny;
}

class Backend {
 public:
  explicit Backend(int version) : version_(version) {
    http::HttpServer::Options options;
    options.reactor_workers = 1;
    options.inline_handlers = true;  // one thread: the reactor itself
    server_ = std::make_unique<http::HttpServer>(
        options, [this](const http::Request& r) { return handle(r); });
    server_->start();
  }
  ~Backend() { server_->stop(); }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

  void take(std::vector<BackendRecord>& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.insert(out.end(), records_.begin(), records_.end());
    records_.clear();
  }

 private:
  http::Response handle(const http::Request& request) {
    BackendRecord record;
    record.entry_ns = mono_ns();
    record.version = static_cast<std::int8_t>(version_);
    if (const auto id = request.headers.get(kRequestIdHeader)) {
      record.id = static_cast<std::uint32_t>(std::strtoul(id->c_str(), nullptr, 10));
    }
    record.shadow = request.headers.has("X-Bifrost-Shadow") ? 1 : 0;
    http::Response response;
    response.status = 200;
    response.body = body_for(request.path());
    response.headers.set("Content-Type", "text/plain");
    response.headers.set(kServedByHeader, kVersions[version_]);
    record.exit_ns = mono_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
    return response;
  }

  int version_;
  std::mutex mutex_;
  std::vector<BackendRecord> records_;
  std::unique_ptr<http::HttpServer> server_;
};

/// One planned request.
struct Planned {
  std::int64_t due_ns;
  std::uint32_t user;
  std::uint8_t kind;
  Target target;
  std::string wire;
};

/// The seeded schedule: Poisson arrivals (loadgen::ArrivalSchedule),
/// users drawn uniformly with a 200 ms minimum gap between two requests
/// of one user (so no user races itself into two sticky assignments),
/// request templates drawn from the mix.
std::vector<Planned> make_plan(const TrafficSpec& spec) {
  loadgen::ArrivalSchedule arrivals(loadgen::ArrivalSchedule::Mode::kPoisson,
                                    spec.rate, util::derive_seed(spec.seed, 1));
  util::Rng rng(util::derive_seed(spec.seed, 2));
  std::vector<loadgen::RequestTemplate> mix;
  if (spec.mix == Mix::kPaper) mix = loadgen::paper_request_mix("bench", 12);
  std::unordered_map<std::uint32_t, double> last_seen;
  std::vector<Planned> plan;
  std::uint32_t next_id = spec.first_id;
  for (const double at : arrivals.arrivals_until(spec.seconds)) {
    std::uint32_t user = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      user = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec.users) - 1));
      const auto it = last_seen.find(user);
      if (it == last_seen.end() || at - it->second >= 0.2) break;
    }
    last_seen[user] = at;
    const bool direct = spec.direct_share > 0.0 && rng.bernoulli(spec.direct_share);
    http::Request request;
    std::uint8_t kind = 0;
    if (mix.empty()) {
      request.method = "GET";
      request.target = "/s";
    } else {
      kind = static_cast<std::uint8_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mix.size()) - 1));
      request = mix[kind].make(rng);
    }
    const std::uint32_t id = next_id++;
    request.headers.set("Host", "127.0.0.1");
    request.headers.set("Cookie", "bifrost.sid=u" + std::to_string(spec.population) +
                                      "x" + std::to_string(user));
    request.headers.set(kRequestIdHeader, std::to_string(id));
    plan.push_back(Planned{spec.t0_ns + static_cast<std::int64_t>(at * 1e9),
                           user, kind,
                           direct ? Target::kDirect : Target::kProxy,
                           request.serialize()});
  }
  return plan;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Single-threaded open-loop generator over at most four keep-alive
/// connections. A request is sent at its due time if a connection of its
/// target is free, otherwise as soon as one frees up; latency is always
/// taken from the due time by the caller.
class Generator {
 public:
  explicit Generator(const TrafficSpec& spec) : spec_(spec) {
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    const int direct_conns = spec.direct_share > 0.0 ? 1 : 0;
    for (int i = 0; i < 4 - direct_conns; ++i) add_conn(Target::kProxy);
    for (int i = 0; i < direct_conns; ++i) add_conn(Target::kDirect);
  }
  ~Generator() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::vector<ClientRecord> run(std::vector<Planned>& plan) {
    std::vector<ClientRecord> records(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      records[i].due_ns = plan[i].due_ns;
      records[i].id = spec_.first_id + static_cast<std::uint32_t>(i);
      records[i].user = plan[i].user;
      records[i].kind = plan[i].kind;
      records[i].target = static_cast<std::uint8_t>(plan[i].target);
    }
    std::deque<std::size_t> pending[2];
    std::size_t next = 0;
    std::size_t completed = 0;
    epoll_event events[8];
    while (completed < plan.size()) {
      const std::int64_t now = mono_ns();
      while (next < plan.size() && plan[next].due_ns <= now) {
        pending[static_cast<int>(plan[next].target)].push_back(next);
        ++next;
      }
      for (Conn& conn : conns_) {
        auto& queue = pending[static_cast<int>(conn.target)];
        if (conn.busy < 0 && !queue.empty()) {
          const std::size_t index = queue.front();
          queue.pop_front();
          if (!send(conn, index, plan, records)) {
            // Nothing can arrive for it: the request failed.
            records[index].recv_ns = mono_ns();
            records[index].status = 0;
            conn.busy = -1;
            ++completed;
          }
        }
      }
      // Sleep until the next due time, spinning over the last 20 us so
      // the generator's own wake-up jitter stays out of the figures.
      timespec timeout{0, 0};
      const timespec* wait = nullptr;
      if (next < plan.size()) {
        const std::int64_t gap = plan[next].due_ns - mono_ns() - 20000;
        if (gap > 0) {
          timeout.tv_sec = gap / 1000000000;
          timeout.tv_nsec = gap % 1000000000;
        }
        wait = &timeout;
      }
      const int n = ::epoll_pwait2(epoll_, events, 8, wait, nullptr);
      for (int i = 0; i < n; ++i) {
        Conn& conn = conns_[events[i].data.u32];
        if (read_ready(conn, records)) ++completed;
        if (conn.fd < 0) completed += fail_and_reconnect(conn, records);
      }
    }
    return records;
  }

 private:
  struct Conn {
    int fd = -1;
    Target target = Target::kProxy;
    long busy = -1;  ///< index of the in-flight request, -1 when free
    std::int64_t free_since = 0;
    std::string in;
  };

  void add_conn(Target target) {
    Conn conn;
    conn.target = target;
    conns_.push_back(std::move(conn));
    open(conns_.size() - 1);
  }

  void open(std::size_t index) {
    Conn& conn = conns_[index];
    conn.fd = connect_loopback(conn.target == Target::kProxy
                                   ? spec_.proxy_port
                                   : spec_.direct_port);
    conn.in.clear();
    if (conn.fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(index);
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  /// Writes the request; false when the connection is gone.
  bool send(Conn& conn, std::size_t index, const std::vector<Planned>& plan,
            std::vector<ClientRecord>& records) {
    ClientRecord& record = records[index];
    record.ready_ns = std::max(record.due_ns, conn.free_since);
    conn.busy = static_cast<long>(index);
    if (conn.fd < 0) open(static_cast<std::size_t>(&conn - conns_.data()));
    record.send_ns = mono_ns();
    const std::string& wire = plan[index].wire;
    std::size_t off = 0;
    while (conn.fd >= 0 && off < wire.size()) {
      const ssize_t w = ::send(conn.fd, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;  // tiny requests: the socket buffer never stays full
      } else {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    return conn.fd >= 0;
  }

  /// Reads what arrived; true when it completed the in-flight response.
  bool read_ready(Conn& conn, std::vector<ClientRecord>& records) {
    char buf[65536];
    for (;;) {
      const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
      if (r > 0) {
        conn.in.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && errno == EAGAIN) break;
      ::close(conn.fd);  // EOF or error
      conn.fd = -1;
      return false;
    }
    if (conn.busy < 0) return false;
    const std::size_t head_end = conn.in.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    auto head = http::parse_response_head(
        std::string_view(conn.in).substr(0, head_end + 4));
    if (!head.ok()) {
      ::close(conn.fd);
      conn.fd = -1;
      return false;
    }
    std::size_t length = 0;
    if (const auto cl = head.value().headers.get("Content-Length")) {
      length = std::strtoul(cl->c_str(), nullptr, 10);
    }
    if (conn.in.size() < head_end + 4 + length) return false;
    ClientRecord& record = records[static_cast<std::size_t>(conn.busy)];
    record.recv_ns = mono_ns();
    record.status = static_cast<std::int16_t>(head.value().status);
    record.body_bytes = static_cast<std::uint32_t>(length);
    if (const auto v = head.value().headers.get("X-Bifrost-Version")) {
      record.version = static_cast<std::int8_t>(version_index(*v));
    }
    if (const auto v = head.value().headers.get(kServedByHeader)) {
      record.served_by = static_cast<std::int8_t>(version_index(*v));
    }
    conn.in.erase(0, head_end + 4 + length);
    conn.busy = -1;
    conn.free_since = record.recv_ns;
    return true;
  }

  /// A connection died: its in-flight request fails (status 0).
  std::size_t fail_and_reconnect(Conn& conn, std::vector<ClientRecord>& records) {
    std::size_t failed = 0;
    if (conn.busy >= 0) {
      ClientRecord& record = records[static_cast<std::size_t>(conn.busy)];
      record.recv_ns = mono_ns();
      record.status = 0;
      conn.busy = -1;
      failed = 1;
    }
    conn.free_since = mono_ns();
    open(static_cast<std::size_t>(&conn - conns_.data()));
    return failed;
  }

  TrafficSpec spec_;
  int epoll_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace

int load_process_main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  // Timer slack of 1 ns: the generator's sleeps end when asked to.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::unique_ptr<Backend>> backends;
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string command = line.substr(0, line.find(' '));
    const std::string rest =
        line.find(' ') == std::string::npos ? "" : line.substr(line.find(' ') + 1);
    if (command == "backends") {
      if (backends.empty()) {
        for (int v = 0; v < kVersionCount; ++v) {
          backends.push_back(std::make_unique<Backend>(v));
        }
      }
      std::cout << "ports " << backends[0]->port() << ' ' << backends[1]->port()
                << ' ' << backends[2]->port() << std::endl;
    } else if (command == "run") {
      TrafficSpec spec;
      if (!TrafficSpec::from_line(rest, spec)) {
        std::cout << "error bad spec" << std::endl;
        continue;
      }
      // The schedule starts no earlier than 20 ms after it is built, so
      // no request is due before the generator is ready to send it.
      spec.t0_ns = std::max(spec.t0_ns, mono_ns() + 20000000);
      std::vector<Planned> plan = make_plan(spec);
      const std::int64_t slip = std::max<std::int64_t>(
          0, mono_ns() + 20000000 - spec.t0_ns);
      for (Planned& p : plan) p.due_ns += slip;
      spec.t0_ns += slip;
      Generator generator(spec);
      std::cout << "started " << spec.t0_ns << std::endl;
      const std::vector<ClientRecord> records = generator.run(plan);
      if (!write_records(spec.out_path, records)) {
        std::cout << "error cannot write " << spec.out_path << std::endl;
        continue;
      }
      std::cout << "done " << records.size() << std::endl;
    } else if (command == "dump") {
      std::vector<BackendRecord> records;
      for (auto& backend : backends) backend->take(records);
      if (!write_records(rest, records)) {
        std::cout << "error cannot write " << rest << std::endl;
        continue;
      }
      std::cout << "dumped " << records.size() << std::endl;
    } else if (command == "quit") {
      break;
    }
  }
  backends.clear();
  return 0;
}

}  // namespace e2ebench
