// Shared vocabulary of the two benchmark processes: the clock both use,
// the records the load process hands back, and the version table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// CLOCK_MONOTONIC in nanoseconds. steady_clock is CLOCK_MONOTONIC on
/// Linux, which is system-wide, so stamps from the load process and the
/// Bifrost process lie on one timeline.
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Backend versions the load process hosts, by index.
inline constexpr const char* kVersions[] = {"stable", "canary", "dark"};
inline constexpr int kVersionCount = 3;
/// Index of a version name in kVersions, -1 when unknown.
int version_index(const std::string& name);

/// Response header every backend stamps with its own version, so the
/// proxy's X-Bifrost-Version can be checked against who really served.
inline constexpr const char* kServedByHeader = "X-Served-By";
/// Request header carrying the benchmark's request id end to end.
inline constexpr const char* kRequestIdHeader = "X-Bench-Id";

enum class Mix : std::uint8_t {
  kTiny = 0,   ///< GET /s, 2-byte response
  kPaper = 1,  ///< the paper's 4-request mix (buy, details, products, search)
};

enum class Target : std::uint8_t { kProxy = 0, kDirect = 1 };

/// One user request as the load process saw it.
struct ClientRecord {
  std::int64_t due_ns = 0;    ///< when the open-loop schedule said "send"
  std::int64_t ready_ns = 0;  ///< max(due, a connection became free)
  std::int64_t send_ns = 0;   ///< first byte written
  std::int64_t recv_ns = 0;   ///< last byte of the response read
  std::uint32_t id = 0;
  std::uint32_t user = 0;
  std::int16_t status = 0;        ///< 0 = transport failure
  std::int8_t version = -1;       ///< X-Bifrost-Version (proxied only)
  std::int8_t served_by = -1;     ///< X-Served-By
  std::uint8_t target = 0;        ///< Target
  std::uint8_t kind = 0;          ///< request template index within the mix
  std::uint8_t pad[2] = {0, 0};
  std::uint32_t body_bytes = 0;
};

/// One request as a backend handler saw it.
struct BackendRecord {
  std::int64_t entry_ns = 0;
  std::int64_t exit_ns = 0;
  std::uint32_t id = 0;      ///< X-Bench-Id (0 when absent)
  std::int8_t version = -1;  ///< which backend served it
  std::uint8_t shadow = 0;   ///< carried X-Bifrost-Shadow
  std::uint8_t pad[2] = {0, 0};
};

/// Parameters of one open-loop traffic run, sent to the load process.
struct TrafficSpec {
  std::uint16_t proxy_port = 0;
  std::uint16_t direct_port = 0;  ///< stable backend, for direct requests
  double rate = 0.0;              ///< offered requests per second
  double seconds = 0.0;
  std::uint64_t seed = 1;
  std::uint32_t users = 1000;
  std::uint64_t population = 1;  ///< names the users' cookies
  std::uint32_t first_id = 1;    ///< request ids count up from here
  Mix mix = Mix::kTiny;
  double direct_share = 0.0;  ///< share of requests sent past the proxy
  std::int64_t t0_ns = 0;     ///< absolute start of the schedule
  std::string out_path;       ///< where the client records go

  [[nodiscard]] std::string to_line() const;
  static bool from_line(const std::string& line, TrafficSpec& out);
};

/// Whole-file binary I/O of POD record vectors.
template <typename T>
bool write_records(const std::string& path, const std::vector<T>& records);
template <typename T>
bool read_records(const std::string& path, std::vector<T>& out);

/// Entry point of the load process (`bifrost_e2ebench --load-process`).
int load_process_main(int argc, char** argv);

}  // namespace e2ebench
