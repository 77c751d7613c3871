// In-memory spans of one traced run. Spans are recorded only by the
// benchmark's own code, around calls into Bifrost's public interfaces,
// and are written out at exit as Chrome trace-event JSON (opens in
// Perfetto / chrome://tracing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< shared by every span of one request/check run
  std::int64_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint32_t pid = 0;     ///< 1 = load process, 2 = Bifrost process
  std::uint32_t track = 0;   ///< timeline row (thread or logical lane)
};

class Trace {
 public:
  /// Appends a span and returns its index (for children's `parent`).
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t id, std::int64_t parent, std::uint32_t pid,
                   std::uint32_t track);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Per span name: count, summed duration and summed self time (the
  /// duration minus the part its child spans cover), in microseconds.
  [[nodiscard]] std::string self_time_summary() const;

  /// Writes Chrome trace-event JSON. Above `max_spans`, whole requests /
  /// check runs are sampled by id so every written tree stays complete.
  bool write_chrome_json(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace e2ebench
