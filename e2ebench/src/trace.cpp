#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

namespace e2ebench {

std::int64_t Trace::add(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t id,
                        std::int64_t parent, std::uint32_t pid,
                        std::uint32_t track) {
  spans_.push_back(Span{name, start_ns, std::max(start_ns, end_ns), id, parent,
                        pid, track});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::string Trace::self_time_summary() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t s = std::max(start, cursor);
      const std::int64_t e = std::min(end, span.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    Totals& t = by_name[span.name];
    ++t.count;
    t.total_us += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    t.self_us += static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3;
  }
  std::string out = "span                         count      total_us       self_us   self_us/span\n";
  char line[160];
  for (const auto& [name, t] : by_name) {
    std::snprintf(line, sizeof line, "%-24s %9" PRIu64 " %13.0f %13.0f %14.2f\n",
                  name.c_str(), t.count, t.total_us, t.self_us,
                  t.count == 0 ? 0.0 : t.self_us / static_cast<double>(t.count));
    out += line;
  }
  return out;
}

bool Trace::write_chrome_json(const std::string& path,
                              std::size_t max_spans) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  const std::uint64_t stride =
      spans_.size() <= max_spans ? 1 : (spans_.size() + max_spans - 1) / max_spans;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", file.get());
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.id % stride != 0) continue;
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%" PRIu64
                 ",\"span\":%zu,\"parent\":%" PRId64 "}}",
                 first ? "" : ",\n", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.pid, span.track, span.id, i, span.parent);
    first = false;
  }
  std::fputs("\n]}\n", file.get());
  return std::ferror(file.get()) == 0;
}

}  // namespace e2ebench
