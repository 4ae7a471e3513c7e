#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace pipebench {


std::map<std::string, double> self_seconds(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : covered) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        union_ns += end - start;
        cursor = end;
      }
    }
    const std::int64_t own = spans[i].end_ns - spans[i].start_ns - union_ns;
    self[spans[i].name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

std::map<std::string, double> total_seconds(const SpanLog& log) {
  std::map<std::string, double> total;
  for (const Span& span : log.spans())
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  return total;
}

void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs)
    for (const Span& span : log->spans())
      origin = std::min(origin, span.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    out << (first ? "" : ",") << "\n{\"ph\":\"M\",\"name\":\"thread_name\","
        << "\"pid\":1,\"tid\":" << tid << ",\"args\":{\"name\":\""
        << logs[tid]->thread_name() << "\"}}";
    first = false;
    for (const Span& span : logs[tid]->spans())
      out << ",\n{\"ph\":\"X\",\"name\":\"" << span.name
          << "\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
          << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

}  // namespace pipebench
