// The benchmark's own spans: name, start, end, parent, and one id per tick
// or query. Each thread owns one SpanLog (no locking on the record path);
// the logs are merged only after every thread has stopped. Nothing here
// touches the program's global tracer, which stays disarmed.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock; every span and schedule uses this base.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns,
                                            std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";  ///< always a string literal.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same log; -1 = root.
  std::uint64_t id = 0;      ///< tick round or query id.
};

class SpanLog {
 public:
  SpanLog(std::string thread_name, bool armed)
      : thread_name_(std::move(thread_name)), armed_(armed) {}

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  void set_armed(bool armed) noexcept { armed_ = armed; }

  /// Records a finished span; returns its index (-1 when disarmed).
  std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    if (!armed_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose children are recorded before it ends; close() it.
  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent,
                    std::int64_t start_ns) {
    return add(name, id, parent, start_ns, start_ns);
  }
  void close(std::int64_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& thread_name() const noexcept {
    return thread_name_;
  }

 private:
  std::string thread_name_;
  bool armed_ = false;
  std::vector<Span> spans_;
};

/// Self time per span name, in seconds: each span's duration minus the part
/// of its interval that its children cover (interval union, so overlapping
/// children are not double-counted).
[[nodiscard]] std::map<std::string, double> self_seconds(const SpanLog& log);

/// Total duration per span name, in seconds.
[[nodiscard]] std::map<std::string, double> total_seconds(const SpanLog& log);

/// Writes every log as one Chrome trace-event JSON file (one tid per log);
/// the span id and parent index ride along in "args".
void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<const SpanLog*>& logs);

}  // namespace pipebench
