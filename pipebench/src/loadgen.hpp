// Open-loop query generator: one thread, one pipelined connection to the
// federation frontend. Requests go out on a fixed schedule whatever the
// answers do, each stamped with its query id, and every answer is timed
// from its *scheduled* send time, so a stall also charges the requests
// queued behind it. Queries are drawn from a seeded RNG over the entities
// the snapshot holds and the history the ring and ledger hold.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace pipebench {

using namespace vmp;  // serve::, fleet::, core:: ... name the program's modules.

/// Query classes: instant point reads, windows answered from the ring,
/// windows whose start only the ledger still holds, and TOU cost.
enum QueryClass : std::uint8_t { kInstant, kHot, kCold, kCost, kClassCount };
inline constexpr std::array<const char*, kClassCount> kClassNames = {
    "instant", "hot", "cold", "cost"};

/// What the generator may name: ids read from a published snapshot.
struct Entities {
  std::vector<std::uint32_t> tenants;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> vms;  ///< (host, vm)
};

/// Draws one query of class `cls` against history ending at round `now`
/// (snapshot time now × 1 s) with a ring of `retention` snapshots. A cold
/// class falls back to hot while the ledger holds nothing older than the
/// ring.
[[nodiscard]] serve::Request make_query(QueryClass& cls, util::Rng& rng,
                                        const Entities& entities,
                                        std::uint64_t now,
                                        std::size_t retention);

struct LoadGenOptions {
  std::uint16_t port = 0;
  double rate_hz = 100.0;
  std::int64_t start_ns = 0;  ///< first scheduled send.
  std::int64_t end_ns = 0;    ///< no send is scheduled at or after this.
  double drain_s = 2.0;       ///< how long unanswered queries may linger.
  std::uint64_t seed = 1;
  std::array<double, kClassCount> mix{1.0, 0.0, 0.0, 0.0};
  double repeat_share = 0.0;
  std::size_t retention = 512;
};

/// One scheduled query; done_ns == 0 means it was never answered.
struct QueryRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  QueryClass cls = kInstant;
  bool ok = false;  ///< answered, ok and complete.
};

class LoadGen {
 public:
  /// `rounds` is the driver's count of completed rounds, read when a query
  /// is drawn so windows track the live history.
  LoadGen(LoadGenOptions options, Entities entities,
          const std::atomic<std::uint64_t>& rounds, bool traced);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  void start();
  /// Ends the schedule early (no further sends); answers still drain.
  void stop_sending() noexcept;
  /// Waits for the schedule to end and the answers to drain.
  void join();

  [[nodiscard]] const std::vector<QueryRecord>& records() const noexcept {
    return records_;
  }
  /// Most queries ever sent and not yet answered at once.
  [[nodiscard]] std::uint64_t backlog_max() const noexcept {
    return backlog_max_;
  }
  /// Error answers by serve::ErrorCode, plus code 0 for non-complete
  /// (partial) answers.
  [[nodiscard]] const std::map<int, std::uint64_t>& errors() const noexcept {
    return errors_;
  }
  /// Transport failure, empty when the connection held.
  [[nodiscard]] const std::string& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] const SpanLog& spans() const noexcept { return log_; }

 private:
  void run();
  void run_io(int fd);
  void on_response(std::uint64_t id, const serve::Response& response,
                   std::int64_t done_ns);

  LoadGenOptions options_;
  Entities entities_;
  const std::atomic<std::uint64_t>& rounds_;
  std::atomic<std::int64_t> end_ns_;
  util::Rng rng_;
  std::vector<QueryRecord> records_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t backlog_max_ = 0;
  std::map<int, std::uint64_t> errors_;
  std::string failure_;
  SpanLog log_;
  std::thread thread_;  ///< last: uses every member above.
};

}  // namespace pipebench
