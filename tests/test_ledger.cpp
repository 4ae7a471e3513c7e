// Durable attribution ledger: on-disk format, rotation/compaction, crash
// recovery (torn tails, byte flips, damaged footers), checkpoint rewind, and
// the end-to-end promise — answers served from the ledger are byte-identical
// to the retention-ring answers they replace, across a full restart.
#include "ledger/ledger.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace vmp::ledger {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction (success or
/// failure) so ledger files never accumulate under /tmp.
struct ScratchDir {
  fs::path path;

  ScratchDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("vmp-ledger-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Deterministic record at `epoch` with awkward doubles (not short decimals)
/// so bit-exactness is actually exercised, not satisfied by accident.
TickRecord record_at(std::uint64_t epoch) {
  const double t = static_cast<double>(epoch);
  TickRecord record;
  record.epoch = epoch;
  record.tick = epoch;
  record.time_s = t;
  record.period_s = 1.0;
  record.vms = {{0, 1, 1, 0.1 * t, 10.1 * t}, {0, 2, 2, 0.2 * t, 20.2 * t}};
  record.tenants = {{1, 0.1 * t, 101.3 * t}, {2, 0.2 * t, 202.7 * t}};
  record.total_power_w = 0.3 * t;
  record.total_energy_j = 304.0 * t;
  record.unattributed_j = 0.0;
  return record;
}

void expect_bit_identical(const TickRecord& a, const TickRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_s),
            std::bit_cast<std::uint64_t>(b.time_s));
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_EQ(a.vms[i].tenant, b.vms[i].tenant);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.vms[i].energy_j),
              std::bit_cast<std::uint64_t>(b.vms[i].energy_j));
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tenants[i].energy_j),
              std::bit_cast<std::uint64_t>(b.tenants[i].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_energy_j),
            std::bit_cast<std::uint64_t>(b.total_energy_j));
}

LedgerOptions small_segments(const fs::path& dir,
                             std::uint64_t max_records = 8) {
  LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = max_records;
  options.index_stride = 4;
  options.background_compaction = false;  // deterministic tests.
  return options;
}

// --- format -----------------------------------------------------------------

TEST(LedgerFormat, RecordRoundTripIsBitExact) {
  const TickRecord record = record_at(37);
  const std::string body = encode_record(record);
  const auto decoded = decode_record(body);
  ASSERT_TRUE(decoded.has_value());
  expect_bit_identical(record, *decoded);
  // Re-encoding the decoded record reproduces the bytes exactly.
  EXPECT_EQ(encode_record(*decoded), body);
}

TEST(LedgerFormat, DecodeRejectsTruncatedAndOverstatedBodies) {
  const std::string body = encode_record(record_at(5));
  EXPECT_FALSE(decode_record(body.substr(0, body.size() - 1)).has_value());
  EXPECT_FALSE(decode_record(body.substr(0, 10)).has_value());
  EXPECT_FALSE(decode_record("").has_value());
}

TEST(LedgerFormat, FrameReaderDetectsDamage) {
  std::string log;
  append_frame(log, record_at(1));
  append_frame(log, record_at(2));

  std::size_t offset = 0;
  TickRecord record;
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kOk);
  EXPECT_EQ(record.epoch, 1u);
  const std::size_t second = offset;
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kOk);
  EXPECT_EQ(record.epoch, 2u);
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kEndOfLog);

  // A flipped body byte fails the CRC; the offset stays put (torn tail).
  std::string flipped = log;
  flipped[second + kFrameHeaderBytes + 3] ^= 0x40;
  offset = second;
  EXPECT_EQ(read_frame(flipped, offset, record), FrameStatus::kTorn);
  EXPECT_EQ(offset, second);

  // A frame cut mid-body is torn, not end-of-log.
  std::string cut = log.substr(0, log.size() - 5);
  offset = second;
  EXPECT_EQ(read_frame(cut, offset, record), FrameStatus::kTorn);

  // An insane declared length is damage, never an allocation.
  std::string insane = log.substr(0, second);
  insane += std::string(4, '\xff');  // length prefix ~4 GiB.
  insane += std::string(8, '\0');
  offset = second;
  EXPECT_EQ(read_frame(insane, offset, record), FrameStatus::kTorn);
}

// --- append / rotation / compaction / queries -------------------------------

TEST(Ledger, OptionsValidate) {
  EXPECT_THROW(Ledger{LedgerOptions{}}, std::invalid_argument);
  ScratchDir scratch;
  LedgerOptions zero = small_segments(scratch.path);
  zero.segment_max_records = 0;
  EXPECT_THROW(Ledger{zero}, std::invalid_argument);
}

TEST(Ledger, AppendRotatesCompactsAndAnswersQueries) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch)
    log.append(record_at(epoch));

  const Stats stats = log.stats();
  EXPECT_EQ(stats.records, 30u);
  EXPECT_EQ(stats.oldest_epoch, 1u);
  EXPECT_EQ(stats.tail_epoch, 30u);
  EXPECT_GE(stats.cold_segments, 3u);  // 30 records over 8-record segments.
  EXPECT_EQ(stats.sealed_segments, 0u);

  // Point lookups cross the cold index and the active WAL alike.
  const auto cold = log.at_epoch(17);
  ASSERT_TRUE(cold.has_value());
  expect_bit_identical(record_at(17), *cold);
  const auto hot = log.at_epoch(30);
  ASSERT_TRUE(hot.has_value());
  expect_bit_identical(record_at(30), *hot);
  EXPECT_FALSE(log.at_epoch(0).has_value());
  EXPECT_FALSE(log.at_epoch(31).has_value());

  // Step semantics: newest record at-or-before t.
  EXPECT_EQ(log.at_or_before(12.5)->epoch, 12u);
  EXPECT_EQ(log.at_or_before(12.0)->epoch, 12u);
  EXPECT_EQ(log.at_or_before(99.0)->epoch, 30u);
  EXPECT_FALSE(log.at_or_before(0.5).has_value());

  // Ranges clamp to the extent and come back ascending.
  const auto records = log.range(5, 20);
  ASSERT_EQ(records.size(), 16u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].epoch, 5 + i);
  EXPECT_EQ(log.range(25, 99).size(), 6u);
  EXPECT_TRUE(log.range(40, 50).empty());

  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, AppendEnforcesEpochMonotonicity) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  log.append(record_at(5));
  EXPECT_THROW(log.append(record_at(5)), std::logic_error);
  EXPECT_THROW(log.append(record_at(4)), std::logic_error);
  log.append(record_at(7));  // gaps forward are the caller's business.
  EXPECT_EQ(log.stats().tail_epoch, 7u);
}

TEST(Ledger, ReopenRecoversEverythingAndResumesTheTailWal) {
  ScratchDir scratch;
  auto log = std::make_unique<Ledger>(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
    log->append(record_at(epoch));
  const std::uint64_t segments_before = log->stats().segments;
  log.reset();  // clean shutdown.

  log = std::make_unique<Ledger>(small_segments(scratch.path));
  const RecoveryReport report = log->recovery();
  EXPECT_EQ(report.records, 20u);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(log->stats().tail_epoch, 20u);
  expect_bit_identical(record_at(13), *log->at_epoch(13));

  // The under-threshold tail WAL resumes as active: appending continues in
  // place instead of opening a fresh segment.
  log->append(record_at(21));
  EXPECT_EQ(log->stats().segments, segments_before);
  EXPECT_EQ(log->stats().tail_epoch, 21u);
}

// --- damage: torn tails, byte flips, broken footers -------------------------

TEST(Ledger, RecoveryTruncatesATornTail) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;  // one WAL file, easy to wound.
  auto log = std::make_unique<Ledger>(options);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log->append(record_at(epoch));
  fs::path wal;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    wal = entry.path();
  log.reset();

  // Chop mid-record, as a crash between write and flush would.
  fs::resize_file(wal, fs::file_size(wal) - 3);
  EXPECT_FALSE(verify_dir(scratch.path).clean());

  log = std::make_unique<Ledger>(options);
  EXPECT_EQ(log->recovery().torn_records, 1u);
  EXPECT_EQ(log->recovery().records, 9u);
  EXPECT_GT(log->recovery().truncated_bytes, 0u);
  EXPECT_EQ(log->stats().tail_epoch, 9u);
  expect_bit_identical(record_at(9), *log->at_epoch(9));

  // The lost epoch can simply be re-appended; the file is clean again.
  log->append(record_at(10));
  log.reset();
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, RecoveryKeepsRecordsBeforeAByteFlip) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;
  auto log = std::make_unique<Ledger>(options);
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch)
    log->append(record_at(epoch));
  fs::path wal;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    wal = entry.path();
  const std::uint64_t intact_bytes = fs::file_size(wal);
  for (std::uint64_t epoch = 6; epoch <= 10; ++epoch)
    log->append(record_at(epoch));
  log.reset();

  {  // Flip one byte inside record 6's frame (bit rot / partial overwrite).
    std::fstream file(wal, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(intact_bytes + 12));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(intact_bytes + 12));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(intact_bytes + 12));
    file.write(&byte, 1);
  }

  log = std::make_unique<Ledger>(options);
  EXPECT_EQ(log->recovery().records, 5u);  // everything before the flip.
  EXPECT_EQ(log->recovery().torn_records, 1u);
  EXPECT_EQ(log->stats().tail_epoch, 5u);
  expect_bit_identical(record_at(5), *log->at_epoch(5));
  EXPECT_FALSE(log->at_epoch(6).has_value());
}

TEST(Ledger, DamagedColdFooterFallsBackToRescanAndRecompacts) {
  ScratchDir scratch;
  auto log = std::make_unique<Ledger>(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 16; ++epoch)
    log->append(record_at(epoch));
  ASSERT_EQ(log->stats().cold_segments, 2u);
  log.reset();

  fs::path cold;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    if (entry.path().filename().string().starts_with("cold-")) {
      cold = entry.path();
      break;
    }
  ASSERT_FALSE(cold.empty());
  {  // Wreck the footer magic; the frames stay CRC-protected.
    std::fstream file(cold, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(cold) - 1));
    file.write("\0", 1);
  }

  log = std::make_unique<Ledger>(small_segments(scratch.path));
  EXPECT_EQ(log->recovery().rescanned_cold, 1u);
  const Stats stats = log->stats();
  EXPECT_EQ(stats.records, 16u);  // nothing lost — and recompacted already.
  EXPECT_EQ(stats.cold_segments, 2u);
  EXPECT_EQ(stats.sealed_segments, 0u);
  expect_bit_identical(record_at(3), *log->at_epoch(3));
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, VerifyDirCountsEpochGaps) {
  ScratchDir scratch;
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 24; ++epoch)
      log.append(record_at(epoch));
  }
  fs::path middle;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    if (entry.path().filename().string().starts_with("cold-") &&
        entry.path().filename().string().find("0000000000000000000" "9") !=
            std::string::npos)
      middle = entry.path();
  ASSERT_FALSE(middle.empty()) << "expected a cold segment starting at 9";
  fs::remove(middle);  // epochs 9..16 vanish.

  const VerifyReport report = verify_dir(scratch.path);
  EXPECT_EQ(report.epoch_gaps, 1u);
  EXPECT_FALSE(report.clean());
}

// --- truncation (checkpoint rewind) -----------------------------------------

TEST(Ledger, TruncateAfterRewindsAcrossAllTiers) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch)
    log.append(record_at(epoch));
  // Tiers now: cold 1-8, 9-16, 17-24; active WAL 25-30.

  log.truncate_after(99);  // past the tail: no-op.
  EXPECT_EQ(log.stats().tail_epoch, 30u);

  log.truncate_after(20);  // drops the WAL, splits cold 17-24.
  Stats stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 20u);
  EXPECT_EQ(stats.records, 20u);
  expect_bit_identical(record_at(20), *log.at_epoch(20));
  EXPECT_FALSE(log.at_epoch(21).has_value());

  log.truncate_after(8);  // drops whole segments.
  stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 8u);
  EXPECT_EQ(stats.records, 8u);

  // The rewound ledger accepts the replayed-forward epochs again.
  log.append(record_at(9));
  EXPECT_EQ(log.stats().tail_epoch, 9u);
  log.wait_for_compaction();
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, TruncateAfterResizesTheActiveWalInPlace) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;
  Ledger log(options);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log.append(record_at(epoch));

  log.truncate_after(7);
  EXPECT_EQ(log.stats().tail_epoch, 7u);
  EXPECT_EQ(log.stats().records, 7u);
  log.append(record_at(8));  // the same file keeps accepting appends.
  EXPECT_EQ(log.stats().tail_epoch, 8u);
  EXPECT_EQ(log.stats().segments, 1u);
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

// --- segment search -----------------------------------------------------------

/// Makes this process's file writes fail past `max_bytes` (EFBIG, the way a
/// full disk fails them) until destroyed.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t max_bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit limit = previous_;
    limit.rlim_cur = max_bytes;
    ::setrlimit(RLIMIT_FSIZE, &limit);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = nullptr;
};

TEST(Ledger, SegmentSearchMatchesALinearScan) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 4);
  options.auto_compact = false;
  Ledger log(options);
  // Epochs with gaps (times equal epochs), so some epochs and times fall
  // between records and between segments.
  std::vector<TickRecord> appended;
  std::uint64_t epoch = 1;
  const auto append_up_to = [&](std::size_t count) {
    for (; appended.size() < count; epoch += 1 + epoch % 3) {
      appended.push_back(record_at(epoch));
      log.append(appended.back());
    }
  };
  append_up_to(16);
  EXPECT_EQ(log.compact_all(), 4u);  // cold segments ...
  append_up_to(28);                   // ... then sealed ones.
  // The next append opens a fresh active segment and its write fails,
  // leaving that segment empty at the tail. (Checked after the limit is
  // lifted, so a failure report is not itself cut short.)
  bool append_failed = false;
  {
    const FileSizeLimit limit(1);
    try {
      log.append(record_at(epoch));
    } catch (const std::runtime_error&) {
      append_failed = true;
    }
  }
  EXPECT_TRUE(append_failed);
  std::size_t cold = 0, sealed = 0, empty_active = 0;
  for (const SegmentInfo& info : log.segments()) {
    cold += info.cold;
    sealed += !info.cold && !info.active;
    empty_active += info.active && info.records == 0;
  }
  EXPECT_EQ(cold, 4u);
  EXPECT_EQ(sealed, 3u);
  EXPECT_EQ(empty_active, 1u);

  // The reference: a linear scan over every record appended.
  const std::uint64_t tail = appended.back().epoch;
  for (std::uint64_t e = 0; e <= tail + 2; ++e) {
    const TickRecord* expected = nullptr;
    for (const TickRecord& record : appended)
      if (record.epoch == e) expected = &record;
    const auto found = log.at_epoch(e);
    ASSERT_EQ(found.has_value(), expected != nullptr) << "epoch " << e;
    if (expected) expect_bit_identical(*expected, *found);
  }
  std::vector<double> times = {-1.0, 0.0, std::nan("")};
  for (std::uint64_t e = 0; e <= tail + 2; ++e) {
    times.push_back(static_cast<double>(e));
    times.push_back(static_cast<double>(e) + 0.5);
  }
  for (const double t : times) {
    const TickRecord* expected = nullptr;
    for (const TickRecord& record : appended)
      if (record.time_s <= t) expected = &record;
    const auto found = log.at_or_before(t);
    ASSERT_EQ(found.has_value(), expected != nullptr) << "time " << t;
    if (expected) expect_bit_identical(*expected, *found);
  }
  for (std::uint64_t first = 0; first <= tail + 1; first += 3)
    for (std::uint64_t last = first; last <= tail + 2; last += 5) {
      std::vector<std::uint64_t> expected, found;
      for (const TickRecord& record : appended)
        if (record.epoch >= first && record.epoch <= last)
          expected.push_back(record.epoch);
      for (const TickRecord& record : log.range(first, last))
        found.push_back(record.epoch);
      EXPECT_EQ(found, expected) << "range " << first << ".." << last;
    }
}

TEST(Ledger, FailedAppendRollsBackAndTheNextAppendSucceeds) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 6);
  options.auto_compact = false;
  auto log = std::make_unique<Ledger>(options);
  std::vector<TickRecord> appended;
  const auto append = [&](std::uint64_t epoch) {
    appended.push_back(record_at(epoch));
    log->append(appended.back());
  };
  for (std::uint64_t epoch = 1; epoch <= 8; ++epoch) append(epoch);
  // wal-1 sealed with 6 records, wal-7 active with 2.
  fs::path active;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    active = std::max(active, entry.path());
  const std::uintmax_t intact = fs::file_size(active);

  // Mid-segment: the disk fills 10 bytes into the next frame. Both tries
  // fail, and neither leaves a torn frame behind.
  {
    const FileSizeLimit limit(intact + 10);
    EXPECT_THROW(log->append(record_at(9)), std::runtime_error);
    EXPECT_THROW(log->append(record_at(9)), std::runtime_error);
  }
  EXPECT_EQ(fs::file_size(active), intact);
  append(9);  // space is back: the same ledger appends again.
  append(10);

  // A fresh segment whose very first write fails (the header included).
  append(11);
  append(12);  // seals wal-7.
  {
    const FileSizeLimit limit(1);
    EXPECT_THROW(log->append(record_at(13)), std::runtime_error);
  }
  append(13);
  append(14);
  EXPECT_EQ(log->stats().records, appended.size());

  // A reopen recovers exactly what was appended, with nothing torn.
  log.reset();
  EXPECT_TRUE(verify_dir(scratch.path).clean());
  log = std::make_unique<Ledger>(options);
  EXPECT_EQ(log->recovery().torn_records, 0u);
  EXPECT_EQ(log->recovery().records, appended.size());
  const auto recovered = log->range(0, 99);
  ASSERT_EQ(recovered.size(), appended.size());
  for (std::size_t i = 0; i < recovered.size(); ++i)
    expect_bit_identical(appended[i], recovered[i]);
}

// --- metrics ----------------------------------------------------------------

TEST(Ledger, ExportsMetricFamilies) {
  ScratchDir scratch;
  obs::MetricsRegistry registry;
  LedgerOptions options = small_segments(scratch.path);
  options.metrics = &registry;
  Ledger log(options);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log.append(record_at(epoch));

  const std::string dump = registry.to_prometheus();
  for (const char* family :
       {"vmpower_ledger_appended_records_total",
        "vmpower_ledger_appended_bytes_total",
        "vmpower_ledger_compacted_records_total",
        "vmpower_ledger_recovered_records_total",
        "vmpower_ledger_torn_records_total", "vmpower_ledger_segments",
        "vmpower_ledger_cold_segments", "vmpower_ledger_tail_epoch",
        "vmpower_ledger_oldest_epoch"})
    EXPECT_NE(dump.find(family), std::string::npos) << family;
  EXPECT_NE(dump.find("vmpower_ledger_tail_epoch 10"), std::string::npos);
}

TEST(Ledger, InvariantMonitorFlagsTailLagAndReplayMismatch) {
  obs::MetricsRegistry registry;
  obs::InvariantMonitor monitor(registry);
  monitor.observe_ledger(/*snapshot_epoch=*/7, /*ledger_tail_epoch=*/7);
  monitor.observe_ledger_replay(7, 304.0, 304.0);
  EXPECT_EQ(monitor.breaches(), 0u);
  monitor.observe_ledger(8, 7);  // an append was skipped: durable hole.
  EXPECT_EQ(monitor.breaches(), 1u);
  monitor.observe_ledger_replay(8, 304.0, 304.0000000001);
  EXPECT_EQ(monitor.breaches(), 2u);
}

}  // namespace
}  // namespace vmp::ledger

// --- serving integration: the ledger under the retention ring ---------------

namespace vmp::serve {
namespace {

namespace fs = std::filesystem;
using ledger::Ledger;
using ledger::LedgerOptions;

/// Same linear synthetic fleet as test_serve.cpp: tenant 1 draws 100t J,
/// tenant 2 draws 200t J, VM (0,1) draws 10t J.
Snapshot synthetic_at(double t) {
  Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{0, 1, 1, t, 10.0 * t}, {0, 2, 2, 2.0 * t, 20.0 * t}};
  snapshot.tenants = {{1, t, 100.0 * t}, {2, 2.0 * t, 200.0 * t}};
  snapshot.total_power_w = 3.0 * t;
  snapshot.total_energy_j = 300.0 * t;
  return snapshot;
}

Request window_request(QueryKind kind, double t0, double t1) {
  Request request;
  request.kind = kind;
  request.host = 0;
  request.vm = 1;
  request.tenant = 2;
  request.t0 = t0;
  request.t1 = t1;
  return request;
}

TEST(LedgerServe, SnapshotRecordConversionIsBitExact) {
  const Snapshot snapshot = synthetic_at(9.0);
  Snapshot back = to_snapshot(to_record(snapshot));
  back.epoch = snapshot.epoch;
  EXPECT_EQ(back.vms.size(), snapshot.vms.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vms[0].energy_j),
            std::bit_cast<std::uint64_t>(snapshot.vms[0].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.tenants[1].energy_j),
            std::bit_cast<std::uint64_t>(snapshot.tenants[1].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.total_energy_j),
            std::bit_cast<std::uint64_t>(snapshot.total_energy_j));
}

struct Scratch {
  fs::path path;
  Scratch() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("vmp-ledger-serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

LedgerOptions inline_options(const fs::path& dir) {
  LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = 8;
  options.index_stride = 4;
  options.background_compaction = false;
  return options;
}

TEST(LedgerServe, RestartServesByteIdenticalWindowAnswers) {
  Scratch scratch;
  const std::vector<Request> requests = {
      window_request(QueryKind::kTenantEnergy, 5.0, 15.0),
      window_request(QueryKind::kVmEnergy, 3.0, 33.0),
      window_request(QueryKind::kTenantCost, 7.0, 29.0),
  };

  // First life: big ring, every publish mirrored into the ledger.
  std::vector<std::string> hot_answers;
  {
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
    SnapshotStore store(64);
    store.set_ledger(log.get());
    for (int t = 1; t <= 40; ++t) store.publish(synthetic_at(t));
    QueryEngine hot(store);
    for (const Request& request : requests) {
      const Response response = hot.execute(request);
      ASSERT_TRUE(response.ok) << request.canonical();
      hot_answers.push_back(encode_response(response));
    }
    EXPECT_EQ(log->stats().tail_epoch, 40u);
  }  // process "dies": ledger closed, ring gone.

  // Second life: tiny ring refilled from the ledger tail; the windows above
  // now resolve through the cold path — and must answer byte-identically.
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  EXPECT_EQ(log->recovery().torn_records, 0u);
  SnapshotStore store(8);
  EXPECT_EQ(store.restore_from_ledger(*log), 8u);
  store.set_ledger(log.get());
  EXPECT_EQ(store.latest()->epoch, 40u);
  EXPECT_EQ(store.oldest()->epoch, 33u);

  QueryEngine cold(store);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = cold.execute(requests[i]);
    ASSERT_TRUE(response.ok) << requests[i].canonical();
    EXPECT_EQ(encode_response(response), hot_answers[i])
        << requests[i].canonical();
  }

  // The restored store continues the epoch sequence into the same ledger.
  store.publish(synthetic_at(41));
  EXPECT_EQ(store.latest()->epoch, 41u);
  EXPECT_EQ(log->stats().tail_epoch, 41u);
}

TEST(LedgerServe, RecoveryDropsACompactionSourceThatOutlivedItsRename) {
  Scratch scratch;
  const std::vector<Request> requests = {
      window_request(QueryKind::kTenantEnergy, 2.0, 11.0),
      window_request(QueryKind::kVmEnergy, 1.0, 19.0),
  };
  LedgerOptions manual = inline_options(scratch.path);
  manual.auto_compact = false;

  // First life: wal 1-8 and 9-16 sealed, wal 17-20 active. Keep a copy of
  // the first sealed WAL, then compact both into cold segments.
  std::vector<std::string> hot_answers;
  const fs::path first_wal = scratch.path / "wal-00000000000000000001.log";
  std::string first_wal_bytes;
  {
    auto log = std::make_unique<Ledger>(manual);
    SnapshotStore store(64);
    store.set_ledger(log.get());
    for (int t = 1; t <= 20; ++t) store.publish(synthetic_at(t));
    QueryEngine hot(store);
    for (const Request& request : requests)
      hot_answers.push_back(encode_response(hot.execute(request)));
    std::ifstream in(first_wal, std::ios::binary);
    first_wal_bytes.assign(std::istreambuf_iterator<char>(in), {});
    ASSERT_FALSE(first_wal_bytes.empty());
    EXPECT_EQ(log->compact_all(), 2u);
  }

  // The crash: compaction renamed cold-1-8 into place but never removed
  // its source, so the sealed WAL sits beside its cold copy.
  ASSERT_FALSE(fs::exists(first_wal));
  {
    std::ofstream out(first_wal, std::ios::binary);
    out << first_wal_bytes;
  }

  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  EXPECT_FALSE(fs::exists(first_wal));
  EXPECT_EQ(log->recovery().records, 20u);
  EXPECT_EQ(log->recovery().torn_records, 0u);
  const auto early = log->range(1, 9);
  ASSERT_EQ(early.size(), 9u);
  for (std::size_t i = 0; i < early.size(); ++i)
    EXPECT_EQ(early[i].epoch, i + 1);
  const ledger::Stats stats = log->stats();
  EXPECT_EQ(stats.records, 20u);
  EXPECT_EQ(stats.cold_segments, 2u);
  EXPECT_TRUE(ledger::verify_dir(scratch.path).clean());

  // Cold answers through a tiny restored ring equal the first life's hot
  // ones.
  SnapshotStore store(4);
  EXPECT_EQ(store.restore_from_ledger(*log), 4u);
  store.set_ledger(log.get());
  QueryEngine cold(store);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = cold.execute(requests[i]);
    ASSERT_TRUE(response.ok) << requests[i].canonical();
    EXPECT_EQ(encode_response(response), hot_answers[i])
        << requests[i].canonical();
  }
}

TEST(LedgerServe, WindowErrorsCarryTheOldestReachableEpoch) {
  // No ledger: a bound past the ring is kOutOfRetention, detail = the
  // oldest epoch still in the ring.
  {
    SnapshotStore store(4);
    for (int t = 1; t <= 11; ++t) store.publish(synthetic_at(t));
    QueryEngine engine(store);
    const Response response =
        engine.execute(window_request(QueryKind::kTenantEnergy, 3.0, 10.0));
    ASSERT_FALSE(response.ok);
    EXPECT_EQ(response.code, ErrorCode::kOutOfRetention);
    EXPECT_EQ(response.detail, 8u);  // ring holds epochs 8..11.
  }

  // With a ledger attached late (epochs 1-5 never durably logged): a bound
  // past the ledger's own oldest record is kOutOfHistory, detail = the
  // ledger's oldest epoch.
  {
    Scratch scratch;
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
    SnapshotStore store(4);
    for (int t = 1; t <= 5; ++t) store.publish(synthetic_at(t));
    store.set_ledger(log.get());
    for (int t = 6; t <= 20; ++t) store.publish(synthetic_at(t));
    QueryEngine engine(store);

    const Response too_old =
        engine.execute(window_request(QueryKind::kTenantEnergy, 2.0, 19.0));
    ASSERT_FALSE(too_old.ok);
    EXPECT_EQ(too_old.code, ErrorCode::kOutOfHistory);
    EXPECT_EQ(too_old.detail, 6u);

    // Clamping to the advertised epoch's time makes the query answerable,
    // served from the ledger's cold records.
    const Response clamped =
        engine.execute(window_request(QueryKind::kTenantEnergy, 6.0, 19.0));
    ASSERT_TRUE(clamped.ok);
    EXPECT_DOUBLE_EQ(clamped.values.at(0), 200.0 * (19.0 - 6.0));
  }
}

TEST(LedgerServe, WindowBoundExactlyAtTheOldestRingEpochStaysInTheRing) {
  Scratch scratch;
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  SnapshotStore store(4);
  store.set_ledger(log.get());
  for (int t = 1; t <= 12; ++t) store.publish(synthetic_at(t));
  // Ring holds epochs 9..12; the ledger holds everything.
  ASSERT_EQ(store.oldest()->epoch, 9u);

  QueryEngine engine(store);
  // Lower bound exactly at the oldest ring snapshot's time: at_or_before is
  // inclusive, so this is the last window the ring itself can answer — the
  // fall-through boundary, one tick after which the ledger takes over.
  const Response at_edge =
      engine.execute(window_request(QueryKind::kTenantEnergy, 9.0, 12.0));
  ASSERT_TRUE(at_edge.ok) << at_edge.message;
  EXPECT_DOUBLE_EQ(at_edge.values.at(0), 200.0 * (12.0 - 9.0));

  // One instant earlier resolves the bound through the ledger (epoch 8) and
  // must agree with the arithmetic the ring would have produced.
  const Response below_edge =
      engine.execute(window_request(QueryKind::kTenantEnergy, 8.999, 12.0));
  ASSERT_TRUE(below_edge.ok) << below_edge.message;
  EXPECT_DOUBLE_EQ(below_edge.values.at(0), 200.0 * (12.0 - 8.0));
}

TEST(LedgerServe, EmptyRingWithNonEmptyLedgerServesFromTheTail) {
  Scratch scratch;
  // First life writes durable history.
  {
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
    SnapshotStore store(8);
    store.set_ledger(log.get());
    for (int t = 1; t <= 20; ++t) store.publish(synthetic_at(t));
  }

  // Second life: the ledger is attached but the ring was never refilled
  // (restore_from_ledger not called, no publish yet). Point and window
  // queries must answer from the ledger tail instead of kNoSnapshot.
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  SnapshotStore store(8);
  store.set_ledger(log.get());
  ASSERT_EQ(store.latest(), nullptr);

  QueryEngine engine(store);
  const Response point = engine.execute(window_request(QueryKind::kStats, 0, 0));
  ASSERT_TRUE(point.ok) << point.message;
  EXPECT_EQ(point.epoch, 20u);  // the ledger tail epoch.
  EXPECT_DOUBLE_EQ(point.values.at(1), 20.0);  // time_s.

  const Response window =
      engine.execute(window_request(QueryKind::kTenantEnergy, 5.0, 15.0));
  ASSERT_TRUE(window.ok) << window.message;
  EXPECT_DOUBLE_EQ(window.values.at(0), 200.0 * (15.0 - 5.0));

  // An empty ring with an *empty* ledger is still kNoSnapshot.
  Scratch empty_scratch;
  auto empty_log = std::make_unique<Ledger>(inline_options(empty_scratch.path));
  SnapshotStore empty_store(8);
  empty_store.set_ledger(empty_log.get());
  QueryEngine empty_engine(empty_store);
  const Response none =
      empty_engine.execute(window_request(QueryKind::kStats, 0, 0));
  ASSERT_FALSE(none.ok);
  EXPECT_EQ(none.code, ErrorCode::kNoSnapshot);
}

TEST(LedgerServe, LedgerReachingEpochOneExtendsTheGenesisBaseline) {
  Scratch scratch;
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  SnapshotStore store(2);  // ring far too small to hold the window.
  store.set_ledger(log.get());
  for (int t = 1; t <= 10; ++t) store.publish(synthetic_at(t));
  QueryEngine engine(store);

  // t0 predates even the ledger — but the ledger's oldest epoch is 1, so
  // "before accounting started" is a zero baseline, not missing history.
  const Response response =
      engine.execute(window_request(QueryKind::kTenantEnergy, 0.25, 10.0));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_DOUBLE_EQ(response.values.at(0), 200.0 * 10.0);
}

}  // namespace
}  // namespace vmp::serve
