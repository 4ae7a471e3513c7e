// pipebench: one benchmark from meter tick to federated answer.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--ticks N] [--threads T] [--tiny] [--setup-reps R]
//             [--run-dir DIR]
//
// Stands up the workload's shards under a federation frontend (see
// pipeline.hpp), ticks them from this thread and offers open-loop queries
// from one generator thread (see loadgen.hpp). --trace 0 prints the
// end-to-end metrics; --trace 1 is the separate traced run that prints the
// per-layer ones. Both runs check every correctness gate (see gates.hpp).
// The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// --ticks N ticks exactly N rounds after set-up instead of --seconds of
// them, and --threads overrides the engine thread count; together they let
// the smoke test compare ledger digests across thread counts. --tiny shrinks
// every workload for that test.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gates.hpp"
#include "ledger/ledger.hpp"
#include "loadgen.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "serve/client.hpp"
#include "spans.hpp"

namespace pipebench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A paced tick sleeps to this long before its due time, then spins.
constexpr std::int64_t kSpinNs = 1'000'000;

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "meter-mixed";
    w.why = "estimator kernel and worth lookup dominate: 8 mixed VMs per host";
    w.shards = 2;
    w.hosts = 4;
    w.threads = 4;
    w.tenants = 4;
    w.vm_types = {"VM1", "VM1", "VM1", "VM1", "VM2", "VM2", "VM3", "VM3"};
    w.retention = 256;
    w.segment_records = 4096;
    w.query_hz = 200.0;
    w.mix = {0.6, 0.3, 0.05, 0.05};
    w.repeat_share = 0.2;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "ingest-small";
    w.why = "engine dispatch, snapshot build and ledger append dominate: "
            "cheap 2-VM hosts, small segments";
    w.shards = 2;
    w.hosts = 16;
    w.threads = 4;
    w.tenants = 2;
    w.vm_types = {"VM1", "VM2"};
    w.retention = 256;
    w.warmup_ticks = 1024;
    w.segment_records = 256;
    w.query_hz = 200.0;
    w.mix = {0.5, 0.3, 0.1, 0.1};
    w.repeat_share = 0.2;
    all.push_back(w);
  }
  {
    // Runnable and smoke-tested, but not listed in BENCHMARK.json: its
    // latency p90s spread beyond their 0.25 bound across runs on a
    // 4-vCPU VM (see README.md).
    Workload w;
    w.name = "query-fanout";
    w.why = "serve transport, result cache, ledger reads and federation "
            "scatter/gather dominate: paced ticks, open-loop queries";
    w.shards = 4;
    w.hosts = 2;
    w.threads = 2;
    w.tenants = 2;
    w.vm_types = {"VM1", "VM2"};
    w.retention = 64;
    w.warmup_ticks = 1024;
    w.segment_records = 1024;
    w.tick_hz = 100.0;
    w.rss_rounds = 1000;
    w.query_hz = 500.0;
    w.mix = {0.4, 0.25, 0.2, 0.15};
    w.repeat_share = 0.3;
    all.push_back(w);
  }
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t ticks = -1;
  std::size_t threads = 0;
  bool tiny = false;
  std::size_t setup_reps = 9;
  std::filesystem::path run_dir = ".bench_run";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value) != 0;
    else if (flag == "--ticks") args.ticks = std::stoll(value);
    else if (flag == "--threads") args.threads = std::stoul(value);
    else if (flag == "--setup-reps") args.setup_reps = std::stoul(value);
    else if (flag == "--run-dir") args.run_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (args.setup_reps == 0) args.setup_reps = 1;
  return args;
}

Workload select_workload(const Args& args) {
  const auto all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) throw std::invalid_argument("unknown workload " + args.workload);
  Workload workload = *it;
  if (args.tiny) {
    workload.collect_s = 4.0;
    workload.warmup_ticks = 0;
    workload.retention = 32;
    workload.segment_records = std::min<std::uint64_t>(workload.segment_records, 64);
    workload.query_hz = std::min(workload.query_hz, 200.0);
  }
  if (workload.warmup_ticks == 0) workload.warmup_ticks = workload.retention + 64;
  return workload;
}

/// Nearest-rank quantile; +inf entries (failed queries) sort last.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void sleep_until_ns(std::int64_t when_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(when_ns)));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample counts and the like, for the report only.
};

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

/// Every wall-clock end-to-end metric is taken per whole second of the
/// timed phase and reported at the best quartile of those seconds: the
/// upper quartile for throughput, the lower quartile for latency quantiles.
/// On a shared VM the host steals CPU in bursts; a stolen vCPU stalls a
/// tick barrier or a query chain for a whole time slice, so a few disturbed
/// seconds would otherwise set the figure. A slowdown of the program itself
/// moves every second alike and shows in full. Whole-run values go in the
/// report next to each metric.
constexpr double kBestQuartile = 0.25;

/// The `q`-quantile of `values` (stamped `at_ns`) in each whole second from
/// `start_ns` to `end_ns`, then the `across`-quantile of those per-second
/// figures.
double per_second_quantile(const std::vector<std::int64_t>& at_ns,
                           const std::vector<double>& values,
                           std::int64_t start_ns, std::int64_t end_ns,
                           double q, double across) {
  const auto seconds = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end_ns - start_ns) / 1'000'000'000));
  std::vector<std::vector<double>> bins(seconds);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int64_t k = (at_ns[i] - start_ns) / 1'000'000'000;
    if (k >= 0 && static_cast<std::size_t>(k) < seconds)
      bins[static_cast<std::size_t>(k)].push_back(values[i]);
  }
  std::vector<double> per_second;
  for (auto& bin : bins)
    if (!bin.empty()) per_second.push_back(quantile(std::move(bin), q));
  return quantile(std::move(per_second), across);
}

// --- set-up ----------------------------------------------------------------

struct SetUp {
  std::optional<core::OfflineDataset> dataset;
  std::unique_ptr<Pipeline> pipe;
  std::vector<double> seconds;  ///< one entry per set-up.
  std::vector<double> collect_s, boot_s, warmup_s;
};

/// Collects the offline dataset, boots the pipeline and ticks the warm-up
/// rounds, `reps` times, adding each set-up's times to `s`; the last
/// pipeline is kept.
void set_up(SetUp& s, const Workload& workload, const Args& args,
            std::size_t reps, const std::filesystem::path& dir) {
  for (std::size_t rep = 0; rep < reps; ++rep) {
    s.pipe.reset();
    // Hand the torn-down set-up's heap back, so peak RSS reflects one
    // pipeline rather than how many set-ups ran before it.
    ::malloc_trim(0);
    std::filesystem::remove_all(dir);
    const std::int64_t start = now_ns();
    s.dataset.emplace(collect_dataset(workload, args.seed));
    const std::int64_t collected = now_ns();
    s.pipe = std::make_unique<Pipeline>(workload, *s.dataset, args.seed, dir,
                                        args.threads);
    const std::int64_t booted = now_ns();
    for (std::size_t k = 0; k < workload.warmup_ticks; ++k)
      s.pipe->tick_round(s.pipe->rounds());
    const std::int64_t warm = now_ns();
    s.seconds.push_back(seconds_between(start, warm));
    s.collect_s.push_back(seconds_between(start, collected));
    s.boot_s.push_back(seconds_between(collected, booted));
    s.warmup_s.push_back(seconds_between(booted, warm));
  }
}

void print_set_up(const SetUp& s, const Workload& workload) {
  std::printf("set-up (median of %zu): %.4f s = collect %.4f + boot %.4f + "
              "warm-up %.4f (%zu rounds); in order:",
              s.seconds.size(), quantile(s.seconds, 0.5),
              quantile(s.collect_s, 0.5), quantile(s.boot_s, 0.5),
              quantile(s.warmup_s, 0.5), workload.warmup_ticks);
  for (const double seconds : s.seconds) std::printf(" %.4f", seconds);
  std::printf("\n");
}

Entities entities_of(const Pipeline& pipe) {
  Entities entities;
  const auto snapshot = pipe.store(0).latest();
  for (const auto& tenant : snapshot->tenants)
    entities.tenants.push_back(tenant.tenant);
  for (const auto& vm : snapshot->vms) entities.vms.emplace_back(vm.host, vm.vm);
  return entities;
}

// --- the timed phase -------------------------------------------------------

struct Phase {
  std::vector<double> lag_ms;    ///< due time -> last shard's publish.
  std::vector<double> round_ms;  ///< tick start -> last shard's publish.
  std::vector<std::int64_t> done_ns;  ///< when each round became queryable.
  std::uint64_t rounds = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Ticks the pipeline from `start_ns`: closed loop (next tick due when the
/// previous one finished) or paced at workload.tick_hz. Stops at `end_ns`
/// but not before `min_rounds` rounds, or after exactly `max_rounds` rounds
/// when that is >= 0.
Phase drive(Pipeline& pipe, std::atomic<std::uint64_t>& published,
            const Workload& workload, std::int64_t start_ns,
            std::int64_t end_ns, std::int64_t max_rounds,
            std::uint64_t min_rounds, SpanLog* log,
            const std::function<void()>& between_rounds) {
  Phase phase;
  phase.start_ns = start_ns;
  const std::int64_t period_ns =
      workload.tick_hz > 0.0
          ? static_cast<std::int64_t>(1e9 / workload.tick_hz)
          : 0;
  sleep_until_ns(start_ns);
  std::int64_t due = start_ns;
  while (max_rounds >= 0 ? phase.rounds < static_cast<std::uint64_t>(max_rounds)
                         : due < end_ns || phase.rounds < min_rounds) {
    if (period_ns > 0) {
      // Sleep to just short of the due time, then spin: the schedule, not
      // the timer slack, decides when a paced tick starts.
      sleep_until_ns(due - kSpinNs);
      while (now_ns() < due) {
      }
    }
    const std::int64_t begin = now_ns();
    pipe.tick_round(pipe.rounds(), log);
    const std::int64_t done = now_ns();
    published.store(pipe.rounds(), std::memory_order_release);
    phase.lag_ms.push_back(static_cast<double>(done - due) * 1e-6);
    phase.round_ms.push_back(static_cast<double>(done - begin) * 1e-6);
    phase.done_ns.push_back(done);
    ++phase.rounds;
    if (between_rounds) between_rounds();
    due = period_ns > 0 ? due + period_ns : now_ns();
  }
  phase.end_ns = now_ns();
  return phase;
}

/// In-process and direct-to-shard timings for the traced run, taken on the
/// driver thread between rounds.
class Probes {
 public:
  Probes(Pipeline& pipe, const Entities& entities, std::size_t retention,
         std::uint64_t seed, SpanLog& log)
      : pipe_(pipe),
        entities_(entities),
        retention_(retention),
        rng_(seed ^ 0x7072'6f62'6573ULL),
        log_(log),
        shard_client_(pipe.shard_port(0)) {}

  /// One probe of each kind, at most every kEveryNs.
  void maybe_probe() {
    if (now_ns() - last_ns_ < kEveryNs) return;
    auto cls = static_cast<QueryClass>(next_class_++ % kClassCount);
    const serve::Request request =
        make_query(cls, rng_, entities_, pipe_.rounds(), retention_);
    const std::size_t shard = next_shard_++ % pipe_.shard_count();

    const auto timed = [&](const char* span, std::vector<double>& into,
                           const auto& call) {
      const std::int64_t t0 = now_ns();
      const serve::Response response = call();
      const std::int64_t t1 = now_ns();
      into.push_back(static_cast<double>(t1 - t0) * 1e-6);
      log_.add(span, probes_, -1, t0, t1);
      if (!response.ok || !response.complete) ++failures;
    };
    timed("probe.serve.execute", execute_ms[cls],
          [&] { return pipe_.uncached(shard).execute(request); });
    timed("probe.federate.execute", federate_ms,
          [&] { return pipe_.frontend().execute(request); });
    timed("probe.serve.shard_rtt", shard_rtt_ms,
          [&] { return shard_client_.query(request); });
    ++probes_;
    last_ns_ = now_ns();
  }

  std::vector<double> execute_ms[kClassCount];
  std::vector<double> federate_ms;
  std::vector<double> shard_rtt_ms;
  std::uint64_t failures = 0;

 private:
  static constexpr std::int64_t kEveryNs = 5'000'000;
  Pipeline& pipe_;
  const Entities& entities_;
  std::size_t retention_;
  util::Rng rng_;
  SpanLog& log_;
  serve::Client shard_client_;
  std::int64_t last_ns_ = 0;
  std::uint64_t next_class_ = 0;
  std::uint64_t next_shard_ = 0;
  std::uint64_t probes_ = 0;
};

/// Cumulative counters the public API exposes, read before and after the
/// timed phase.
struct Counters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t ledger_bytes = 0;
  std::uint64_t ledger_records = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_reconnects = 0;

  static Counters read(Pipeline& pipe) {
    Counters c;
    for (std::size_t i = 0; i < pipe.shard_count(); ++i) {
      c.cache_hits += pipe.queries(i).cache_hits();
      c.cache_misses += pipe.queries(i).cache_misses();
      c.coalesced += pipe.queries(i).coalesced();
      const ledger::Stats stats = pipe.ledger(i).stats();
      c.ledger_bytes += stats.appended_bytes;
      c.ledger_records += stats.appended_records;
    }
    if (const federate::ConnectionPool* pool = pipe.frontend().pool()) {
      c.pool_hits = pool->hits();
      c.pool_misses = pool->misses();
      c.pool_reconnects = pool->reconnects();
    }
    return c;
  }

  Counters since(const Counters& before) const {
    Counters d = *this;
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.coalesced -= before.coalesced;
    d.ledger_bytes -= before.ledger_bytes;
    d.ledger_records -= before.ledger_records;
    d.pool_hits -= before.pool_hits;
    d.pool_misses -= before.pool_misses;
    d.pool_reconnects -= before.pool_reconnects;
    return d;
  }
};

struct QueryStats {
  std::vector<double> latency_ms;  ///< +inf for failed queries.
  std::vector<double> class_ms[kClassCount];
  std::vector<double> late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::int64_t first_due_ns = 0;
  std::int64_t last_done_ns = 0;
  std::vector<std::int64_t> due_ns;  ///< parallel to latency_ms.
};

QueryStats query_stats(const LoadGen& gen) {
  QueryStats stats;
  for (const QueryRecord& record : gen.records()) {
    if (stats.attempted++ == 0) stats.first_due_ns = record.due_ns;
    const double ms =
        record.ok ? static_cast<double>(record.done_ns - record.due_ns) * 1e-6
                  : kInf;
    if (record.ok) ++stats.ok;
    stats.last_done_ns = std::max(stats.last_done_ns, record.done_ns);
    stats.latency_ms.push_back(ms);
    stats.due_ns.push_back(record.due_ns);
    stats.class_ms[record.cls].push_back(ms);
    if (record.sent_ns != 0)
      stats.late_ms.push_back(
          static_cast<double>(record.sent_ns - record.due_ns) * 1e-6);
  }
  return stats;
}

// --- metrics ---------------------------------------------------------------

std::vector<Metric> end_to_end_metrics(const SetUp& setup, const Phase& phase,
                                       const QueryStats& qs,
                                       std::size_t host_ticks_per_round,
                                       double offered_hz, double rss_mb,
                                       std::uint64_t rss_rounds) {
  std::vector<Metric> m;
  const auto per_round = static_cast<double>(host_ticks_per_round);
  // Throughput of each whole second: rounds between the second's first and
  // last completion over the time between them.
  std::vector<double> per_second;
  const double wall_s = seconds_between(phase.start_ns, phase.end_ns);
  for (std::int64_t lo = phase.start_ns; lo + 1'000'000'000 <= phase.end_ns;
       lo += 1'000'000'000) {
    const auto first =
        std::lower_bound(phase.done_ns.begin(), phase.done_ns.end(), lo);
    const auto last =
        std::lower_bound(first, phase.done_ns.end(), lo + 1'000'000'000);
    if (last - first < 2) continue;
    per_second.push_back(static_cast<double>(last - first - 1) * per_round /
                         seconds_between(*first, *(last - 1)));
  }
  if (per_second.empty())
    per_second.push_back(static_cast<double>(phase.rounds) * per_round / wall_s);
  const auto lag = [&](double q) {
    return per_second_quantile(phase.done_ns, phase.lag_ms, phase.start_ns,
                               phase.end_ns, q, kBestQuartile);
  };
  const std::int64_t query_end = qs.due_ns.empty() ? 0 : qs.due_ns.back() + 1;
  const auto query = [&](double q) {
    return per_second_quantile(qs.due_ns, qs.latency_ms, qs.first_due_ns,
                               query_end, q, kBestQuartile);
  };
  const auto whole_run = [](const std::vector<double>& v) {
    return count_note(v.size()) + "; whole run p50 " +
           std::to_string(quantile(v, 0.5)) + ", p90 " +
           std::to_string(quantile(v, 0.9)) + ", p99 " +
           std::to_string(quantile(v, 0.99));
  };

  // The fastest set-up: host CPU steal only ever adds to a set-up's time,
  // while work moved into set-up adds to every one of them.
  m.push_back({"setup_s", quantile(setup.seconds, 0.0), "s",
               "fastest of " + std::to_string(setup.seconds.size()) +
                   " set-ups; median " +
                   std::to_string(quantile(setup.seconds, 0.5))});
  m.push_back({"tick_rate", quantile(per_second, 1.0 - kBestQuartile),
               "host-ticks/s",
               std::to_string(per_second.size()) + " one-second rates; " +
                   std::to_string(phase.rounds) + " rounds in " +
                   std::to_string(wall_s) + " s"});
  m.push_back({"tick_lag_p50_ms", lag(0.5), "ms", whole_run(phase.lag_ms)});
  m.push_back({"tick_lag_p90_ms", lag(0.9), "ms",
               "round alone p50 " + std::to_string(quantile(phase.round_ms, 0.5))});
  m.push_back({"query_p50_ms", query(0.5), "ms", whole_run(qs.latency_ms)});
  m.push_back({"query_p90_ms", query(0.9), "ms", ""});
  m.push_back({"query_rate",
               ratio(static_cast<double>(qs.ok),
                     seconds_between(qs.first_due_ns, qs.last_done_ns)),
               "answers/s", "offered " + std::to_string(offered_hz)});
  m.push_back({"query_ok_ratio",
               ratio(static_cast<double>(qs.ok), static_cast<double>(qs.attempted)),
               "ratio",
               std::to_string(qs.ok) + " of " + std::to_string(qs.attempted)});
  m.push_back({"peak_rss_mb", rss_mb, "MB",
               "getrusage ru_maxrss after " + std::to_string(rss_rounds) +
                   " timed rounds"});
  return m;
}

/// The traced run's chunks alternate untraced (even) and traced (odd).
struct TracedRun {
  std::vector<Phase> chunks;
  LayerTally tally;
  const SpanLog* driver_log = nullptr;
  const Probes* probes = nullptr;
  Counters counters;  ///< over the whole timed phase.
  double rate_threads = 0.0;  ///< engine-only host-ticks/s, workload threads.
  double rate_1t = 0.0;       ///< the same at one engine thread.
  std::size_t threads = 0;
};

std::vector<Metric> layer_metrics(const TracedRun& run, const QueryStats& qs,
                                  Pipeline& pipe, const LoadGen& gen) {
  std::vector<double> traced_round_ms, untraced_round_ms, untraced_lag_ms;
  for (std::size_t i = 0; i < run.chunks.size(); ++i) {
    const Phase& chunk = run.chunks[i];
    auto& rounds = i % 2 == 1 ? traced_round_ms : untraced_round_ms;
    rounds.insert(rounds.end(), chunk.round_ms.begin(), chunk.round_ms.end());
    if (i % 2 == 0)
      untraced_lag_ms.insert(untraced_lag_ms.end(), chunk.lag_ms.begin(),
                             chunk.lag_ms.end());
  }
  const auto self = self_seconds(*run.driver_log);
  const auto total = total_seconds(*run.driver_log);
  const auto get = [](const std::map<std::string, double>& m, const char* key) {
    const auto found = m.find(key);
    return found == m.end() ? 0.0 : found->second;
  };
  const double self_fleet = get(self, "fleet.run");
  const double self_core = get(self, "core.estimate");
  const double self_sim = get(self, "sim.step");
  const double self_publish = get(self, "serve.publish_tick");
  const auto per_round_ms = [&](double seconds) {
    return ratio(seconds, static_cast<double>(traced_round_ms.size())) * 1e3;
  };
  const LayerTally& t = run.tally;
  const Probes& p = *run.probes;
  const Counters& c = run.counters;
  std::uint64_t segments = 0, cold_segments = 0, compacted = 0;
  for (std::size_t i = 0; i < pipe.shard_count(); ++i) {
    const ledger::Stats stats = pipe.ledger(i).stats();
    segments += stats.segments;
    cold_segments += stats.cold_segments;
    compacted += stats.compacted_records;
  }
  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> m;
  m.push_back({"e2e.query_p99_ms", quantile(qs.latency_ms, 0.99), "ms", count_note(qs.latency_ms.size())});
  m.push_back({"e2e.tick_lag_p99_ms", quantile(untraced_lag_ms, 0.99), "ms", "untraced chunks, " + count_note(untraced_lag_ms.size())});
  m.push_back({"core.estimate_ms.p50", quantile(t.estimate_ms, 0.5), "ms", count_note(t.estimate_ms.size())});
  m.push_back({"core.estimate_ms.p99", quantile(t.estimate_ms, 0.99), "ms", count_note(t.estimate_ms.size())});
  m.push_back({"core.kernel.collapsed", as_double(t.kernel_collapsed), "count", ""});
  m.push_back({"core.kernel.sweep", as_double(t.kernel_sweep), "count", ""});
  m.push_back({"core.kernel.sampled", as_double(t.kernel_sampled), "count", ""});
  m.push_back({"core.table_hit_rate", ratio(t.table_hit_rate_sum, as_double(t.table_hit_rate_n)), "ratio", count_note(t.table_hit_rate_n)});
  m.push_back({"sim.step_ms.p50", quantile(t.sim_ms, 0.5), "ms", count_note(t.sim_ms.size())});
  m.push_back({"fleet.tick_ms.p50", quantile(t.fleet_tick_ms, 0.5), "ms", count_note(t.fleet_tick_ms.size())});
  m.push_back({"fleet.tick_ms.p99", quantile(t.fleet_tick_ms, 0.99), "ms", count_note(t.fleet_tick_ms.size())});
  m.push_back({"fleet.busy_ratio", ratio(t.step_seconds, t.engine_busy_wall_s * as_double(run.threads)), "ratio", std::to_string(run.threads) + " threads"});
  m.push_back({"fleet.speedup_1t", ratio(run.rate_threads, run.rate_1t), "x", "engine-only host-ticks/s at " + std::to_string(run.threads) + " vs 1 thread"});
  m.push_back({"serve.publish_ms.p50", quantile(t.publish_ms, 0.5), "ms", count_note(t.publish_ms.size())});
  m.push_back({"serve.publish_ms.p99", quantile(t.publish_ms, 0.99), "ms", count_note(t.publish_ms.size())});
  m.push_back({"ledger.append_bytes_per_tick", ratio(as_double(c.ledger_bytes), as_double(c.ledger_records)), "B", count_note(c.ledger_records)});
  m.push_back({"ledger.segments", as_double(segments), "count", "all shards"});
  m.push_back({"ledger.cold_segments", as_double(cold_segments), "count", "all shards"});
  m.push_back({"ledger.compacted_records", as_double(compacted), "count", "all shards"});
  for (int k = 0; k < kClassCount; ++k)
    m.push_back({std::string("query.") + kClassNames[k] + ".p50_ms", quantile(qs.class_ms[k], 0.5), "ms", count_note(qs.class_ms[k].size())});
  for (int k = 0; k < kClassCount; ++k)
    m.push_back({std::string("serve.execute_ms.") + kClassNames[k], quantile(p.execute_ms[k], 0.5), "ms", count_note(p.execute_ms[k].size())});
  m.push_back({"serve.cache_hit_ratio", ratio(as_double(c.cache_hits), as_double(c.cache_hits + c.cache_misses)), "ratio", std::to_string(c.cache_hits) + " hits"});
  m.push_back({"serve.coalesced", as_double(c.coalesced), "count", ""});
  m.push_back({"serve.shard_rtt_ms.p50", quantile(p.shard_rtt_ms, 0.5), "ms", count_note(p.shard_rtt_ms.size())});
  m.push_back({"serve.shard_rtt_ms.p99", quantile(p.shard_rtt_ms, 0.99), "ms", count_note(p.shard_rtt_ms.size())});
  m.push_back({"federate.execute_ms.p50", quantile(p.federate_ms, 0.5), "ms", count_note(p.federate_ms.size())});
  m.push_back({"federate.execute_ms.p99", quantile(p.federate_ms, 0.99), "ms", count_note(p.federate_ms.size())});
  m.push_back({"federate.pool_hit_ratio", ratio(as_double(c.pool_hits), as_double(c.pool_hits + c.pool_misses)), "ratio", std::to_string(c.pool_hits) + " hits"});
  m.push_back({"federate.pool_reconnects", as_double(c.pool_reconnects), "count", ""});
  m.push_back({"gen.late_p99_ms", quantile(qs.late_ms, 0.99), "ms", count_note(qs.late_ms.size())});
  m.push_back({"gen.backlog_max", as_double(gen.backlog_max()), "count", ""});
  m.push_back({"self.fleet_ms", per_round_ms(self_fleet), "ms", "per traced round"});
  m.push_back({"self.core_ms", per_round_ms(self_core), "ms", "per traced round"});
  m.push_back({"self.sim_ms", per_round_ms(self_sim), "ms", "per traced round"});
  m.push_back({"self.publish_ms", per_round_ms(self_publish), "ms", "per traced round"});
  // Coverage counts measured spans only: run(1) outside the bench's
  // observer, plus publish_tick. The step phase that core.estimate and
  // sim.step book is derived from HostTickResult durations, so its share of
  // the engine's time is reported on its own.
  const double engine_wall = get(total, "fleet.run") - get(total, "bench.observe");
  m.push_back({"trace.coverage", ratio(engine_wall + get(total, "serve.publish_tick"), get(total, "tick.round")), "ratio", "measured layer calls / tick wall"});
  m.push_back({"trace.step_share", ratio(self_core + self_sim, engine_wall), "ratio", "critical-path step phase / run(1) wall outside the observer"});
  m.push_back({"trace.overhead_pct", (ratio(quantile(traced_round_ms, 0.5), quantile(untraced_round_ms, 0.5)) - 1.0) * 100.0, "%",
               "traced vs untraced round p50, n=" + std::to_string(traced_round_ms.size()) + "/" + std::to_string(untraced_round_ms.size())});
  return m;
}

// --- report ----------------------------------------------------------------

void print_number(double value) {
  // JSON has no infinity; a +inf (failed-query) quantile prints as DBL_MAX.
  std::printf("%.17g", std::isfinite(value)
                           ? value
                           : std::numeric_limits<double>::max());
}

/// Human-readable report, then the JSON result as the last line.
void print_report(const QueryStats& qs, const LoadGen& gen,
                  const std::vector<Gate>& gates,
                  const std::vector<Metric>& metrics, std::uint64_t digest,
                  std::uint64_t rounds) {
  const std::uint64_t failed = qs.attempted - qs.ok;
  std::printf("queries: %" PRIu64 " attempted, %" PRIu64 " failed (fail ratio %.6f), "
              "generator late p99 %.3f ms, backlog max %" PRIu64 "\n",
              qs.attempted, failed,
              ratio(static_cast<double>(failed), static_cast<double>(qs.attempted)),
              quantile(qs.late_ms, 0.99), gen.backlog_max());
  for (const auto& [code, count] : gen.errors())
    std::printf("  failed with %s: %" PRIu64 "\n",
                code == 0 ? "partial answer"
                          : ("error code " + std::to_string(code)).c_str(),
                count);
  bool correct = true;
  for (const Gate& gate : gates) {
    correct = correct && gate.pass;
    std::printf("gate %-26s %s  %s\n", gate.name.c_str(),
                gate.pass ? "PASS" : "FAIL", gate.detail.c_str());
  }
  std::printf("digest %016" PRIx64 " (tenant and host ledgers, %" PRIu64 " rounds)\n",
              digest, rounds);
  for (const Metric& metric : metrics)
    std::printf("metric %-30s %14.6f %-12s %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", qs.attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", metrics[i].name.c_str());
    print_number(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  obs::Tracer::global().set_enabled(false);
  const Workload workload = select_workload(args);
  std::printf("workload %s: %s\n", workload.name.c_str(), workload.why.c_str());
  char ticking[48] = "closed-loop ticks";
  if (workload.tick_hz > 0.0)
    std::snprintf(ticking, sizeof ticking, "ticks paced at %g Hz", workload.tick_hz);
  std::printf("shape: %zu shards x %zu hosts x %zu VMs, %zu engine threads, "
              "%s, %g queries/s offered, retention %zu, segments of %"
              PRIu64 " records, seed %" PRIu64 ", %s run\n",
              workload.shards, workload.hosts, workload.vm_types.size(),
              args.threads != 0 ? args.threads : workload.threads, ticking,
              workload.query_hz, workload.retention, workload.segment_records,
              args.seed, args.trace ? "traced" : "untraced");

  const std::filesystem::path run_dir =
      args.run_dir / (workload.name + "-" + std::to_string(::getpid()));
  // The untraced run sets up about half its times before the timed phase
  // and the rest after it, so one burst of host CPU steal cannot slow them
  // all.
  const std::size_t setup_reps = args.trace ? 1 : args.setup_reps;
  SetUp setup;
  set_up(setup, workload, args, (setup_reps + 1) / 2, run_dir / "pipeline");
  Pipeline& pipe = *setup.pipe;

  const Entities entities = entities_of(pipe);
  std::atomic<std::uint64_t> published{pipe.rounds()};
  const HotCapture hot = capture_hot(pipe, entities);

  LoadGenOptions gen_options;
  gen_options.port = pipe.frontend_port();
  gen_options.rate_hz = workload.query_hz;
  gen_options.start_ns = now_ns() + 20'000'000;
  // With --ticks the driver ends the schedule once its rounds are done.
  gen_options.end_ns =
      gen_options.start_ns + (args.ticks >= 0 ? 3'600'000'000'000LL
                                              : static_cast<std::int64_t>(args.seconds * 1e9));
  gen_options.seed = args.seed * 0x9e3779b97f4a7c15ULL + 17;
  gen_options.mix = workload.mix;
  gen_options.repeat_share = workload.repeat_share;
  gen_options.retention = workload.retention;
  LoadGen gen(gen_options, entities, published, args.trace);

  SpanLog driver_log("driver", false);
  std::unique_ptr<Probes> probes;
  TracedRun traced;
  const Counters before = Counters::read(pipe);
  gen.start();
  // Read after a fixed number of timed rounds (or at the end of a shorter
  // --ticks run): the estimator's memos grow with every round ticked.
  double rss_mb = 0.0;
  std::uint64_t rss_rounds = 0;
  if (!args.trace) {
    const std::uint64_t first_round = pipe.rounds();
    traced.chunks.push_back(drive(
        pipe, published, workload, gen_options.start_ns, gen_options.end_ns,
        args.ticks, workload.rss_rounds, nullptr, [&] {
          if (pipe.rounds() - first_round == workload.rss_rounds) {
            rss_mb = peak_rss_mb();
            rss_rounds = workload.rss_rounds;
          }
        }));
    if (rss_rounds == 0) {
      rss_mb = peak_rss_mb();
      rss_rounds = pipe.rounds() - first_round;
    }
  } else {
    // Alternate untraced and traced chunks, so warming memos and the
    // ledger's growth weigh on both sides of the overhead comparison.
    probes = std::make_unique<Probes>(pipe, entities, workload.retention,
                                      args.seed, driver_log);
    const auto chunk_ns = static_cast<std::int64_t>(args.seconds * 1e9 / 4);
    const std::int64_t chunk_rounds = args.ticks >= 0 ? (args.ticks + 3) / 4 : -1;
    std::int64_t start = gen_options.start_ns;
    for (int chunk = 0; chunk < 4; ++chunk) {
      const bool armed = chunk % 2 == 1;
      driver_log.set_armed(armed);
      pipe.set_tally(armed ? &traced.tally : nullptr);
      traced.chunks.push_back(drive(
          pipe, published, workload, start, start + chunk_ns, chunk_rounds, 0,
          &driver_log,
          armed ? std::function<void()>([&] { probes->maybe_probe(); })
                : std::function<void()>()));
      start = args.ticks >= 0 ? now_ns() : std::max(start + chunk_ns, now_ns());
    }
    driver_log.set_armed(false);
    pipe.set_tally(nullptr);
  }
  gen.stop_sending();
  gen.join();
  traced.counters = Counters::read(pipe).since(before);

  const std::vector<Gate> gates =
      run_gates(pipe, entities, hot, gen, probes ? probes->failures : 0);
  const QueryStats qs = query_stats(gen);
  const std::uint64_t digest = pipe.ledger_digest();
  const std::uint64_t rounds = pipe.rounds();
  const std::size_t host_ticks_per_round = pipe.host_ticks_per_round();

  std::vector<Metric> metrics;
  if (args.trace) {
    traced.driver_log = &driver_log;
    traced.probes = probes.get();
    traced.threads = pipe.engine_threads();
    const double speed_s = std::clamp(args.seconds * 0.1, 0.2, 1.5);
    traced.rate_threads = engine_only_rate(workload, *setup.dataset, args.seed,
                                           traced.threads, speed_s);
    traced.rate_1t =
        engine_only_rate(workload, *setup.dataset, args.seed, 1, speed_s);
    metrics = layer_metrics(traced, qs, pipe, gen);

    const std::filesystem::path trace_path =
        args.run_dir / ("trace-" + workload.name + ".json");
    write_chrome_trace(trace_path, {&driver_log, &gen.spans()});
    std::printf("spans: %zu driver + %zu generator written to %s\n",
                driver_log.spans().size(), gen.spans().spans().size(),
                trace_path.string().c_str());
  }
  probes.reset();
  setup.pipe.reset();
  if (setup_reps > 1) {
    set_up(setup, workload, args, setup_reps / 2, run_dir / "pipeline");
    setup.pipe.reset();
  }
  std::filesystem::remove_all(run_dir);
  print_set_up(setup, workload);
  if (!args.trace)
    metrics = end_to_end_metrics(setup, traced.chunks.front(), qs,
                                 host_ticks_per_round, workload.query_hz,
                                 rss_mb, rss_rounds);
  print_report(qs, gen, gates, metrics, digest, rounds);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  try {
    return pipebench::run(pipebench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pipebench: %s\n", error.what());
    return 1;
  }
}
