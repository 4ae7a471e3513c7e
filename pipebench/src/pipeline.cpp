#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/vm_config.hpp"
#include "core/serialization.hpp"
#include "federate/shard_map.hpp"
#include "sim/machine_spec.hpp"

namespace pipebench {

namespace {

std::vector<common::VmConfig> fleet_of(const Workload& workload) {
  const auto catalogue = common::paper_vm_catalogue();
  std::vector<common::VmConfig> fleet;
  for (const std::string& type : workload.vm_types) {
    const auto it = std::find_if(
        catalogue.begin(), catalogue.end(),
        [&type](const common::VmConfig& c) { return c.type_name == type; });
    if (it == catalogue.end())
      throw std::invalid_argument("unknown VM type " + type);
    fleet.push_back(*it);
  }
  return fleet;
}

fleet::FleetOptions fleet_options(const Workload& workload, std::uint64_t seed,
                                  std::uint32_t fleet_id,
                                  std::size_t threads) {
  fleet::FleetOptions options;
  options.hosts = workload.hosts;
  options.threads = threads;
  options.tenants = workload.tenants;
  options.fleet_per_host = fleet_of(workload);
  options.spec = sim::xeon_prototype();
  // Independent trajectories per shard, all derived from the run's seed.
  options.seed = seed * 1000 + fleet_id;
  options.validate();
  return options;
}

/// A time-of-use tariff with hours compressed to 10 s of accounting time,
/// so cost windows cross peak/off-peak boundaries and split into segments.
core::TouRateSchedule bench_tou() {
  core::TouRateSchedule tou;
  tou.offpeak_usd_per_kwh = 0.10;
  tou.peak_usd_per_kwh = 0.25;
  tou.seconds_per_hour = 10.0;
  return tou;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

class Shard {
 public:
  Shard(std::uint32_t fleet_id, const Workload& workload,
        const core::OfflineDataset& dataset, std::uint64_t seed,
        std::size_t threads, const std::filesystem::path& dir)
      : log_(ledger_options(workload, dir, metrics_)),
        store_(workload.retention),
        engine_(fleet_options(workload, seed, fleet_id, threads), dataset),
        queries_(store_, query_options(&metrics_, 1024)),
        uncached_(store_, query_options(nullptr, 0)),
        server_(queries_, metrics_, serve::ServerOptions{}) {
    store_.set_ledger(&log_);
    store_.set_monitor(&engine_.invariants());
    engine_.set_tick_observer(
        [this](const fleet::FleetEngine& engine, std::uint64_t tick,
               const std::vector<fleet::HostTickResult>& results) {
          observe(engine, tick, results);
        });
  }

  fleet::Metrics metrics_;
  ledger::Ledger log_;
  serve::SnapshotStore store_;
  fleet::FleetEngine engine_;
  serve::QueryEngine queries_;
  serve::QueryEngine uncached_;
  serve::Server server_;

  ShardTick last_;
  LayerTally* tally_ = nullptr;
  std::uint64_t fresh_ = 0;
  std::uint64_t violations_ = 0;

 private:
  static ledger::LedgerOptions ledger_options(
      const Workload& workload, const std::filesystem::path& dir,
      fleet::Metrics& metrics) {
    std::filesystem::remove_all(dir);
    ledger::LedgerOptions options;
    options.dir = dir;
    options.segment_max_records = workload.segment_records;
    options.metrics = &metrics;
    return options;
  }

  static serve::QueryEngineOptions query_options(fleet::Metrics* metrics,
                                                 std::size_t capacity) {
    serve::QueryEngineOptions options;
    options.tou = bench_tou();
    options.cache_capacity = capacity;
    options.coalesce = capacity > 0;
    options.metrics = metrics;
    return options;
  }

  /// The engine's tick observer: publish (timed on its own), then the
  /// efficiency gate and the per-host tallies from HostTickResult.
  void observe(const fleet::FleetEngine& engine, std::uint64_t tick,
               const std::vector<fleet::HostTickResult>& results) {
    last_.observe_start_ns = now_ns();
    last_.publish_start_ns = last_.observe_start_ns;
    store_.publish_tick(engine, tick, results);
    last_.publish_end_ns = now_ns();

    for (const fleet::HostTickResult& result : results) {
      last_.step_sum_s += result.step_seconds;
      last_.step_max_s = std::max(last_.step_max_s, result.step_seconds);
      last_.estimate_sum_s += result.estimate_seconds;
      ++last_.host_ticks;
      if (!result.degraded && !result.stale) {
        ++fresh_;
        double phi_sum = 0.0;
        for (const double phi : result.phi) phi_sum += phi;
        const double measured = result.measured_adjusted_w;
        if (!(std::abs(phi_sum - measured) <=
              1e-9 * std::max(1.0, std::abs(measured))))
          ++violations_;
      }
      if (tally_ == nullptr) continue;
      tally_->estimate_ms.push_back(result.estimate_seconds * 1e3);
      tally_->sim_ms.push_back(
          (result.step_seconds - result.estimate_seconds) * 1e3);
      if (result.kernel == "collapsed") ++tally_->kernel_collapsed;
      else if (result.kernel == "sweep") ++tally_->kernel_sweep;
      else if (result.kernel == "sampled") ++tally_->kernel_sampled;
      else ++tally_->kernel_other;
      tally_->table_hit_rate_sum += result.table_hit_rate;
      ++tally_->table_hit_rate_n;
    }
    last_.observe_end_ns = now_ns();
  }
};

Pipeline::Pipeline(const Workload& workload,
                   const core::OfflineDataset& dataset, std::uint64_t seed,
                   const std::filesystem::path& run_dir, std::size_t threads)
    : threads_(threads != 0 ? threads : workload.threads) {
  std::vector<federate::FleetShard> map;
  for (std::size_t i = 0; i < workload.shards; ++i) {
    const auto fleet_id = static_cast<std::uint32_t>(i + 1);
    shards_.push_back(std::make_unique<Shard>(
        fleet_id, workload, dataset, seed, threads_,
        run_dir / ("shard-" + std::to_string(fleet_id))));
    map.push_back({fleet_id, {shards_.back()->server_.port()}});
  }
  frontend_monitor_ = std::make_unique<obs::InvariantMonitor>(frontend_metrics_);
  federate::FrontendOptions options;
  options.metrics = &frontend_metrics_;
  options.monitor = frontend_monitor_.get();
  frontend_ = std::make_unique<federate::FederationFrontend>(
      federate::ShardMap(std::move(map)), options);
  frontend_server_ = std::make_unique<serve::Server>(
      *frontend_, frontend_metrics_, serve::ServerOptions{});
}

Pipeline::~Pipeline() { stop_servers(); }

void Pipeline::stop_servers() {
  if (frontend_server_) frontend_server_->stop();
  for (auto& shard : shards_) shard->server_.stop();
}

void Pipeline::tick_round(std::uint64_t round, SpanLog* log) {
  const bool traced = log != nullptr && log->armed();
  const std::int64_t round_span =
      traced ? log->open("tick.round", round, -1, now_ns()) : -1;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.last_ = ShardTick{};
    shard.last_.run_start_ns = now_ns();
    shard.engine_.run(1);
    shard.last_.run_end_ns = now_ns();
    const ShardTick& t = shard.last_;
    const double run_s = seconds_between(t.run_start_ns, t.run_end_ns);
    const double observe_s =
        seconds_between(t.observe_start_ns, t.observe_end_ns);
    if (tally_ != nullptr) {
      tally_->fleet_tick_ms.push_back((run_s - observe_s) * 1e3);
      tally_->publish_ms.push_back(
          seconds_between(t.publish_start_ns, t.publish_end_ns) * 1e3);
      tally_->engine_busy_wall_s += run_s - observe_s;
      tally_->step_seconds += t.step_sum_s;
    }
    if (!traced) continue;
    const std::int64_t run_span =
        log->open("fleet.run", round, round_span, t.run_start_ns);
    // Host steps run in parallel on the engine's pool and report only
    // their durations, so the step phase is booked at its critical-path
    // lower bound — max(longest step, Σ step / usable threads) — from the
    // start of run(1), split between the estimator and the simulator by
    // Σ estimate_seconds / Σ step_seconds. What remains of run(1) outside
    // the observer is the fleet engine's own time (dispatch, queue,
    // aggregation, pool imbalance).
    const double lanes =
        static_cast<double>(std::min(threads_, std::max<std::size_t>(
                                                   t.host_ticks, 1)));
    const double phase_s = std::max(t.step_max_s, t.step_sum_s / lanes);
    const std::int64_t phase_end = std::min(
        t.observe_start_ns,
        t.run_start_ns + static_cast<std::int64_t>(phase_s * 1e9));
    const double core_share =
        t.step_sum_s > 0.0 ? t.estimate_sum_s / t.step_sum_s : 0.0;
    const std::int64_t core_end =
        t.run_start_ns + static_cast<std::int64_t>(
                             static_cast<double>(phase_end - t.run_start_ns) *
                             core_share);
    log->add("core.estimate", round, run_span, t.run_start_ns, core_end);
    log->add("sim.step", round, run_span, core_end, phase_end);
    const std::int64_t observe_span = log->add(
        "bench.observe", round, run_span, t.observe_start_ns,
        t.observe_end_ns);
    log->add("serve.publish_tick", round, observe_span, t.publish_start_ns,
             t.publish_end_ns);
    log->close(run_span, t.run_end_ns);
  }
  ++rounds_;
  if (traced) log->close(round_span, now_ns());
}

std::size_t Pipeline::host_ticks_per_round() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine_.options().hosts;
  return total;
}

std::uint16_t Pipeline::frontend_port() const noexcept {
  return frontend_server_->port();
}
std::uint16_t Pipeline::shard_port(std::size_t shard) const {
  return shards_.at(shard)->server_.port();
}
const serve::SnapshotStore& Pipeline::store(std::size_t shard) const {
  return shards_.at(shard)->store_;
}
serve::QueryEngine& Pipeline::queries(std::size_t shard) {
  return shards_.at(shard)->queries_;
}
serve::QueryEngine& Pipeline::uncached(std::size_t shard) {
  return shards_.at(shard)->uncached_;
}
ledger::Ledger& Pipeline::ledger(std::size_t shard) {
  return shards_.at(shard)->log_;
}

std::vector<const serve::Server*> Pipeline::servers() const {
  std::vector<const serve::Server*> all;
  for (const auto& shard : shards_) all.push_back(&shard->server_);
  all.push_back(frontend_server_.get());
  return all;
}

void Pipeline::set_tally(LayerTally* tally) noexcept {
  tally_ = tally;
  for (auto& shard : shards_) shard->tally_ = tally;
}

std::uint64_t Pipeline::efficiency_violations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->violations_;
  return total;
}

std::uint64_t Pipeline::fresh_host_ticks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->fresh_;
  return total;
}

std::uint64_t Pipeline::ledger_digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& shard : shards_) {
    std::ostringstream out;
    core::write_multi_host(out, shard->engine_.tenant_ledger());
    for (std::size_t h = 0; h < shard->engine_.options().hosts; ++h)
      core::write_accountant(out, shard->engine_.host_ledger(h));
    hash = fnv1a(hash, out.str());
  }
  return hash;
}

core::OfflineDataset collect_dataset(const Workload& workload,
                                     std::uint64_t seed) {
  core::CollectionOptions options;
  options.duration_s = workload.collect_s;
  options.seed = seed;
  return core::collect_offline_dataset(sim::xeon_prototype(),
                                       fleet_of(workload), options);
}

double engine_only_rate(const Workload& workload,
                        const core::OfflineDataset& dataset,
                        std::uint64_t seed, std::size_t threads,
                        double seconds) {
  struct EngineOnly {
    serve::SnapshotStore store;
    fleet::FleetEngine engine;
    EngineOnly(const fleet::FleetOptions& options,
               const core::OfflineDataset& dataset, std::size_t retention)
        : store(retention), engine(options, dataset) {
      store.attach(engine);
    }
  };
  std::vector<std::unique_ptr<EngineOnly>> engines;
  for (std::size_t i = 0; i < workload.shards; ++i)
    engines.push_back(std::make_unique<EngineOnly>(
        fleet_options(workload, seed, static_cast<std::uint32_t>(i + 1),
                      threads),
        dataset, workload.retention));
  std::uint64_t host_ticks = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    for (auto& one : engines) {
      one->engine.run(1);
      host_ticks += workload.hosts;
    }
  }
  return static_cast<double>(host_ticks) / seconds_between(start, now_ns());
}

}  // namespace pipebench
