#include "fleet/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/faults.hpp"
#include "util/thread_pool.hpp"

namespace vmp::fleet {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran, 100);
  EXPECT_THROW(util::ThreadPool(0), std::invalid_argument);
}

// --- Fault injection --------------------------------------------------------

TEST(Faults, SpecParsingAndValidation) {
  const FaultSpec spec = parse_fault_spec("meter:0.5,dropout:0.1,stale:0.25");
  EXPECT_DOUBLE_EQ(spec.meter_failure, 0.5);
  EXPECT_DOUBLE_EQ(spec.dropout, 0.1);
  EXPECT_DOUBLE_EQ(spec.stale_telemetry, 0.25);
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(FaultSpec{}.any());
  EXPECT_THROW(parse_fault_spec("meter:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("disk:0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("meter=0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("meter:abc"), std::invalid_argument);
}

TEST(Faults, RollsAreDeterministicInTheKey) {
  FaultSpec spec;
  spec.meter_failure = 0.5;
  const FaultInjector a(spec, 42), b(spec, 42);
  int fired = 0;
  for (std::uint64_t tick = 0; tick < 200; ++tick) {
    const bool hit = a.fires(FaultInjector::Kind::kMeter, 3, tick);
    EXPECT_EQ(hit, b.fires(FaultInjector::Kind::kMeter, 3, tick));
    fired += hit;
  }
  // ~Binomial(200, 0.5); a [40, 160] band is astronomically safe.
  EXPECT_GT(fired, 40);
  EXPECT_LT(fired, 160);

  FaultSpec never, always;
  always.dropout = 1.0;
  EXPECT_FALSE(
      FaultInjector(never, 1).fires(FaultInjector::Kind::kDropout, 0, 0));
  EXPECT_TRUE(
      FaultInjector(always, 1).fires(FaultInjector::Kind::kDropout, 0, 0));
}

// --- FleetEngine ------------------------------------------------------------

class FleetEngineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kHosts = 4;
  /// Thread counts compared against a serial run.
  static constexpr std::size_t kThreadSweep[] = {2, 4, 8};

  std::vector<common::VmConfig> fleet_ = {common::demo_c_vm(),
                                          common::demo_c_vm()};

  core::OfflineDataset dataset_ = [this] {
    core::CollectionOptions options;
    options.duration_s = 30.0;
    return core::collect_offline_dataset(sim::xeon_prototype(), fleet_,
                                         options);
  }();

  FleetOptions options_for(std::size_t threads) const {
    FleetOptions options;
    options.hosts = kHosts;
    options.threads = threads;
    options.fleet_per_host = fleet_;
    options.tenants = 2;
    options.seed = 7;
    options.retry_backoff_base = std::chrono::microseconds{0};  // fast tests.
    return options;
  }

  static std::vector<double> ledger_fingerprint(const FleetEngine& engine) {
    std::vector<double> values;
    const auto& tenants = engine.tenant_ledger();
    for (const core::TenantId tenant : tenants.tenants()) {
      values.push_back(tenants.tenant_energy_j(tenant));
      for (std::size_t h = 0; h < engine.options().hosts; ++h)
        values.push_back(
            tenants.tenant_energy_on_host_j(tenant, static_cast<core::HostId>(h)));
    }
    for (std::size_t h = 0; h < engine.options().hosts; ++h)
      for (const std::uint32_t vm : engine.host_ledger(h).vm_ids())
        values.push_back(engine.host_ledger(h).energy_j(vm));
    values.push_back(tenants.unattributed_energy_j());
    return values;
  }
};

TEST_F(FleetEngineTest, LedgersAreByteIdenticalAcrossThreadCounts) {
  FleetEngine serial(options_for(1), dataset_);
  serial.run(15);
  EXPECT_GT(serial.tenant_ledger().total_energy_j(), 0.0);
  const auto a = ledger_fingerprint(serial);

  // 8 threads is more than kHosts: idle workers must not perturb anything.
  for (const std::size_t threads : kThreadSweep) {
    FleetEngine threaded(options_for(threads), dataset_);
    threaded.run(15);
    const auto b = ledger_fingerprint(threaded);
    ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << "threads=" << threads << " fingerprint slot "
                            << i;  // exact, not NEAR.
  }
}

TEST_F(FleetEngineTest, DeterminismHoldsWithFaultInjectionEnabled) {
  FleetOptions faulty = options_for(1);
  faulty.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
  FleetEngine serial(faulty, dataset_);
  serial.run(20);
  EXPECT_GT(serial.degraded_ticks(), 0u);

  for (const std::size_t threads : kThreadSweep) {
    faulty.threads = threads;
    FleetEngine threaded(faulty, dataset_);
    threaded.run(20);

    EXPECT_EQ(ledger_fingerprint(serial), ledger_fingerprint(threaded))
        << "threads=" << threads;
    EXPECT_EQ(serial.degraded_ticks(), threaded.degraded_ticks());
    EXPECT_EQ(serial.retries(), threaded.retries());
    EXPECT_EQ(serial.stale_ticks(), threaded.stale_ticks());
  }
}

TEST_F(FleetEngineTest, DegradedHostsCarryLastGoodEstimateNeverZero) {
  FleetOptions faulty = options_for(2);
  faulty.faults = parse_fault_spec("meter:0.6,dropout:0.15");
  FleetEngine engine(faulty, dataset_);
  engine.run(30);

  EXPECT_GT(engine.degraded_ticks(), 0u);
  EXPECT_GT(engine.retries(), 0u);
  // Every host keeps billing through its blackouts: carried estimates, not
  // silent zeros.
  for (std::size_t h = 0; h < kHosts; ++h)
    EXPECT_GT(engine.host_ledger(h).total_energy_j(), 0.0) << "host " << h;

  const std::string dump = engine.metrics().to_prometheus();
  EXPECT_NE(dump.find("vmpower_fleet_degraded_ticks_total"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_fleet_meter_retries_total"),
            std::string::npos);
}

TEST_F(FleetEngineTest, EveryHostTickIsAggregatedExactlyOnce) {
  constexpr std::uint64_t kTicks = 12;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FleetOptions options = options_for(threads);
    options.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
    FleetEngine engine(options, dataset_);
    std::uint64_t observed_ticks = 0;
    engine.set_tick_observer([&](const FleetEngine&, std::uint64_t now,
                                 const std::vector<HostTickResult>& results) {
      // One slot per host, slot h holding host h's result for this tick:
      // faults degrade a host-tick, they never shed or repeat one.
      ASSERT_EQ(results.size(), kHosts) << "tick " << now;
      for (std::size_t h = 0; h < kHosts; ++h) {
        EXPECT_EQ(results[h].host, h) << "tick " << now;
        EXPECT_EQ(results[h].tick, now) << "host " << h;
      }
      ++observed_ticks;
    });
    engine.run(kTicks);

    EXPECT_EQ(observed_ticks, kTicks) << "threads=" << threads;
    EXPECT_EQ(engine.samples_processed(), kHosts * kTicks)
        << "threads=" << threads;
    EXPECT_GT(engine.degraded_ticks(), 0u) << "threads=" << threads;
  }
}

TEST_F(FleetEngineTest, CheckpointRestoreResumesExactTrajectory) {
  const std::filesystem::path path = ::testing::TempDir() + "fleet_ckpt.txt";

  FleetOptions options = options_for(2);
  options.faults = parse_fault_spec("meter:0.3,stale:0.2");
  FleetEngine original(options, dataset_);
  original.run(8);
  original.save_checkpoint(path);
  original.run(7);  // the reference: one continuous 15-tick run.

  FleetEngine resumed(options, dataset_);
  resumed.restore_checkpoint(path);
  EXPECT_EQ(resumed.tick(), 8u);
  resumed.run(7);

  EXPECT_EQ(ledger_fingerprint(original), ledger_fingerprint(resumed));
  EXPECT_EQ(original.degraded_ticks(), resumed.degraded_ticks());
  EXPECT_EQ(original.samples_processed(), resumed.samples_processed());
  std::filesystem::remove(path);
}

TEST_F(FleetEngineTest, RestoreValidation) {
  const std::filesystem::path path = ::testing::TempDir() + "fleet_bad.txt";
  FleetEngine engine(options_for(1), dataset_);
  engine.run(1);
  EXPECT_THROW(engine.restore_checkpoint(path), std::logic_error);

  FleetEngine fresh(options_for(1), dataset_);
  EXPECT_THROW(fresh.restore_checkpoint(path), std::runtime_error);

  // A checkpoint from before the header lost its drop tally is refused by
  // its magic instead of being misparsed.
  {
    std::ofstream old(path, std::ios::trunc);
    old << "vmpower-fleet-ckpt v1 hosts=4 tick=1 processed=4 degraded=0 "
           "retries=0 stale=0 drops=0\n";
  }
  try {
    fresh.restore_checkpoint(path);
    ADD_FAILURE() << "a v1 checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }

  // Host-count mismatch is rejected before any state is replayed.
  engine.save_checkpoint(path);
  FleetOptions narrow = options_for(1);
  narrow.hosts = 2;
  FleetEngine mismatched(narrow, dataset_);
  EXPECT_THROW(mismatched.restore_checkpoint(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(FleetEngineTest, CachedInstrumentsScrapeLikePerTickRegistration) {
  // The engine resolves its per-host and per-kernel instruments once; the
  // scrape must show exactly the series and values that registering them
  // by name on every host-tick gives.
  const std::vector<std::string> families = {
      "vmpower_fleet_host_estimate_error_w", "vmpower_fleet_host_degraded",
      "vmpower_fleet_table_hit_rate", "vmpower_fleet_tick_latency_seconds",
      "vmpower_fleet_estimator_latency_seconds",
      "vmpower_fleet_kernel_selected_total"};
  const auto series_of = [&](const obs::MetricsRegistry& registry) {
    std::vector<std::string> lines;
    std::istringstream dump(registry.to_prometheus());
    for (std::string line; std::getline(dump, line);)
      for (const std::string& family : families)
        if (line.find(family) != std::string::npos) {
          lines.push_back(line);
          break;
        }
    return lines;
  };

  for (const bool sampled : {false, true}) {
    FleetOptions options = options_for(3);
    options.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
    if (sampled)
      options.kernel.kernel = core::SampledKernelConfig::Kernel::kSampled;
    FleetEngine engine(options, dataset_);
    // Nothing is registered at boot: a series appears with its first value.
    EXPECT_TRUE(series_of(engine.metrics()).empty());

    obs::MetricsRegistry replay;
    engine.set_tick_observer([&](const FleetEngine&, std::uint64_t,
                                 const std::vector<HostTickResult>& results) {
      for (const HostTickResult& r : results) {
        double phi_sum = 0.0;
        for (const double p : r.phi) phi_sum += p;
        const std::string host = std::to_string(r.host);
        replay
            .gauge("vmpower_fleet_host_estimate_error_w{host=\"" + host +
                       "\"}",
                   "Absolute gap between the host's allocated and measured "
                   "power")
            .set(std::abs(phi_sum - r.adjusted_power_w));
        replay
            .gauge("vmpower_fleet_host_degraded{host=\"" + host + "\"}",
                   "1 when the host's last tick was served from a carried "
                   "estimate")
            .set(r.degraded ? 1.0 : 0.0);
        replay
            .gauge(obs::labeled("vmpower_fleet_table_hit_rate",
                                {{"host", host}}),
                   "Fraction of the host estimator's worth queries answered "
                   "from the offline v(S,C) table")
            .set(r.table_hit_rate);
        replay
            .histogram("vmpower_fleet_tick_latency_seconds",
                       "Wall time of one host metering step", 0.0, 0.05, 25)
            .observe(r.step_seconds);
        if (!r.phi.empty() && !r.degraded)
          replay
              .histogram("vmpower_fleet_estimator_latency_seconds",
                         "Wall time of the Shapley estimator call alone", 0.0,
                         0.002, 25)
              .observe(r.estimate_seconds);
        if (!r.kernel.empty())
          replay
              .counter("vmpower_fleet_kernel_selected_total{kernel=\"" +
                           std::string(r.kernel) + "\"}",
                       "Host ticks dispatched to each Shapley kernel fast "
                       "path")
              .inc();
      }
    });
    engine.run(25);
    EXPECT_GT(engine.degraded_ticks(), 0u);
    const auto scraped = series_of(engine.metrics());
    EXPECT_FALSE(scraped.empty());
    EXPECT_EQ(scraped, series_of(replay)) << "sampled=" << sampled;
  }
}

TEST_F(FleetEngineTest, RunCountersScrapeAlikeInOneRunOrMany) {
  // run() resolves its fleet-wide counters once; ticking in single-tick
  // calls or in one call must scrape the same series and values, and the
  // families appear with the first run(), before any tick.
  const std::vector<std::string> families = {
      "vmpower_fleet_ticks_total", "vmpower_fleet_samples_processed_total",
      "vmpower_fleet_meter_retries_total",
      "vmpower_fleet_degraded_ticks_total", "vmpower_fleet_stale_ticks_total",
      "vmpower_shapley_sampled_ticks_total"};
  const auto series_of = [&](const FleetEngine& engine) {
    std::vector<std::string> lines;
    std::istringstream dump(engine.metrics().to_prometheus());
    for (std::string line; std::getline(dump, line);)
      for (const std::string& family : families)
        if (line.find(family) != std::string::npos) {
          lines.push_back(line);
          break;
        }
    return lines;
  };
  FleetOptions options = options_for(2);
  options.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
  constexpr std::uint64_t kTicks = 12;

  FleetEngine stepped(options, dataset_);
  EXPECT_TRUE(series_of(stepped).empty());
  stepped.run(0);
  const auto at_zero = series_of(stepped);
  EXPECT_EQ(at_zero.size(), 3 * families.size());  // HELP, TYPE, value.
  for (std::uint64_t k = 0; k < kTicks; ++k) stepped.run(1);

  FleetEngine batched(options, dataset_);
  batched.run(kTicks);
  EXPECT_GT(batched.degraded_ticks(), 0u);
  EXPECT_EQ(series_of(stepped), series_of(batched));
  EXPECT_NE(series_of(batched), at_zero);
}

TEST_F(FleetEngineTest, OptionsValidation) {
  FleetOptions options = options_for(1);
  options.hosts = 0;
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(1);
  options.fleet_per_host.clear();
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(0);
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(1);
  options.faults.meter_failure = 2.0;
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::fleet
