// The system under test, assembled from the repository's public API: S
// shards, each a FleetEngine whose tick observer publishes into a
// SnapshotStore with a Ledger attached and a serve::Server in front, under
// one FederationFrontend with its own serve::Server. One driver thread
// ticks every shard's engine in turn, so a federated answer at round k sees
// every shard at k.
//
// Everything the benchmark times here is timed from outside: the wall of
// FleetEngine::run(1), the wall of SnapshotStore::publish_tick inside the
// observer, and the durations HostTickResult already carries.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "federate/frontend.hpp"
#include "fleet/engine.hpp"
#include "ledger/ledger.hpp"
#include "obs/invariants.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "spans.hpp"

namespace pipebench {

using namespace vmp;  // serve::, fleet::, core:: ... name the program's modules.

/// One named workload: pipeline shape plus the query mix offered to it.
struct Workload {
  std::string name;
  std::string why;
  std::size_t shards = 2;
  std::size_t hosts = 4;
  std::size_t threads = 4;
  std::size_t tenants = 2;
  std::vector<std::string> vm_types;  ///< per host, e.g. {"VM1", "VM2"}.
  double collect_s = 20.0;  ///< offline campaign per VHC combination.
  std::size_t warmup_ticks = 0;   ///< rounds ticked during set-up.
  std::size_t retention = 512;    ///< snapshot ring per shard.
  std::uint64_t segment_records = 4096;  ///< ledger rotation threshold.
  double tick_hz = 0.0;           ///< 0 = closed loop.
  /// Peak RSS is read after this many timed rounds, and a timed phase
  /// never ends before them, so the figure does not follow tick speed.
  std::uint64_t rss_rounds = 3000;
  double query_hz = 100.0;        ///< open-loop offered rate.
  /// Query class weights: instant, hot window, cold window, TOU cost.
  std::array<double, 4> mix{1.0, 0.0, 0.0, 0.0};
  double repeat_share = 0.0;  ///< share of queries re-sending a recent key.
};

/// What the observer saw for one shard's FleetEngine::run(1).
struct ShardTick {
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
  std::int64_t observe_start_ns = 0;
  std::int64_t observe_end_ns = 0;
  std::int64_t publish_start_ns = 0;
  std::int64_t publish_end_ns = 0;
  double step_sum_s = 0.0;      ///< Σ HostTickResult::step_seconds.
  double step_max_s = 0.0;
  double estimate_sum_s = 0.0;  ///< Σ HostTickResult::estimate_seconds.
  std::size_t host_ticks = 0;
};

/// Per-layer tallies gathered from HostTickResult and the call walls.
struct LayerTally {
  std::vector<double> estimate_ms;  ///< per host-tick.
  std::vector<double> sim_ms;       ///< step − estimate, per host-tick.
  std::vector<double> fleet_tick_ms;  ///< run(1) wall − observer wall.
  std::vector<double> publish_ms;
  std::uint64_t kernel_collapsed = 0;
  std::uint64_t kernel_sweep = 0;
  std::uint64_t kernel_sampled = 0;
  std::uint64_t kernel_other = 0;
  double table_hit_rate_sum = 0.0;
  std::uint64_t table_hit_rate_n = 0;
  double step_seconds = 0.0;         ///< Σ step over all host-ticks.
  double engine_busy_wall_s = 0.0;   ///< Σ (run wall − observer wall).
};

class Shard;

class Pipeline {
 public:
  /// Boots every shard (engine, store, ledger under `run_dir`, query engine,
  /// server) and the federation frontend with its server. `threads`
  /// overrides the workload's engine thread count when non-zero.
  Pipeline(const Workload& workload, const core::OfflineDataset& dataset,
           std::uint64_t seed, const std::filesystem::path& run_dir,
           std::size_t threads = 0);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Ticks every shard once, in fleet order. When `log` is armed the round,
  /// each run(1), its observer, the publish and the host-step phase are
  /// recorded as spans with `round` as id. Returns when the last shard's
  /// publish_tick has returned (the round's snapshot is queryable).
  void tick_round(std::uint64_t round, SpanLog* log = nullptr);

  /// Rounds completed (= every shard's latest snapshot tick).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t host_ticks_per_round() const noexcept;
  [[nodiscard]] std::size_t engine_threads() const noexcept {
    return threads_;
  }

  [[nodiscard]] std::uint16_t frontend_port() const noexcept;
  [[nodiscard]] std::uint16_t shard_port(std::size_t shard) const;
  [[nodiscard]] federate::FederationFrontend& frontend() noexcept {
    return *frontend_;
  }
  [[nodiscard]] const serve::SnapshotStore& store(std::size_t shard) const;
  /// The shard's cache-fronted engine behind its server.
  [[nodiscard]] serve::QueryEngine& queries(std::size_t shard);
  /// A second engine over the same store with the cache off, so in-process
  /// timings and gates always evaluate.
  [[nodiscard]] serve::QueryEngine& uncached(std::size_t shard);
  [[nodiscard]] ledger::Ledger& ledger(std::size_t shard);

  /// Servers, shard servers first and the frontend's last.
  [[nodiscard]] std::vector<const serve::Server*> servers() const;

  /// Collects per-layer tallies while set (off by default).
  void set_tally(LayerTally* tally) noexcept;
  /// Fresh host-ticks whose Σφ missed the measured adjusted power.
  [[nodiscard]] std::uint64_t efficiency_violations() const noexcept;
  [[nodiscard]] std::uint64_t fresh_host_ticks() const noexcept;

  /// FNV-1a digest of every shard's serialized tenant and host ledgers —
  /// the byte-identity contract across engine thread counts.
  [[nodiscard]] std::uint64_t ledger_digest() const;

  /// Stops every server (frontend first); the stores stay readable.
  void stop_servers();

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  fleet::Metrics frontend_metrics_;
  std::unique_ptr<obs::InvariantMonitor> frontend_monitor_;
  std::unique_ptr<federate::FederationFrontend> frontend_;
  std::unique_ptr<serve::Server> frontend_server_;
  LayerTally* tally_ = nullptr;
  std::size_t threads_ = 0;
  std::uint64_t rounds_ = 0;
};

/// Offline dataset for a workload's per-host fleet.
[[nodiscard]] core::OfflineDataset collect_dataset(const Workload& workload,
                                                   std::uint64_t seed);

/// Engines alone (store attached, no ledger or servers), ticked closed-loop
/// for `seconds`; returns host-ticks per second. Used for the 1-thread
/// speed-up comparison.
[[nodiscard]] double engine_only_rate(const Workload& workload,
                                      const core::OfflineDataset& dataset,
                                      std::uint64_t seed, std::size_t threads,
                                      double seconds);

}  // namespace pipebench
