// Correctness gates checked at the end of every run. A run that violates
// any of them reports "correct": false.
//
//   efficiency                Σφ equals the measured adjusted power on every
//                             fresh host-tick (checked in the tick observer).
//   query_transport           the generator's connection and every probe held.
//   queries_answered          every query the generator scheduled, at the
//                             workload's offered rate, got an ok, complete
//                             answer: no failure, shed, timeout or partial.
//   federated_sum             at a quiescent epoch, the federated tenant
//                             energy equals Σ of the shards' direct answers.
//   cold_equals_hot           a window answered while hot is re-asked after
//                             the ring evicted it; the ledger's answer is
//                             byte-identical.
//   admitted_equals_answered  exactly-once accounting on every server.
//   ledger_verify             ledger::verify_dir is clean on every shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "pipeline.hpp"

namespace pipebench {

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// A window answered while hot, kept to be re-asked once it went cold.
struct HotCapture {
  serve::Request request;
  std::vector<std::string> shard_answers;  ///< uncached engine, per shard.
  std::string federated_answer;
};

/// Answers a tenant-energy window ending two rounds back, per shard on the
/// uncached engine and through the frontend, and keeps the encoded answers.
[[nodiscard]] HotCapture capture_hot(Pipeline& pipe, const Entities& entities);

/// Runs every gate; call once ticking and the generator have stopped.
[[nodiscard]] std::vector<Gate> run_gates(Pipeline& pipe,
                                          const Entities& entities,
                                          const HotCapture& capture,
                                          const LoadGen& gen,
                                          std::uint64_t probe_failures);

}  // namespace pipebench
