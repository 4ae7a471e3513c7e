#include "gates.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "ledger/ledger.hpp"
#include "serve/client.hpp"

namespace pipebench {

HotCapture capture_hot(Pipeline& pipe, const Entities& entities) {
  HotCapture capture;
  const auto now = static_cast<double>(pipe.rounds());
  capture.request.kind = serve::QueryKind::kTenantEnergy;
  capture.request.tenant = entities.tenants.front();
  capture.request.t0 = now - 8.0;
  capture.request.t1 = now - 2.0;
  for (std::size_t i = 0; i < pipe.shard_count(); ++i)
    capture.shard_answers.push_back(
        serve::encode_response(pipe.uncached(i).execute(capture.request)));
  capture.federated_answer =
      serve::encode_response(pipe.frontend().execute(capture.request));
  return capture;
}

std::vector<Gate> run_gates(Pipeline& pipe, const Entities& entities,
                            const HotCapture& capture, const LoadGen& gen,
                            std::uint64_t probe_failures) {
  std::vector<Gate> gates;
  {
    const std::uint64_t fresh = pipe.fresh_host_ticks();
    const std::uint64_t bad = pipe.efficiency_violations();
    gates.push_back({"efficiency", fresh > 0 && bad == 0,
                     std::to_string(bad) + " of " + std::to_string(fresh) +
                         " fresh host-ticks with sum(phi) != measured"});
  }
  gates.push_back({"query_transport", gen.failure().empty() &&
                                          probe_failures == 0,
                   gen.failure().empty()
                       ? std::to_string(probe_failures) + " probe failures"
                       : gen.failure()});
  {
    std::uint64_t attempted = 0, unanswered = 0;
    for (const QueryRecord& record : gen.records()) {
      ++attempted;
      if (!record.ok) ++unanswered;
    }
    gates.push_back({"queries_answered", attempted > 0 && unanswered == 0,
                     std::to_string(unanswered) + " of " +
                         std::to_string(attempted) +
                         " queries failed, shed, timed out or partial"});
  }
  {
    // Federated tenant energy == Σ of the shards' direct answers, at a
    // quiescent epoch, summed in fleet order as the roll-up does.
    bool pass = true;
    std::string detail;
    serve::Client client(pipe.frontend_port());
    const auto now = static_cast<double>(pipe.rounds());
    for (const std::uint32_t tenant : entities.tenants) {
      serve::Request request;
      request.kind = serve::QueryKind::kTenantEnergy;
      request.tenant = tenant;
      request.t0 = std::floor(now / 2.0);
      request.t1 = now;
      const serve::Response federated = client.query(request);
      double sum = 0.0;
      bool shards_ok = true;
      for (std::size_t i = 0; i < pipe.shard_count(); ++i) {
        const serve::Response direct = pipe.queries(i).execute(request);
        shards_ok = shards_ok && direct.ok && direct.values.size() == 1;
        if (direct.ok && !direct.values.empty()) sum += direct.values[0];
      }
      const bool equal = federated.ok && federated.complete && shards_ok &&
                         federated.values.size() == 1 &&
                         federated.values[0] == sum;
      if (!equal) {
        pass = false;
        char line[160];
        std::snprintf(line, sizeof line, "tenant %u: federated %.17g vs sum %.17g; ",
                      tenant, federated.values.empty() ? std::numeric_limits<double>::infinity() : federated.values[0], sum);
        detail += line;
      }
    }
    gates.push_back({"federated_sum", pass,
                     pass ? std::to_string(entities.tenants.size()) +
                                " tenants equal"
                          : detail});
  }
  {
    bool evicted = true;
    bool identical = true;
    for (std::size_t i = 0; i < pipe.shard_count(); ++i) {
      const auto oldest = pipe.store(i).oldest();
      evicted = evicted && oldest && oldest->time_s > capture.request.t0;
      identical = identical &&
                  serve::encode_response(pipe.uncached(i).execute(
                      capture.request)) == capture.shard_answers[i];
    }
    identical = identical &&
                serve::encode_response(pipe.frontend().execute(
                    capture.request)) == capture.federated_answer;
    gates.push_back({"cold_equals_hot", evicted && identical,
                     !evicted ? "window still in the ring: run too short"
                     : identical ? "byte-identical after eviction"
                                 : "cold answer differs from the hot one"});
  }
  {
    // Exactly-once accounting on every server, once nothing is in flight.
    const std::int64_t deadline = now_ns() + 2'000'000'000;
    const auto servers = pipe.servers();
    const auto busy = [&] {
      for (const serve::Server* server : servers)
        if (server->outstanding() != 0) return true;
      return false;
    };
    while (busy() && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    bool pass = true;
    std::string detail;
    for (const serve::Server* server : servers) {
      pass = pass && server->admitted() == server->answered();
      detail += std::to_string(server->admitted()) + "/" +
                std::to_string(server->answered()) + " ";
    }
    gates.push_back({"admitted_equals_answered", pass, detail});
  }
  {
    bool pass = true;
    std::string detail;
    for (std::size_t i = 0; i < pipe.shard_count(); ++i) {
      pipe.ledger(i).wait_for_compaction();
      const ledger::VerifyReport report = ledger::verify_dir(pipe.ledger(i).dir());
      pass = pass && report.clean() && report.records > 0;
      detail += std::to_string(report.records) + " records/" +
                std::to_string(report.segments) + " segments ";
    }
    gates.push_back({"ledger_verify", pass, detail});
  }
  return gates;
}

}  // namespace pipebench
