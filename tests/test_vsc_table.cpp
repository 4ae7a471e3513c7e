#include "core/vsc_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::Component;
using common::StateVector;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<StateVector> one_state(double cpu) {
  return {StateVector::cpu_only(cpu)};
}

/// Reference lookup: a linear scan over every recorded (quantized) sample of
/// the combo, matching when each coordinate is within resolution/2 of the
/// quantized query, averaged in record order. Finite queries only: its
/// std::max-based distance drops NaN.
std::optional<double> scan_lookup(const VscTable& table, VhcComboMask combo,
                                  std::span<const StateVector> states) {
  const double tol = table.resolution() / 2.0;
  double sum = 0.0;
  std::size_t hits = 0;
  for (const VscSample& sample : table.samples(combo)) {
    bool match = true;
    for (std::size_t j = 0; j < states.size() && match; ++j)
      match = sample.vhc_states[j].max_abs_diff(
                  states[j].quantized(table.resolution())) <= tol;
    if (match) {
      sum += sample.power_w;
      ++hits;
    }
  }
  if (hits == 0) return std::nullopt;
  return sum / static_cast<double>(hits);
}

TEST(VscTable, ConstructionValidation) {
  EXPECT_THROW(VscTable(0), std::invalid_argument);
  EXPECT_THROW(VscTable(VhcUniverse::kMaxVhcs + 1), std::invalid_argument);
  EXPECT_THROW(VscTable(2, 0.0), std::invalid_argument);
  const VscTable table(2, 0.05);
  EXPECT_EQ(table.num_vhcs(), 2u);
  EXPECT_DOUBLE_EQ(table.resolution(), 0.05);
}

TEST(VscTable, RecordAndLookupExactState) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.50), 6.5);
  EXPECT_EQ(table.total_samples(), 1u);
  const auto hit = table.lookup(0b1, one_state(0.50));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 6.5);
}

TEST(VscTable, QuantizationMergesNearbyStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.502), 6.0);   // quantizes to 0.50
  table.record(0b1, one_state(0.498), 8.0);   // quantizes to 0.50
  const auto hit = table.lookup(0b1, one_state(0.5004));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 7.0);  // mean of the matching samples
}

TEST(VscTable, UnobservedStateReturnsNothing) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.50), 6.5);
  EXPECT_FALSE(table.lookup(0b1, one_state(0.80)).has_value());
  EXPECT_FALSE(table.lookup(0b1, one_state(0.52)).has_value());
}

TEST(VscTable, CombosAreIndependent) {
  VscTable table(2, 0.01);
  table.record(0b01, std::vector<StateVector>{StateVector::cpu_only(0.5), StateVector::zero()}, 5.0);
  table.record(0b10, std::vector<StateVector>{StateVector::zero(), StateVector::cpu_only(0.5)}, 9.0);
  EXPECT_FALSE(
      table.lookup(0b01, std::vector<StateVector>{StateVector::zero(), StateVector::cpu_only(0.5)})
          .has_value());
  EXPECT_EQ(table.samples(0b01).size(), 1u);
  EXPECT_EQ(table.samples(0b10).size(), 1u);
  EXPECT_TRUE(table.samples(0b11).empty());
  EXPECT_EQ(table.combos().size(), 2u);
}

TEST(VscTable, RecordValidation) {
  VscTable table(1, 0.01);
  EXPECT_THROW(table.record(0b1, {}, 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b10, one_state(0.5), 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(0.5), -1.0), std::invalid_argument);
}

TEST(VscTable, LookupValidation) {
  const VscTable table(1, 0.01);
  EXPECT_THROW((void)table.lookup(0b1, {}), std::invalid_argument);
  EXPECT_THROW((void)table.lookup(0b10, one_state(0.5)), std::invalid_argument);
}

TEST(VscTable, SamplesStoreQuantizedStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.1234), 3.0);
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].vhc_states[0].cpu(), 0.12, 1e-12);
  EXPECT_EQ(samples[0].combo, 0b1u);
}

TEST(VscTable, AggregatedStatesBeyondOneAccepted) {
  // VHC states are sums over VMs and routinely exceed 1.0.
  VscTable table(1, 0.01);
  table.record(0b1, one_state(3.47), 45.0);
  const auto hit = table.lookup(0b1, one_state(3.47));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 45.0);
}

TEST(VscTable, NonFiniteQueryCoordinateMisses) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.20), 10.0);
  table.record(0b1, one_state(0.90), 50.0);
  // A distance built with std::max drops NaN and would "hit" every sample
  // of the combo (mean 30 W).
  EXPECT_FALSE(table.lookup(0b1, one_state(kNaN)).has_value());
  EXPECT_FALSE(table.lookup(0b1, one_state(kInf)).has_value());
  EXPECT_FALSE(table.lookup(0b1, one_state(-kInf)).has_value());
  StateVector nan_memory = StateVector::cpu_only(0.20);
  nan_memory[Component::kMemory] = kNaN;
  EXPECT_FALSE(table.lookup(0b1, {{nan_memory}}).has_value());
  // Finite but off the int32 grid (1e9 / 0.01 = 1e11): a miss, not UB.
  EXPECT_FALSE(table.lookup(0b1, one_state(1e9)).has_value());
  EXPECT_FALSE(table.lookup(0b1, one_state(-1e9)).has_value());
  EXPECT_DOUBLE_EQ(*table.lookup(0b1, one_state(0.20)), 10.0);
}

TEST(VscTable, RecordRejectsNonFiniteInput) {
  VscTable table(1, 0.01);
  EXPECT_THROW(table.record(0b1, one_state(0.5), kNaN), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(0.5), kInf), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(0.5), -kInf),
               std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(kNaN), 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(kInf), 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(1e9), 5.0), std::invalid_argument);
  StateVector nan_disk = StateVector::cpu_only(0.5);
  nan_disk[Component::kDiskIo] = kNaN;
  EXPECT_THROW(table.record(0b1, {{nan_disk}}, 5.0), std::invalid_argument);
  // Nothing was stored, so no cell's mean was poisoned.
  EXPECT_EQ(table.total_samples(), 0u);
  EXPECT_TRUE(table.samples(0b1).empty());
  table.record(0b1, one_state(0.5), 5.0);
  EXPECT_DOUBLE_EQ(*table.lookup(0b1, one_state(0.5)), 5.0);
}

TEST(VscTable, IndexedLookupMatchesLinearScanBitForBit) {
  util::Rng rng(91);
  std::size_t hits = 0, misses = 0, absent = 0;
  for (const double resolution : {0.01, 0.05, 0.25}) {
    constexpr std::size_t kVhcs = 3;
    // Cells on a random grid, some coordinates far above 1 (aggregated
    // states); combo 0b101 is never recorded.
    struct Planted {
      VhcComboMask combo;
      std::vector<StateVector> center;
    };
    std::vector<Planted> cells;
    for (int c = 0; c < 40; ++c) {
      Planted cell{static_cast<VhcComboMask>(rng.uniform_int(1, 7)), {}};
      if (cell.combo == 0b101) cell.combo = 0b111;
      cell.center.resize(kVhcs);
      for (std::size_t j = 0; j < kVhcs; ++j) {
        if (((cell.combo >> j) & 1u) == 0) continue;
        for (const Component comp : {Component::kCpu, Component::kMemory})
          cell.center[j][comp] =
              static_cast<double>(rng.uniform_int(0, 400)) * resolution;
      }
      cells.push_back(std::move(cell));
    }
    // 1–5 samples per cell, jittered inside the cell, recorded in a
    // shuffled order so the cells interleave.
    std::vector<std::pair<std::size_t, std::vector<StateVector>>> records;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto copies = rng.uniform_int(1, 5);
      for (std::int64_t k = 0; k < copies; ++k) {
        auto states = cells[c].center;
        for (std::size_t j = 0; j < kVhcs; ++j)
          if (states[j][Component::kCpu] != 0.0)
            states[j][Component::kCpu] +=
                rng.uniform(-0.45, 0.45) * resolution;
        records.emplace_back(c, std::move(states));
      }
    }
    rng.shuffle(records);
    VscTable table(kVhcs, resolution);
    for (const auto& [c, states] : records)
      table.record(cells[c].combo, states, rng.uniform(0.0, 120.0));

    const auto check = [&](VhcComboMask combo,
                           const std::vector<StateVector>& query) {
      const auto indexed = table.lookup(combo, query);
      const auto scanned = scan_lookup(table, combo, query);
      ASSERT_EQ(indexed.has_value(), scanned.has_value())
          << "resolution " << resolution << " combo " << combo;
      if (indexed) {
        EXPECT_EQ(*indexed, *scanned);  // bit-identical mean.
        ++hits;
      } else {
        ++misses;
      }
      if (table.samples(combo).empty()) ++absent;
    };
    for (const Planted& cell : cells) {
      check(cell.combo, cell.center);
      check(0b101, cell.center);
      // Just inside and just outside each half-resolution boundary, on one
      // coordinate at a time.
      for (std::size_t j = 0; j < kVhcs; ++j) {
        if (((cell.combo >> j) & 1u) == 0) continue;
        for (const double side : {-0.5, 0.5}) {
          const double edge =
              cell.center[j][Component::kCpu] + side * resolution;
          for (const double toward : {-kInf, kInf}) {
            auto query = cell.center;
            query[j][Component::kCpu] = std::nextafter(edge, toward);
            check(cell.combo, query);
            query[j][Component::kCpu] = edge;
            check(cell.combo, query);
          }
        }
      }
      // -0.0 in every zero coordinate is the same cell as +0.0.
      auto negative_zero = cell.center;
      for (auto& state : negative_zero)
        for (const Component comp : {Component::kCpu, Component::kMemory,
                                     Component::kDiskIo, Component::kNetIo})
          if (state[comp] == 0.0) state[comp] = -0.0;
      check(cell.combo, negative_zero);
    }
    for (int q = 0; q < 200; ++q) {
      std::vector<StateVector> query(kVhcs);
      for (auto& state : query)
        state[Component::kCpu] = rng.uniform(-0.1, 4.0);
      check(static_cast<VhcComboMask>(rng.uniform_int(1, 7)), query);
    }
  }
  // Every branch was exercised: hits, misses on recorded combos, and
  // probes of a never-recorded combo.
  EXPECT_GT(hits, 100u);
  EXPECT_GT(misses - absent, 100u);
  EXPECT_GT(absent, 100u);
}

TEST(VscTable, MissFilterAgreesWithLinearScan) {
  // The per-coordinate miss filter may only reject probes the hash probe
  // would miss: every answer must equal the restated linear scan.
  util::Rng rng(1807);
  constexpr Component kComponents[] = {Component::kCpu, Component::kMemory,
                                       Component::kDiskIo, Component::kNetIo};
  std::size_t hits = 0, misses = 0, non_finite = 0;
  for (const double resolution : {0.01, 0.05, 0.25}) {
    for (std::size_t num_vhcs = 1; num_vhcs <= 4; ++num_vhcs) {
      const auto full = static_cast<VhcComboMask>((1u << num_vhcs) - 1);
      // With two or more VHCs the grand combo is never recorded.
      const VhcComboMask unrecorded = num_vhcs >= 2 ? full : 0;
      struct Planted {
        VhcComboMask combo;
        std::vector<StateVector> center;
      };
      std::vector<Planted> cells;
      for (int c = 0; c < 30; ++c) {
        Planted cell{static_cast<VhcComboMask>(rng.uniform_int(1, full)), {}};
        if (cell.combo == unrecorded) cell.combo = 1;
        cell.center.resize(num_vhcs);
        for (std::size_t j = 0; j < num_vhcs; ++j) {
          if (((cell.combo >> j) & 1u) == 0) continue;
          for (const Component comp : kComponents)  // negatives included
            cell.center[j][comp] =
                static_cast<double>(rng.uniform_int(-300, 300)) * resolution;
        }
        cells.push_back(std::move(cell));
      }
      std::vector<std::pair<VhcComboMask, std::vector<StateVector>>> records;
      for (const Planted& cell : cells)
        for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
          auto states = cell.center;
          for (auto& state : states)
            for (const Component comp : kComponents)
              if (state[comp] != 0.0)
                state[comp] += rng.uniform(-0.45, 0.45) * resolution;
          records.emplace_back(cell.combo, std::move(states));
        }
      // An outlier 1e7 grid steps out on one coordinate: that coordinate's
      // span is too wide for a bitset, so it keeps no filter.
      Planted outlier = cells.front();
      const std::size_t far_vhc =
          static_cast<std::size_t>(std::countr_zero(outlier.combo));
      outlier.center[far_vhc][Component::kCpu] += 1e7 * resolution;
      records.emplace_back(outlier.combo, outlier.center);
      cells.push_back(outlier);
      rng.shuffle(records);
      VscTable table(num_vhcs, resolution);
      for (const auto& [combo, states] : records)
        table.record(combo, states, rng.uniform(0.0, 120.0));

      const auto check = [&](VhcComboMask combo,
                             const std::vector<StateVector>& query) {
        const auto expected = scan_lookup(table, combo, query);
        EXPECT_EQ(table.lookup(combo, query), expected)
            << "resolution " << resolution << " vhcs " << num_vhcs
            << " combo " << combo;
        ++(expected ? hits : misses);
      };
      for (const Planted& cell : cells) {
        check(cell.combo, cell.center);
        check(unrecorded, cell.center);
        // -0.0 in every zero coordinate is the same cell as +0.0.
        auto negative_zero = cell.center;
        for (auto& state : negative_zero)
          for (const Component comp : kComponents)
            if (state[comp] == 0.0) state[comp] = -0.0;
        check(cell.combo, negative_zero);
        // Every coordinate but the last matches the cell.
        for (const double step : {-1.0, 1.0, 7.0}) {
          auto last_off = cell.center;
          last_off.back()[Component::kNetIo] += step * resolution;
          check(cell.combo, last_off);
        }
        // Each coordinate taken from some cell of the combo, so every one
        // passes its filter, but the mix was never recorded.
        for (const Planted& other : cells) {
          if (other.combo != cell.combo) continue;
          auto mixed = cell.center;
          mixed.back() = other.center.back();
          mixed.front()[Component::kCpu] = other.center.front()[Component::kCpu];
          check(cell.combo, mixed);
        }
        // Non-finite in one coordinate: always a miss.
        for (const double bad : {kNaN, kInf, -kInf}) {
          auto query = cell.center;
          query[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(num_vhcs) - 1))]
               [kComponents[rng.uniform_int(0, 3)]] = bad;
          EXPECT_EQ(table.lookup(cell.combo, query), std::nullopt);
          ++non_finite;
        }
      }
      for (int q = 0; q < 100; ++q) {
        std::vector<StateVector> query(num_vhcs);
        for (auto& state : query)
          state[Component::kCpu] = rng.uniform(-3.0, 3.0);
        check(static_cast<VhcComboMask>(rng.uniform_int(1, full)), query);
      }
    }
  }
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 1000u);
  EXPECT_GT(non_finite, 1000u);
}

}  // namespace
}  // namespace vmp::core
