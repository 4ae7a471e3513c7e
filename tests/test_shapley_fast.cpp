#include "core/shapley_fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/vhc.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::Component;
using common::StateVector;

// --- symmetry detection ------------------------------------------------------

TEST(DetectSymmetry, GroupsByKeyAndExactState) {
  const std::vector<std::size_t> keys = {0, 0, 1, 0, 1};
  const std::vector<StateVector> states = {
      StateVector::cpu_only(0.5), StateVector::cpu_only(0.5),
      StateVector::cpu_only(0.5), StateVector::cpu_only(0.25),
      StateVector::cpu_only(0.5)};
  const SymmetryGroups groups = detect_symmetry(keys, states);
  // {0,1} share key 0 + state; {2,4} share key 1 + state; {3} differs by
  // state despite key 0.
  ASSERT_EQ(groups.group_count(), 3u);
  EXPECT_EQ(groups.group_of[0], groups.group_of[1]);
  EXPECT_EQ(groups.group_of[2], groups.group_of[4]);
  EXPECT_NE(groups.group_of[0], groups.group_of[3]);
  EXPECT_NE(groups.group_of[0], groups.group_of[2]);
  EXPECT_EQ(groups.composition_count(), 3u * 3u * 2u);
  EXPECT_FALSE(groups.all_distinct());
  EXPECT_THROW(
      detect_symmetry(std::vector<std::size_t>{0},
                      std::vector<StateVector>{}),
      std::invalid_argument);
}

// --- ComboWeightCache --------------------------------------------------------

/// Trains a 3-VHC approximation on an exact linear law, leaving the grand
/// combo {0,1,2} unfitted so predict() must use its disjoint-cover fallback.
VhcLinearApprox partial_three_vhc_approx(util::Rng& rng) {
  VscTable table(3, 0.01);
  const double w[3] = {8.0, 5.0, 3.0};  // CPU weight per VHC.
  for (VhcComboMask combo = 1; combo < 8; ++combo) {
    if (combo == 0b111) continue;  // grand combo never measured.
    for (int s = 0; s < 150; ++s) {
      std::vector<StateVector> states(3);
      double power = 0.0;
      for (std::size_t j = 0; j < 3; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += w[j] * cpu;
      }
      table.record(combo, states, power);
    }
  }
  return VhcLinearApprox::fit(table);
}

TEST(ComboWeightCache, MatchesPredictForFittedAndCoveredCombos) {
  util::Rng rng(3);
  const VhcLinearApprox approx = partial_three_vhc_approx(rng);
  ComboWeightCache cache;
  cache.bind(&approx);

  for (int s = 0; s < 20; ++s) {
    std::vector<StateVector> states(3);
    for (auto& state : states) {
      state[Component::kCpu] = rng.uniform(0.0, 2.0);
      state[Component::kMemory] = rng.uniform(0.0, 1.0);
    }
    for (VhcComboMask combo = 1; combo < 8; ++combo) {
      // Zero out states outside the combo, as the estimator does.
      std::vector<StateVector> masked(3);
      for (std::size_t j = 0; j < 3; ++j)
        if ((combo >> j) & 1u) masked[j] = states[j];
      // 0b111 is unfitted: both sides must agree on the cover fallback too.
      EXPECT_NEAR(cache.predict(combo, masked), approx.predict(combo, masked),
                  1e-9)
          << "combo " << combo;
    }
  }
}

TEST(ComboWeightCache, UncoverableComboThrowsLikePredict) {
  // Only combo {0} fitted: {1} has no cover.
  VscTable table(2, 0.01);
  util::Rng rng(5);
  for (int s = 0; s < 100; ++s) {
    const double cpu = rng.uniform(0.0, 2.0);
    table.record(0b01, {{StateVector::cpu_only(cpu), StateVector::zero()}},
                 4.0 * cpu);
  }
  const VhcLinearApprox approx = VhcLinearApprox::fit(table);
  ComboWeightCache cache;
  cache.bind(&approx);
  EXPECT_THROW((void)cache.effective_weights(0b10), std::out_of_range);
  EXPECT_THROW((void)cache.effective_weights(0b10), std::out_of_range);  // memoized.
  ComboWeightCache unbound;
  EXPECT_THROW((void)unbound.effective_weights(1), std::logic_error);
}

// --- ShapleyVhcEstimator kernel equivalence ---------------------------------

/// Trains an approximation with every combo of an r-VHC universe fitted on a
/// random linear law, plus the table itself for lookup-first tests.
struct TrainedPipeline {
  VscTable table;
  VhcLinearApprox approx;
};

TrainedPipeline full_pipeline(std::size_t r, util::Rng& rng) {
  VscTable table(r, 0.01);
  std::vector<double> w(r);
  for (auto& x : w) x = rng.uniform(2.0, 12.0);
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
    for (int s = 0; s < 150; ++s) {
      std::vector<StateVector> states(r);
      double power = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += w[j] * cpu;
      }
      table.record(combo, states, power);
    }
  }
  VhcLinearApprox approx = VhcLinearApprox::fit(table);
  return {std::move(table), std::move(approx)};
}

/// The pre-kernel estimator semantics, restated with public APIs: anchored
/// grand, idle filtering, table-lookup-first, approximation fallback.
std::vector<double> reference_estimate(const VhcUniverse& universe,
                                       const VhcLinearApprox& approx,
                                       const VscTable* table, bool anchor,
                                       std::span<const VmSample> vms,
                                       double adjusted_power_w) {
  std::vector<common::VmTypeId> types;
  for (const VmSample& vm : vms) types.push_back(vm.type);
  const VhcPartition partition(universe, types);
  std::vector<StateVector> states;
  for (const VmSample& vm : vms) states.push_back(vm.state);
  const Coalition grand = Coalition::grand(vms.size());

  return nondet_shapley_values(
      states, [&](Coalition s, std::span<const StateVector> c) {
        if (s.is_empty()) return 0.0;
        if (anchor && s == grand) return adjusted_power_w;
        Coalition active = s;
        for (Player i : s.members())
          if (c[i] == StateVector::zero()) active = active.without(i);
        if (active.is_empty()) return 0.0;
        const auto aggregated = partition.aggregate(active, c);
        const VhcComboMask combo = partition.combo_of(active);
        if (table != nullptr)
          if (const auto hit = table->lookup(combo, aggregated)) return *hit;
        return approx.predict(combo, aggregated);
      });
}

std::vector<VmSample> mixed_fleet(util::Rng& rng, std::size_t n,
                                  std::size_t n_types, bool duplicate_states) {
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < n; ++i) {
    VmSample vm;
    vm.vm_id = static_cast<std::uint32_t>(i);
    vm.type = static_cast<common::VmTypeId>(i % n_types);
    if (duplicate_states) {
      // Two distinct state values per type: guarantees symmetric pairs.
      vm.state = StateVector::cpu_only(0.25 + 0.5 * ((i / n_types) % 2));
    } else {
      vm.state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
    }
    vms.push_back(vm);
  }
  return vms;
}

TEST(ShapleyVhcEstimatorFast, CollapsedPathMatchesReference) {
  util::Rng rng(21);
  const auto pipeline = full_pipeline(3, rng);
  const VhcUniverse universe({0, 1, 2});
  for (const bool anchor : {true, false}) {
    ShapleyVhcEstimator estimator(universe, pipeline.approx, anchor);
    for (int round = 0; round < 3; ++round) {
      const auto vms = mixed_fleet(rng, 9, 3, /*duplicate_states=*/true);
      const double adjusted = 40.0 + 5.0 * round;
      const auto fast = estimator.estimate(vms, adjusted);
      const auto reference = reference_estimate(
          universe, pipeline.approx, nullptr, anchor, vms, adjusted);
      for (std::size_t i = 0; i < vms.size(); ++i)
        EXPECT_NEAR(fast[i], reference[i], 1e-9)
            << "anchor=" << anchor << " round=" << round << " vm " << i;
    }
    // mixed_fleet(9, 3, duplicate_states) yields 6 symmetry groups of sizes
    // {2,2,2,1,1,1}: 3^3 * 2^3 = 216 compositions per round instead of
    // 2^9 = 512 masks. Three rounds stay within 3 * 216 worth queries.
    EXPECT_LE(estimator.worth_queries(), 3u * 216u);
    EXPECT_LT(estimator.worth_queries(), 3u * 512u);
  }
}

TEST(ShapleyVhcEstimatorFast, SweepPathMatchesReferenceForDistinctStates) {
  util::Rng rng(22);
  const auto pipeline = full_pipeline(3, rng);
  const VhcUniverse universe({0, 1, 2});
  for (const bool anchor : {true, false}) {
    ShapleyVhcEstimator estimator(universe, pipeline.approx, anchor);
    const auto vms = mixed_fleet(rng, 8, 3, /*duplicate_states=*/false);
    const double adjusted = 55.0;
    const auto fast = estimator.estimate(vms, adjusted);
    const auto reference = reference_estimate(universe, pipeline.approx,
                                              nullptr, anchor, vms, adjusted);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(fast[i], reference[i], 1e-9) << "anchor=" << anchor;
  }
}

TEST(ShapleyVhcEstimatorFast, TableLookupPathMatchesReference) {
  util::Rng rng(23);
  const auto pipeline = full_pipeline(2, rng);
  const VhcUniverse universe({0, 1});
  ShapleyVhcEstimator fast_estimator(universe, pipeline.approx, pipeline.table);
  // States on exact quantization multiples, so both paths land in the same
  // table cells; repeated estimates re-probe the same cells.
  std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(0.25)},
                               {1, 0, StateVector::cpu_only(0.75)},
                               {2, 1, StateVector::cpu_only(0.5)},
                               {3, 1, StateVector::cpu_only(0.5)}};
  for (int round = 0; round < 3; ++round) {
    const double adjusted = 30.0 + round;
    const auto fast = fast_estimator.estimate(vms, adjusted);
    const auto reference = reference_estimate(
        universe, pipeline.approx, &pipeline.table, true, vms, adjusted);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(fast[i], reference[i], 1e-9) << "round " << round;
  }
  EXPECT_GT(fast_estimator.table_hit_rate(), 0.0);
}

TEST(ShapleyVhcEstimatorFast, CompositionMemoReplaysTablePathExactly) {
  util::Rng rng(27);
  const auto pipeline = full_pipeline(2, rng);
  // Plant one guaranteed table cell — the composition holding exactly one
  // 0.25-cpu VM of type 0 — so the repeated tick provably re-probes hits,
  // not only misses.
  VscTable table = pipeline.table;
  table.record(0b01, {{StateVector::cpu_only(0.25), StateVector::zero()}},
               6.5);
  const VhcUniverse universe({0, 1});
  ShapleyVhcEstimator estimator(universe, pipeline.approx, table);

  // Dyadic states on quantization multiples: the collapsed kernel's k·s
  // group aggregation and the reference's member-by-member sum are both
  // exact, so 1e-12 measures accumulation order, not input rounding.
  std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(0.25)},
                               {1, 0, StateVector::cpu_only(0.25)},
                               {2, 0, StateVector::cpu_only(0.75)},
                               {3, 1, StateVector::cpu_only(0.5)},
                               {4, 1, StateVector::cpu_only(0.5)},
                               {5, 1, StateVector::cpu_only(0.5)}};

  const auto fresh = estimator.estimate(vms, 33.0);
  EXPECT_EQ(estimator.last_kernel(), "collapsed");
  const std::size_t queries_fresh = estimator.worth_queries();
  const double rate_fresh = estimator.table_hit_rate();
  EXPECT_GT(rate_fresh, 0.0);

  // Identical states next tick: the estimator keeps no per-tick table
  // state, so the second tick must be bit-identical to the first — values
  // and counters alike.
  const auto replay = estimator.estimate(vms, 33.0);
  for (std::size_t i = 0; i < vms.size(); ++i)
    EXPECT_EQ(fresh[i], replay[i]) << "repeated tick diverged, vm " << i;
  EXPECT_EQ(estimator.worth_queries(), 2 * queries_fresh);
  EXPECT_DOUBLE_EQ(estimator.table_hit_rate(), rate_fresh);

  // Both ticks match the per-mask reference with the same table.
  const auto reference =
      reference_estimate(universe, pipeline.approx, &table, true, vms, 33.0);
  for (std::size_t i = 0; i < vms.size(); ++i)
    EXPECT_NEAR(replay[i], reference[i], 1e-12) << "vm " << i;

  // A moved state changes the probed cells; the tick still matches.
  vms[2].state = StateVector::cpu_only(1.25);
  const auto moved = estimator.estimate(vms, 41.0);
  const auto moved_reference =
      reference_estimate(universe, pipeline.approx, &table, true, vms, 41.0);
  for (std::size_t i = 0; i < vms.size(); ++i)
    EXPECT_NEAR(moved[i], moved_reference[i], 1e-12)
        << "after the move, vm " << i;
}

TEST(ShapleyVhcEstimatorFast, TablePathMatchesReferenceOverMovingTicks) {
  util::Rng rng(28);
  const auto pipeline = full_pipeline(3, rng);
  // Plant cells on about half of the quarter-CPU grid that the on-grid ticks
  // below aggregate to (2 VMs per type: 0.25 .. 2.0 per VHC), so probes both
  // hit and miss.
  VscTable table = pipeline.table;
  for (VhcComboMask combo = 1; combo < 8; ++combo)
    for (int cell = 0; cell < 40; ++cell) {
      std::vector<StateVector> states(3);
      for (std::size_t j = 0; j < 3; ++j)
        if (((combo >> j) & 1u) != 0)
          states[j] = StateVector::cpu_only(
              0.25 * static_cast<double>(rng.uniform_int(1, 8)));
      table.record(combo, states, rng.uniform(5.0, 60.0));
    }
  const VhcUniverse universe({0, 1, 2});
  ShapleyVhcEstimator estimator(universe, pipeline.approx, table);

  std::vector<VmSample> vms;
  for (std::uint32_t i = 0; i < 6; ++i)
    vms.push_back({i, static_cast<common::VmTypeId>(i % 3),
                   StateVector::cpu_only(0.5)});
  std::size_t fresh_queries = 0, fresh_hits = 0;
  bool saw_collapsed = false, saw_sweep = false;
  for (int tick = 0; tick < 60; ++tick) {
    // Moving states: every third tick repeats the last one exactly; the
    // others draw quarter-CPU grid states (symmetric pairs, collapsed
    // kernel, table hits) or, every fifth tick, distinct off-grid states
    // (sweep kernel, misses). An idle VM now and then exercises Remark 1.
    if (tick % 3 != 2) {
      for (VmSample& vm : vms)
        vm.state = tick % 5 == 4
                       ? StateVector::cpu_only(rng.uniform(0.05, 1.0))
                       : StateVector::cpu_only(
                             0.25 * static_cast<double>(rng.uniform_int(0, 4)));
    }
    const double adjusted = rng.uniform(20.0, 80.0);
    const auto phi = estimator.estimate(vms, adjusted);
    saw_collapsed |= estimator.last_kernel() == "collapsed";
    saw_sweep |= estimator.last_kernel() == "sweep";
    const auto reference = reference_estimate(universe, pipeline.approx,
                                              &table, true, vms, adjusted);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(phi[i], reference[i], 1e-9) << "tick " << tick << " vm " << i;

    // The long-lived estimator's counters equal the sum over estimators
    // that each saw only this tick: nothing carried across ticks changes
    // what is queried or what hits.
    ShapleyVhcEstimator once(universe, pipeline.approx, table);
    const auto once_phi = once.estimate(vms, adjusted);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_EQ(phi[i], once_phi[i]) << "tick " << tick << " vm " << i;
    fresh_queries += once.worth_queries();
    fresh_hits += static_cast<std::size_t>(std::llround(
        once.table_hit_rate() * static_cast<double>(once.worth_queries())));
    ASSERT_EQ(estimator.worth_queries(), fresh_queries) << "tick " << tick;
  }
  EXPECT_TRUE(saw_collapsed);
  EXPECT_TRUE(saw_sweep);
  EXPECT_GT(fresh_hits, 0u);
  EXPECT_LT(fresh_hits, fresh_queries);
  EXPECT_DOUBLE_EQ(estimator.table_hit_rate(),
                   static_cast<double>(fresh_hits) /
                       static_cast<double>(fresh_queries));
}

TEST(ShapleyVhcEstimatorFast, IdleVmsAndCacheReuseAcrossTicks) {
  util::Rng rng(24);
  const auto pipeline = full_pipeline(2, rng);
  const VhcUniverse universe({0, 1});
  ShapleyVhcEstimator estimator(universe, pipeline.approx);
  // Idle VMs of *different* types are still symmetric dummies.
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(0.8)},
                                     {1, 0, StateVector::zero()},
                                     {2, 1, StateVector::zero()},
                                     {3, 1, StateVector::cpu_only(0.4)}};
  const auto first = estimator.estimate(vms, 25.0);
  const auto again = estimator.estimate(vms, 25.0);
  const auto reference =
      reference_estimate(universe, pipeline.approx, nullptr, true, vms, 25.0);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_EQ(first[i], again[i]) << "cache reuse changed the result, vm " << i;
    EXPECT_NEAR(first[i], reference[i], 1e-9) << "vm " << i;
  }
  // Anchoring pins v(N) to the measurement, so idle VMs absorb an equal slice
  // of the model/measurement gap — the two idle VMs collapse into one
  // symmetry group despite their different types and must split it exactly.
  EXPECT_EQ(first[1], first[2]);
  EXPECT_NEAR(std::accumulate(first.begin(), first.end(), 0.0), 25.0, 1e-9);

  // Without the anchor, worth never depends on idle players: Dummy axiom.
  ShapleyVhcEstimator unanchored(universe, pipeline.approx, /*anchor=*/false);
  const auto free_phi = unanchored.estimate(vms, 25.0);
  EXPECT_NEAR(free_phi[1], 0.0, 1e-9);
  EXPECT_NEAR(free_phi[2], 0.0, 1e-9);
}

TEST(ShapleyVhcEstimatorFast, SingleVmEdge) {
  util::Rng rng(25);
  const auto pipeline = full_pipeline(1, rng);
  ShapleyVhcEstimator estimator(VhcUniverse({0}), pipeline.approx);
  const std::vector<VmSample> one = {{0, 0, StateVector::cpu_only(0.6)}};
  const auto phi = estimator.estimate(one, 12.5);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_NEAR(phi[0], 12.5, 1e-12);  // anchored grand == the whole power.
}

// --- differential kernels ---------------------------------------------------

/// Quarter-CPU cells planted over every combo of `table`, so on-grid fleets
/// below both hit and miss the lookup-first path.
VscTable planted_table(const VscTable& base, std::size_t r, util::Rng& rng) {
  VscTable table = base;
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo)
    for (int cell = 0; cell < 30; ++cell) {
      std::vector<StateVector> states(r);
      for (std::size_t j = 0; j < r; ++j)
        if (((combo >> j) & 1u) != 0)
          states[j] = StateVector::cpu_only(
              0.25 * static_cast<double>(rng.uniform_int(1, 6)));
      table.record(combo, states, rng.uniform(5.0, 60.0));
    }
  return table;
}

/// A seeded random fleet: each VM idles, replays an earlier VM's type and
/// state (a symmetric pair), or draws a fresh state — on the quarter-CPU
/// grid or off it.
std::vector<VmSample> random_fleet(util::Rng& rng, std::size_t n,
                                   std::size_t n_types, bool on_grid) {
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < n; ++i) {
    VmSample vm;
    vm.vm_id = static_cast<std::uint32_t>(i);
    vm.type = static_cast<common::VmTypeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_types) - 1));
    const double u = rng.uniform();
    if (u < 0.15) {
      vm.state = StateVector::zero();
    } else if (u < 0.45 && i > 0) {
      const VmSample& twin = vms[rng.uniform_u64(i)];
      vm.type = twin.type;
      vm.state = twin.state;
    } else if (on_grid) {
      vm.state = StateVector::cpu_only(
          0.25 * static_cast<double>(rng.uniform_int(1, 4)));
    } else {
      vm.state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
      vm.state[Component::kMemory] = rng.uniform(0.0, 0.5);
    }
    vms.push_back(vm);
  }
  return vms;
}

TEST(ShapleyVhcEstimatorFast, KernelsMatchTheReferenceOnRandomFleets) {
  // Every exact kernel the estimator picks must equal the per-mask
  // reference, and the forced sampled tier must cover it within its own
  // reported half-widths, over seeded random fleets of 1–12 VMs and 1–4
  // types, with and without the v(S, C) table.
  util::Rng rng(2019);
  std::vector<TrainedPipeline> pipelines;
  std::vector<VscTable> tables;
  for (std::size_t r = 1; r <= 4; ++r) {
    pipelines.push_back(full_pipeline(r, rng));
    tables.push_back(planted_table(pipelines.back().table, r, rng));
  }

  double worst_exact = 0.0, worst_sampled = 0.0;
  std::string worst_exact_case = "none", worst_sampled_case = "none";
  std::size_t collapsed = 0, sweep = 0, sampled = 0, hits = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto r = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const bool with_table = trial % 2 == 0;
    const bool anchor = trial % 5 != 4;
    const bool on_grid = trial % 3 != 2;
    const TrainedPipeline& pipeline = pipelines[r - 1];
    const VscTable& table = tables[r - 1];
    std::vector<common::VmTypeId> types(r);
    std::iota(types.begin(), types.end(), common::VmTypeId{0});
    const VhcUniverse universe(types);
    const auto vms = random_fleet(rng, n, r, on_grid);
    const double adjusted = rng.uniform(10.0, 120.0);
    const std::string shape =
        "trial " + std::to_string(trial) + " (n=" + std::to_string(n) +
        ", types=" + std::to_string(r) + ", table=" +
        std::to_string(with_table) + ", anchor=" + std::to_string(anchor) +
        ")";

    // Exact: whichever kernel auto picks, within 1e-9 of the fleet's scale.
    ShapleyVhcEstimator exact =
        with_table ? ShapleyVhcEstimator(universe, pipeline.approx, table,
                                         anchor)
                   : ShapleyVhcEstimator(universe, pipeline.approx, anchor);
    const auto phi = exact.estimate(vms, adjusted);
    const auto reference =
        reference_estimate(universe, pipeline.approx,
                           with_table ? &table : nullptr, anchor, vms,
                           adjusted);
    collapsed += exact.last_kernel() == "collapsed";
    sweep += exact.last_kernel() == "sweep";
    hits += exact.table_hit_rate() > 0.0;
    double scale = adjusted;
    for (const double value : reference) scale = std::max(scale, std::abs(value));
    for (std::size_t i = 0; i < n; ++i) {
      const double rel = std::abs(phi[i] - reference[i]) / scale;
      if (rel > worst_exact) {
        worst_exact = rel;
        worst_exact_case = shape + " " + std::string(exact.last_kernel()) +
                           " vm " + std::to_string(i);
      }
      EXPECT_LE(rel, 1e-9) << shape << " kernel " << exact.last_kernel()
                           << " vm " << i;
    }

    // Sampled: forced, and compared with the table-less reference because
    // the sampled tier answers from the approximation alone.
    ShapleyVhcEstimator approximate(universe, pipeline.approx, anchor);
    SampledKernelConfig config;
    config.kernel = SampledKernelConfig::Kernel::kSampled;
    config.sampling.seed = static_cast<std::uint64_t>(trial) + 1;
    config.sampling.max_samples = 3000;
    approximate.set_sampled_kernel(config);
    const auto estimate = approximate.estimate(vms, adjusted);
    ASSERT_EQ(approximate.last_kernel(), "sampled");
    ++sampled;
    const auto approx_reference = reference_estimate(
        universe, pipeline.approx, nullptr, anchor, vms, adjusted);
    const SampledTickStats& stats = approximate.last_sampled();
    // Per-VM half-width plus the uniform efficiency shift, as reported.
    const double bound = stats.max_halfwidth_w +
                         stats.sum_halfwidth_w / static_cast<double>(n) + 1e-9;
    for (std::size_t i = 0; i < n; ++i) {
      const double ratio = std::abs(estimate[i] - approx_reference[i]) / bound;
      if (ratio > worst_sampled) {
        worst_sampled = ratio;
        worst_sampled_case = shape + " vm " + std::to_string(i);
      }
      EXPECT_LE(std::abs(estimate[i] - approx_reference[i]), bound)
          << shape << " vm " << i << " stopped_by " << stats.stopped_by;
    }
  }
  std::printf(
      "exact kernels: collapsed %zu, sweep %zu, table hits in %zu; worst "
      "relative error %.3g at %s\n"
      "sampled tier: %zu fleets; worst |error| / bound %.3f at %s\n",
      collapsed, sweep, hits, worst_exact, worst_exact_case.c_str(), sampled,
      worst_sampled, worst_sampled_case.c_str());
  EXPECT_GT(collapsed, 0u);
  EXPECT_GT(sweep, 0u);
  EXPECT_GT(hits, 0u);
}

// --- the 12-VHC bound ---------------------------------------------------------

TEST(ShapleyVhcEstimatorFast, TwelveTypeUniverseMetersThroughTheDenseCache) {
  static_assert(VhcUniverse::kMaxVhcs == 12);
  constexpr std::size_t kTypes = VhcUniverse::kMaxVhcs;
  // Fitting all 4095 combos would take 600k samples; singletons and a few
  // pairs keep it small, and every other combo resolves through predict()'s
  // disjoint-cover fallback, which the dense cache folds into one vector.
  util::Rng rng(12);
  VscTable table(kTypes, 0.01);
  std::vector<VhcComboMask> fitted;
  for (std::size_t j = 0; j < kTypes; ++j) fitted.push_back(VhcComboMask{1} << j);
  for (const VhcComboMask pair : {0x003u, 0x030u, 0x900u}) fitted.push_back(pair);
  for (const VhcComboMask combo : fitted)
    for (int s = 0; s < 60; ++s) {
      std::vector<StateVector> states(kTypes);
      double power = 0.0;
      for (std::size_t j = 0; j < kTypes; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += (2.0 + static_cast<double>(j)) * cpu;
      }
      table.record(combo, states, power);
    }
  const VhcLinearApprox approx = VhcLinearApprox::fit(table);
  std::vector<common::VmTypeId> types(kTypes);
  std::iota(types.begin(), types.end(), common::VmTypeId{0});
  const VhcUniverse universe(types);

  // Eight VMs spread over the twelve types: distinct states take the sweep,
  // then a duplicated (type, state) pair takes the collapsed kernel.
  std::vector<VmSample> vms;
  const common::VmTypeId spread[] = {0, 11, 5, 1, 7, 4, 9, 10};
  for (std::uint32_t i = 0; i < 8; ++i)
    vms.push_back({i, spread[i],
                   StateVector::cpu_only(0.1 + 0.07 * static_cast<double>(i))});
  ShapleyVhcEstimator estimator(universe, approx);
  for (const char* kernel : {"sweep", "collapsed"}) {
    const auto phi = estimator.estimate(vms, 70.0);
    EXPECT_EQ(estimator.last_kernel(), kernel);
    const auto reference =
        reference_estimate(universe, approx, nullptr, true, vms, 70.0);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(phi[i], reference[i], 1e-9) << kernel << " vm " << i;
    vms[7] = {7, vms[6].type, vms[6].state};  // a symmetric pair for round 2.
  }
}

}  // namespace
}  // namespace vmp::core
