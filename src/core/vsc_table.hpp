// The v(S, C) table of the paper's framework (Fig. 8).
//
// During offline data collection the prototype stores, per VHC combination,
// the partially-measured (aggregated state, adjusted power) pairs at a fixed
// state-normalization resolution (0.01 in the paper's setup). The online path
// looks samples up by quantized state and falls back to the linear
// approximation for unobserved states.
//
// Two states quantize to the same table entry exactly when their integer
// grid coordinates round(v / resolution) are equal, so the table is an
// exact-match store: one hash cell per (combo, grid coordinates) holding the
// running sum and count of its samples, and a lookup is one O(1) probe.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/state_vector.hpp"
#include "core/vhc.hpp"

namespace vmp::core {

/// One offline measurement: coalition combo, aggregated per-VHC states
/// (always num_vhcs entries, zero for absent VHCs), adjusted machine power.
struct VscSample {
  VhcComboMask combo = 0;
  std::vector<common::StateVector> vhc_states;
  double power_w = 0.0;
};

class VscTable {
 public:
  /// num_vhcs: size of the VHC universe; resolution: state quantization step
  /// (> 0, paper uses 0.01). Throws std::invalid_argument on bad parameters.
  explicit VscTable(std::size_t num_vhcs, double resolution = 0.01);

  [[nodiscard]] std::size_t num_vhcs() const noexcept { return num_vhcs_; }
  [[nodiscard]] double resolution() const noexcept { return resolution_; }

  /// Records one measurement. States are quantized on entry. Throws
  /// std::invalid_argument if vhc_states.size() != num_vhcs, the combo
  /// addresses VHCs beyond the universe, power is negative or non-finite, or
  /// a state coordinate is non-finite or off the int32 grid.
  void record(VhcComboMask combo,
              std::span<const common::StateVector> vhc_states, double power_w);

  /// All samples recorded for a combo (empty vector if none).
  [[nodiscard]] const std::vector<VscSample>& samples(VhcComboMask combo) const;

  /// Mean measured power over samples whose quantized state matches the
  /// query's exactly (summed in record order); nullopt when the state was
  /// never observed (the case the linear approximation exists for), or when
  /// a coordinate is non-finite or off the int32 grid.
  [[nodiscard]] std::optional<double> lookup(
      VhcComboMask combo, std::span<const common::StateVector> vhc_states) const;

  [[nodiscard]] std::size_t total_samples() const noexcept { return total_; }
  /// Combos that have at least one sample.
  [[nodiscard]] std::vector<VhcComboMask> combos() const;

 private:
  /// A cell's address: the combo plus the grid index of each of the
  /// universe's num_vhcs x kNumComponents coordinates (fixed width, so a
  /// probe never allocates; only the first `size` indices are live).
  struct GridKey {
    VhcComboMask combo = 0;
    std::uint32_t size = 0;
    std::array<std::int32_t, VhcUniverse::kMaxVhcs * common::kNumComponents>
        index;
    [[nodiscard]] bool operator==(const GridKey& other) const noexcept;
  };
  struct GridKeyHash {
    [[nodiscard]] std::size_t operator()(const GridKey& key) const noexcept;
  };
  struct Cell {
    double sum_w = 0.0;
    std::size_t count = 0;
  };

  /// Fills `key` for the given states; false when a coordinate is
  /// non-finite or its grid index does not fit in int32.
  [[nodiscard]] bool grid_key(VhcComboMask combo,
                              std::span<const common::StateVector> vhc_states,
                              GridKey& key) const noexcept;

  std::size_t num_vhcs_;
  double resolution_;
  std::unordered_map<VhcComboMask, std::vector<VscSample>> samples_;
  std::unordered_map<GridKey, Cell, GridKeyHash> cells_;
  std::size_t total_ = 0;

  void validate_query(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states) const;
};

}  // namespace vmp::core
