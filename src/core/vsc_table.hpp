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
// running sum and count of its samples.
//
// Online states almost never land on a recorded cell, so a lookup first
// proves most misses cheaply: per combo and per coordinate the table keeps a
// bitset of the grid indices some recorded cell has there, and a lookup
// returns nullopt at the first coordinate whose index is not in its set.
// Only a key that passes every coordinate pays the hash probe. Every
// recorded cell's indices are in the sets, so the filter never turns a hit
// into a miss; answers are exactly those of the hash probe alone.
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

  /// One coordinate's recorded grid indices as a bitset: bit b of word w
  /// stands for grid index (first_word + w) * 64 + b. Spans wider than
  /// kMaxFilterWords keep no bitset (num_words == 0) and pass every index.
  struct CoordBits {
    std::int32_t first_word = 0;
    std::uint32_t offset = 0;  ///< first word in ComboFilter::words
    std::uint32_t num_words = 0;
  };
  /// The miss filter of one combo; `coords` is empty until the combo's
  /// first record() and then holds one entry per live coordinate.
  struct ComboFilter {
    std::vector<CoordBits> coords;
    std::vector<std::uint64_t> words;
  };
  /// 4096 grid steps (512 B) per coordinate at most, so a filter costs at
  /// most 512 B per live coordinate of each recorded combo, however far
  /// apart the recorded states lie.
  static constexpr std::uint32_t kMaxFilterWords = 64;

  /// Fills `key` for the given states; false when a coordinate is
  /// non-finite or its grid index does not fit in int32.
  [[nodiscard]] bool grid_key(VhcComboMask combo,
                              std::span<const common::StateVector> vhc_states,
                              GridKey& key) const noexcept;
  /// Adds a recorded cell's grid indices to its combo's filter.
  void add_to_filter(const GridKey& key);

  std::size_t num_vhcs_;
  double resolution_;
  std::unordered_map<VhcComboMask, std::vector<VscSample>> samples_;
  std::unordered_map<GridKey, Cell, GridKeyHash> cells_;
  std::vector<ComboFilter> filters_;  ///< indexed by combo
  std::size_t total_ = 0;

  void validate_query(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states) const;
};

}  // namespace vmp::core
