#include "core/vsc_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vmp::core {

VscTable::VscTable(std::size_t num_vhcs, double resolution)
    : num_vhcs_(num_vhcs), resolution_(resolution) {
  if (num_vhcs == 0 || num_vhcs > VhcUniverse::kMaxVhcs)
    throw std::invalid_argument("VscTable: bad VHC count");
  if (!(resolution > 0.0))
    throw std::invalid_argument("VscTable: resolution must be > 0");
}

void VscTable::validate_query(
    VhcComboMask combo, std::span<const common::StateVector> vhc_states) const {
  if (vhc_states.size() != num_vhcs_)
    throw std::invalid_argument("VscTable: vhc_states size != num_vhcs");
  if (num_vhcs_ < 32 && (combo >> num_vhcs_) != 0)
    throw std::invalid_argument("VscTable: combo addresses unknown VHCs");
}

bool VscTable::GridKey::operator==(const GridKey& other) const noexcept {
  return combo == other.combo && size == other.size &&
         std::equal(index.begin(), index.begin() + size, other.index.begin());
}

std::size_t VscTable::GridKeyHash::operator()(
    const GridKey& key) const noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ key.combo;
  for (std::uint32_t i = 0; i < key.size; ++i) {
    h = (h ^ static_cast<std::uint32_t>(key.index[i])) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h);
}

bool VscTable::grid_key(VhcComboMask combo,
                        std::span<const common::StateVector> vhc_states,
                        GridKey& key) const noexcept {
  // round(v / resolution) is exactly the multiplier quantized() applies, so
  // equal indices <=> equal quantized states. The range test is written so
  // NaN fails it too; it also keeps the int32 cast defined.
  constexpr double kLo = std::numeric_limits<std::int32_t>::min();
  constexpr double kHi = std::numeric_limits<std::int32_t>::max();
  key.combo = combo;
  key.size = static_cast<std::uint32_t>(num_vhcs_ * common::kNumComponents);
  std::size_t i = 0;
  for (std::size_t j = 0; j < num_vhcs_; ++j)
    for (const double v : vhc_states[j].values()) {
      const double k = std::round(v / resolution_);
      if (!(k >= kLo && k <= kHi)) return false;
      key.index[i++] = static_cast<std::int32_t>(k);
    }
  return true;
}

void VscTable::record(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states,
                      double power_w) {
  validate_query(combo, vhc_states);
  if (!std::isfinite(power_w) || power_w < 0.0)
    throw std::invalid_argument(
        "VscTable::record: power must be finite and >= 0");
  GridKey key{};  // zeroed: record() copies the whole key into the index.
  if (!grid_key(combo, vhc_states, key))
    throw std::invalid_argument(
        "VscTable::record: state coordinate non-finite or off the grid");
  Cell& cell = cells_[key];
  cell.sum_w += power_w;
  ++cell.count;

  VscSample sample;
  sample.combo = combo;
  sample.vhc_states.reserve(num_vhcs_);
  for (const auto& state : vhc_states)
    sample.vhc_states.push_back(state.quantized(resolution_));
  sample.power_w = power_w;
  samples_[combo].push_back(std::move(sample));
  ++total_;
}

const std::vector<VscSample>& VscTable::samples(VhcComboMask combo) const {
  static const std::vector<VscSample> kEmpty;
  const auto it = samples_.find(combo);
  return it != samples_.end() ? it->second : kEmpty;
}

std::optional<double> VscTable::lookup(
    VhcComboMask combo, std::span<const common::StateVector> vhc_states) const {
  validate_query(combo, vhc_states);
  GridKey key;
  if (!grid_key(combo, vhc_states, key)) return std::nullopt;
  const auto it = cells_.find(key);
  if (it == cells_.end()) return std::nullopt;
  return it->second.sum_w / static_cast<double>(it->second.count);
}

std::vector<VhcComboMask> VscTable::combos() const {
  std::vector<VhcComboMask> out;
  out.reserve(samples_.size());
  for (const auto& [combo, _] : samples_) out.push_back(combo);
  return out;
}

}  // namespace vmp::core
