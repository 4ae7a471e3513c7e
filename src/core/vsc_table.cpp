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

namespace {

/// round(v / resolution) is exactly the multiplier quantized() applies, so
/// equal indices <=> equal quantized states. False when v is non-finite or
/// its index does not fit in int32: the range test is written so NaN fails
/// it too, and it keeps the int32 cast defined.
bool grid_index(double v, double resolution, std::int32_t& index) noexcept {
  constexpr double kLo = std::numeric_limits<std::int32_t>::min();
  constexpr double kHi = std::numeric_limits<std::int32_t>::max();
  const double k = std::round(v / resolution);
  if (!(k >= kLo && k <= kHi)) return false;
  index = static_cast<std::int32_t>(k);
  return true;
}

}  // namespace

bool VscTable::grid_key(VhcComboMask combo,
                        std::span<const common::StateVector> vhc_states,
                        GridKey& key) const noexcept {
  key.combo = combo;
  key.size = static_cast<std::uint32_t>(num_vhcs_ * common::kNumComponents);
  std::size_t i = 0;
  for (std::size_t j = 0; j < num_vhcs_; ++j)
    for (const double v : vhc_states[j].values())
      if (!grid_index(v, resolution_, key.index[i++])) return false;
  return true;
}

void VscTable::add_to_filter(const GridKey& key) {
  if (key.combo >= filters_.size()) filters_.resize(key.combo + 1);
  ComboFilter& filter = filters_[key.combo];
  if (filter.coords.empty()) {
    // The combo's first cell: one word per coordinate, around its index.
    filter.coords.resize(key.size);
    filter.words.assign(key.size, 0);
    for (std::uint32_t i = 0; i < key.size; ++i)
      filter.coords[i] = {key.index[i] >> 6, i, 1};
  }
  // Last coordinate first: growing or dropping coordinate i's words moves
  // only the words of coordinates after it, whose offsets are redone below.
  for (std::uint32_t i = key.size; i-- > 0;) {
    CoordBits& bits = filter.coords[i];
    if (bits.num_words == 0) continue;  // too wide: no filter
    const std::int32_t word = key.index[i] >> 6;
    const std::int32_t last =
        bits.first_word + static_cast<std::int32_t>(bits.num_words) - 1;
    const std::int32_t lo = std::min(word, bits.first_word);
    const std::int32_t hi = std::max(word, last);
    const auto begin = filter.words.begin() + bits.offset;
    if (hi - lo >= static_cast<std::int32_t>(kMaxFilterWords)) {
      filter.words.erase(begin, begin + bits.num_words);
      bits.num_words = 0;
      continue;
    }
    filter.words.insert(begin + bits.num_words,
                        static_cast<std::size_t>(hi - last), 0);
    filter.words.insert(filter.words.begin() + bits.offset,
                        static_cast<std::size_t>(bits.first_word - lo), 0);
    bits.first_word = lo;
    bits.num_words = static_cast<std::uint32_t>(hi - lo + 1);
    filter.words[bits.offset + static_cast<std::uint32_t>(word - lo)] |=
        std::uint64_t{1} << (key.index[i] & 63);
  }
  std::uint32_t offset = 0;
  for (CoordBits& bits : filter.coords) {
    bits.offset = offset;
    offset += bits.num_words;
  }
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
  add_to_filter(key);

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
  if (combo >= filters_.size() || filters_[combo].coords.empty())
    return std::nullopt;  // combo never recorded
  const ComboFilter& filter = filters_[combo];
  // The key is built one coordinate at a time; the first index that no
  // recorded cell of the combo has proves the miss without the hash probe.
  GridKey key;
  key.combo = combo;
  key.size = static_cast<std::uint32_t>(num_vhcs_ * common::kNumComponents);
  std::uint32_t i = 0;
  for (std::size_t j = 0; j < num_vhcs_; ++j)
    for (const double v : vhc_states[j].values()) {
      std::int32_t& index = key.index[i];
      if (!grid_index(v, resolution_, index)) return std::nullopt;
      const CoordBits& bits = filter.coords[i++];
      if (bits.num_words == 0) continue;
      // Unsigned wrap sends indices below the span past its end too.
      const auto w =
          static_cast<std::uint32_t>((index >> 6) - bits.first_word);
      if (w >= bits.num_words ||
          ((filter.words[bits.offset + w] >> (index & 63)) & 1u) == 0)
        return std::nullopt;
    }
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
