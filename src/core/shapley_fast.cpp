#include "core/shapley_fast.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vmp::core {
namespace {

constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

}  // namespace

std::size_t SymmetryGroups::composition_count() const noexcept {
  // Saturate instead of wrapping: 64 all-distinct players would otherwise
  // multiply 2^64 → 0 and defeat the "too many compositions, go sampled"
  // kernel-selection threshold.
  std::size_t count = 1;
  for (const auto& group : members) {
    const std::size_t factor = group.size() + 1;
    if (count > std::numeric_limits<std::size_t>::max() / factor)
      return std::numeric_limits<std::size_t>::max();
    count *= factor;
  }
  return count;
}

void detect_symmetry_into(std::span<const std::size_t> keys,
                          std::span<const common::StateVector> states,
                          SymmetryGroups& out) {
  if (keys.size() != states.size())
    throw std::invalid_argument("detect_symmetry: keys/states size mismatch");
  const std::size_t n = keys.size();
  out.clear();
  out.group_of.resize(n);
  for (Player i = 0; i < n; ++i) {
    std::size_t g = kNoGroup;
    // Linear probe against each group's representative: n <= kMaxPlayers
    // keeps this O(n^2) scan trivially cheap.
    for (std::size_t j = 0; j < out.members.size(); ++j) {
      const Player rep = out.members[j].front();
      if (keys[rep] == keys[i] && states[rep] == states[i]) {
        g = j;
        break;
      }
    }
    if (g == kNoGroup) {
      g = out.members.size();
      out.members.emplace_back();
    }
    out.members[g].push_back(i);
    out.group_of[i] = g;
  }
}

SymmetryGroups detect_symmetry(std::span<const std::size_t> keys,
                               std::span<const common::StateVector> states) {
  SymmetryGroups out;
  detect_symmetry_into(keys, states, out);
  return out;
}

void ComboWeightCache::bind(const VhcLinearApprox* approx) {
  if (approx == approx_) return;
  approx_ = approx;
  weights_.clear();
  status_.clear();
  stride_ = 0;
  if (approx_ == nullptr) return;
  stride_ = approx_->num_vhcs() * common::kNumComponents;
  const std::size_t combos = std::size_t{1} << approx_->num_vhcs();
  weights_.assign(combos * stride_, 0.0);
  status_.assign(combos, 0);
  status_[0] = 1;  // The empty combo predicts 0: all-zero weights.
}

std::span<const double> ComboWeightCache::effective_weights(VhcComboMask combo) {
  if (approx_ == nullptr)
    throw std::logic_error("ComboWeightCache: unbound");
  if (combo >= status_.size())
    throw std::out_of_range("ComboWeightCache: combo out of range");
  double* slot = weights_.data() + std::size_t{combo} * stride_;
  if (status_[combo] == 1) return {slot, stride_};
  if (status_[combo] == 2)
    throw std::out_of_range(
        "VhcLinearApprox::predict: no covering decomposition for combo");

  const std::size_t num_vhcs = approx_->num_vhcs();
  if (approx_->has_combo(combo)) {
    const auto fitted = approx_->weights(combo);
    std::copy(fitted.begin(), fitted.end(), slot);
    status_[combo] = 1;
    return {slot, stride_};
  }

  // predict() is linear in the aggregated states, so probing it with unit
  // basis vectors recovers — element by element — exactly the summed
  // disjoint-cover weights its fallback would apply to any state.
  std::vector<common::StateVector> basis(num_vhcs);
  try {
    for (std::size_t j = 0; j < num_vhcs; ++j) {
      if (((combo >> j) & 1u) == 0) continue;  // absent VHCs carry no weight.
      for (std::size_t c = 0; c < common::kNumComponents; ++c) {
        basis[j][static_cast<common::Component>(c)] = 1.0;
        slot[j * common::kNumComponents + c] = approx_->predict(combo, basis);
        basis[j][static_cast<common::Component>(c)] = 0.0;
      }
    }
  } catch (const std::out_of_range&) {
    std::fill(slot, slot + stride_, 0.0);
    status_[combo] = 2;
    throw;
  }
  status_[combo] = 1;
  return {slot, stride_};
}

double ComboWeightCache::predict(VhcComboMask combo,
                                 std::span<const common::StateVector> states) {
  const auto w = effective_weights(combo);
  if (states.size() * common::kNumComponents != w.size())
    throw std::invalid_argument("ComboWeightCache::predict: bad states size");
  double out = 0.0;
  for (std::size_t j = 0; j < states.size(); ++j)
    out += states[j].dot(w.subspan(j * common::kNumComponents,
                                   common::kNumComponents));
  return out;
}

}  // namespace vmp::core
