// Fast exact-Shapley building blocks for the metering hot path.
//
// Two independent accelerations of core::shapley_values, both exact:
//
// 1. Symmetry collapse (paper Sec. V-B/V-C): datacenter VMs fall into r ≪ n
//    homogeneous types, and same-type VMs holding identical component states
//    are *symmetric players* — any coalition's worth depends only on how
//    many members of each group it contains, never on which ones. The
//    estimator's collapsed kernel (ShapleyVhcEstimator::estimate_collapsed)
//    therefore enumerates type-count *compositions* (Π_j (g_j + 1) worth
//    evaluations, e.g. 625 for 4 groups of 4) instead of raw masks (2^n,
//    e.g. 65536), with zero approximation error:
//
//      Φ_{i ∈ group j} = Σ_k  C(g_j−1, k_j) · Π_{t≠j} C(g_t, k_t)
//                             · w(|k|) · [V(k + e_j) − V(k)]
//
//    where V(k) is the worth of any coalition with composition k and w is
//    the per-size Shapley weight. detect_symmetry finds the groups.
//
// 2. A batched worth evaluator for the VHC linear approximation
//    (ComboWeightCache): every coalition worth of a VhcLinearApprox is a dot
//    product of the aggregated states with one per-combo weight vector, so
//    materializing all 2^n worths is a cache-friendly arithmetic pass — no
//    std::function dispatch, no per-coalition allocation. The cache also
//    resolves predict()'s disjoint-cover fallback for unfitted combos into
//    an *effective* weight vector once, so the fallback costs nothing per
//    tick afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/state_vector.hpp"
#include "core/coalition.hpp"
#include "core/linear_approx.hpp"

namespace vmp::core {

/// A partition of the players into groups of pairwise-symmetric
/// (interchangeable) players, in first-seen order.
struct SymmetryGroups {
  std::vector<std::size_t> group_of;        ///< player -> dense group index.
  std::vector<std::vector<Player>> members; ///< group -> players, ascending.

  [[nodiscard]] std::size_t player_count() const noexcept {
    return group_of.size();
  }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return members.size();
  }
  [[nodiscard]] bool all_distinct() const noexcept {
    return group_count() == player_count();
  }
  /// Π_j (g_j + 1): worth evaluations the collapsed solver performs. Always
  /// <= 2^n, with equality exactly when every player is its own group.
  /// Saturates at SIZE_MAX instead of wrapping (64 distinct players), so the
  /// value stays safe to compare against kernel-selection thresholds.
  [[nodiscard]] std::size_t composition_count() const noexcept;

  void clear() noexcept {
    group_of.clear();
    members.clear();
  }
};

/// Groups players by (key, state) equality: two players are symmetric under
/// any VHC worth function iff they share a key (their VHC index) and hold
/// bit-identical state vectors. keys and states must have equal size.
/// Throws std::invalid_argument on a size mismatch.
[[nodiscard]] SymmetryGroups detect_symmetry(
    std::span<const std::size_t> keys,
    std::span<const common::StateVector> states);

/// In-place variant for hot paths: fills `out`, reusing its storage.
void detect_symmetry_into(std::span<const std::size_t> keys,
                          std::span<const common::StateVector> states,
                          SymmetryGroups& out);

/// Cross-tick cache of per-combo *effective* power-mapping vectors for one
/// VhcLinearApprox: the fitted weights for fitted combos, and the summed
/// disjoint-cover weights for unfitted-but-coverable combos (extracted by
/// probing predict() with basis states, so the decomposition is exactly the
/// one predict() would choose). Entries are built lazily on first use and
/// are valid for the lifetime of the bound approximation, which is
/// immutable once fitted — this is what lets the estimator answer every
/// approximation worth as one dot product, tick after tick. Storage is dense,
/// 2^num_vhcs vectors; VhcUniverse::kMaxVhcs = 12 bounds it at 4096.
class ComboWeightCache {
 public:
  ComboWeightCache() = default;

  /// Binds (or re-binds) the approximation. Rebinding to a different object
  /// resets the cache; rebinding to the same pointer is a no-op, so hot
  /// paths may call this unconditionally.
  void bind(const VhcLinearApprox* approx);

  /// The effective weight vector for `combo` (num_vhcs * kNumComponents
  /// doubles, VHC-major). Throws std::out_of_range when the combo has no
  /// fitted cover (mirroring predict()), std::logic_error when unbound.
  /// combo 0 yields an all-zero vector.
  [[nodiscard]] std::span<const double> effective_weights(VhcComboMask combo);

  /// predict() through the cache: dot(states, effective_weights(combo)).
  [[nodiscard]] double predict(VhcComboMask combo,
                               std::span<const common::StateVector> states);

 private:
  const VhcLinearApprox* approx_ = nullptr;
  std::size_t stride_ = 0;              ///< num_vhcs * kNumComponents.
  std::vector<double> weights_;         ///< combo-major dense table.
  std::vector<std::uint8_t> status_;    ///< 0 unknown, 1 cached, 2 uncoverable.
};

}  // namespace vmp::core
