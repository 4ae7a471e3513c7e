#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;

class SerializationTest : public ::testing::Test {
 protected:
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("vmp_serial_" + std::to_string(::getpid()) + ".dat");

  void TearDown() override { std::filesystem::remove(path_); }

  static VscTable sample_table() {
    VscTable table(2, 0.01);
    util::Rng rng(3);
    for (int k = 0; k < 50; ++k) {
      const double c0 = rng.uniform(0.0, 2.0);
      const double c1 = rng.uniform(0.0, 1.0);
      StateVector s0 = StateVector::cpu_only(c0);
      s0[common::Component::kMemory] = rng.uniform();
      table.record(0b01, {{s0, StateVector::zero()}}, 13.0 * c0);
      table.record(0b11,
                   {{StateVector::cpu_only(c0), StateVector::cpu_only(c1)}},
                   13.0 * c0 + 24.0 * c1);
    }
    return table;
  }
};

TEST_F(SerializationTest, TableRoundTrip) {
  const VscTable original = sample_table();
  save_table(original, path_);
  const VscTable loaded = load_table(path_);

  EXPECT_EQ(loaded.num_vhcs(), original.num_vhcs());
  EXPECT_DOUBLE_EQ(loaded.resolution(), original.resolution());
  EXPECT_EQ(loaded.total_samples(), original.total_samples());
  for (const VhcComboMask combo : original.combos()) {
    const auto& a = original.samples(combo);
    const auto& b = loaded.samples(combo);
    ASSERT_EQ(a.size(), b.size()) << "combo " << combo;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k].power_w, b[k].power_w, 1e-9);
      for (std::size_t j = 0; j < original.num_vhcs(); ++j)
        EXPECT_NEAR(a[k].vhc_states[j].max_abs_diff(b[k].vhc_states[j]), 0.0,
                    1e-9);
    }
  }
}

TEST_F(SerializationTest, ApproximationRoundTripPredictsIdentically) {
  const VscTable table = sample_table();
  const auto original = VhcLinearApprox::fit(table);
  save_approximation(original, path_);
  const auto loaded = load_approximation(path_);

  EXPECT_EQ(loaded.num_vhcs(), original.num_vhcs());
  EXPECT_EQ(loaded.fitted_combos(), original.fitted_combos());
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<StateVector> states = {
        StateVector::cpu_only(rng.uniform(0.0, 2.0)),
        StateVector::cpu_only(rng.uniform(0.0, 1.0))};
    for (const VhcComboMask combo : original.fitted_combos())
      EXPECT_NEAR(loaded.predict(combo, states),
                  original.predict(combo, states), 1e-9);
  }
  for (const VhcComboMask combo : original.fitted_combos()) {
    EXPECT_NEAR(loaded.fit_rmse(combo), original.fit_rmse(combo), 1e-9);
  }
}

TEST_F(SerializationTest, TrainedFromLoadedTableMatchesDirectFit) {
  const VscTable table = sample_table();
  save_table(table, path_);
  const auto from_disk = VhcLinearApprox::fit(load_table(path_));
  const auto direct = VhcLinearApprox::fit(table);
  for (const VhcComboMask combo : direct.fitted_combos()) {
    const auto a = direct.weights(combo);
    const auto b = from_disk.weights(combo);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST_F(SerializationTest, BadMagicRejected) {
  {
    std::ofstream out(path_);
    out << "not-a-vmpower-file v9 num_vhcs=2 resolution=0.01\n";
  }
  EXPECT_THROW(load_table(path_), std::runtime_error);
  EXPECT_THROW(load_approximation(path_), std::runtime_error);
}

TEST_F(SerializationTest, TruncatedRowRejected) {
  {
    std::ofstream out(path_);
    out << "vmpower-vsc-table v1 num_vhcs=2 resolution=0.01\n";
    out << "1 0.5 0 0 0\n";  // missing the second VHC's state and power
  }
  EXPECT_THROW(load_table(path_), std::runtime_error);
}

TEST_F(SerializationTest, FilesOverTheVhcBoundRejected) {
  // A universe holds at most 12 VHCs: a 13-VHC table or approximation
  // file is refused at load, however well formed.
  static_assert(VhcUniverse::kMaxVhcs == 12);
  const std::size_t thirteen = 13;
  {
    std::ofstream out(path_);
    out << "vmpower-vsc-table v1 num_vhcs=" << thirteen
        << " resolution=0.01\n";
  }
  EXPECT_THROW(load_table(path_), std::invalid_argument);
  {
    std::ofstream out(path_);
    out << "vmpower-vhc-approx v1 num_vhcs=" << thirteen << "\n1";
    for (std::size_t w = 0; w < thirteen * common::kNumComponents; ++w)
      out << " 1.5";
    out << " 0.1 60\n";
  }
  EXPECT_THROW(load_approximation(path_), std::invalid_argument);
}

TEST_F(SerializationTest, MissingFileRejected) {
  EXPECT_THROW(load_table(path_.string() + ".nope"), std::runtime_error);
  EXPECT_THROW(load_approximation(path_.string() + ".nope"),
               std::runtime_error);
}

TEST(FromModels, Validation) {
  VhcLinearApprox::ComboModelData ok{
      0b1, std::vector<double>(common::kNumComponents, 1.0), 0.0, 10};
  EXPECT_NO_THROW(VhcLinearApprox::from_models(1, {{ok}}));
  // Wrong weight vector length.
  VhcLinearApprox::ComboModelData bad = ok;
  bad.weights.pop_back();
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{bad}}), std::invalid_argument);
  // Combo beyond the universe.
  bad = ok;
  bad.combo = 0b10;
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{bad}}), std::invalid_argument);
  // Duplicate combos.
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{ok, ok}}),
               std::invalid_argument);
  // Empty model set / bad universe size.
  EXPECT_THROW(VhcLinearApprox::from_models(1, {}), std::invalid_argument);
  EXPECT_THROW(VhcLinearApprox::from_models(0, {{ok}}), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::core
