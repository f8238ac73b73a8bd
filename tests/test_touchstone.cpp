#include "io/touchstone.hpp"

#include <gtest/gtest.h>

#include "circuit/network_params.hpp"
#include "gen/random_circuit.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

std::vector<CMat> sample_sweep(Index ports, const Vec& freqs, unsigned seed) {
  const Netlist nl = random_rc({.nodes = 20, .ports = ports, .seed = seed});
  return sweep(build_mna(nl), freqs, {.throw_on_failure = true}).values;
}

TEST(Touchstone, HeaderAndStructure) {
  const Vec freqs{1e8, 1e9};
  const auto z = sample_sweep(1, freqs, 1);
  const std::string text = write_touchstone(freqs, z, 50.0, "test sweep");
  EXPECT_NE(text.find("! test sweep"), std::string::npos);
  EXPECT_NE(text.find("# HZ S RI R 50"), std::string::npos);
  // One data line per point for a 1-port.
  EXPECT_NE(text.find("100000000"), std::string::npos);
}

TEST(Touchstone, RoundTripOnePort) {
  const Vec freqs{1e7, 1e8, 1e9};
  const auto z = sample_sweep(1, freqs, 2);
  const std::string text = write_touchstone(freqs, z, 75.0);
  Vec freqs_back;
  double z0 = 0.0;
  const auto s_back = parse_touchstone(text, freqs_back, z0);
  ASSERT_EQ(s_back.size(), 3u);
  EXPECT_DOUBLE_EQ(z0, 75.0);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(freqs_back[k], freqs[k], 1e-3);
    const CMat s_direct = z_to_s(z[k], 75.0);
    EXPECT_NEAR(std::abs(s_back[k](0, 0) - s_direct(0, 0)), 0.0, 1e-9);
  }
}

TEST(Touchstone, RoundTripTwoPortOrdering) {
  // The 2-port column-major convention (S11 S21 S12 S22) must survive the
  // round trip.
  const Vec freqs{5e8, 2e9};
  const auto z = sample_sweep(2, freqs, 3);
  const std::string text = write_touchstone(freqs, z, 50.0);
  Vec freqs_back;
  double z0;
  const auto s_back = parse_touchstone(text, freqs_back, z0);
  ASSERT_EQ(s_back.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    const CMat s_direct = z_to_s(z[k], 50.0);
    for (Index i = 0; i < 2; ++i)
      for (Index j = 0; j < 2; ++j)
        EXPECT_NEAR(std::abs(s_back[k](i, j) - s_direct(i, j)), 0.0, 1e-9)
            << i << j;
  }
}

TEST(Touchstone, RoundTripFourPortWithLineWrapping) {
  // 4 ports = 16 entries = 4 lines per block (4 pairs each after the
  // frequency line): exercises the continuation-line parsing.
  const Vec freqs{1e8, 1e9, 5e9};
  const auto z = sample_sweep(4, freqs, 4);
  const std::string text = write_touchstone(freqs, z, 50.0);
  Vec freqs_back;
  double z0;
  const auto s_back = parse_touchstone(text, freqs_back, z0);
  ASSERT_EQ(s_back.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    const CMat s_direct = z_to_s(z[k], 50.0);
    for (Index i = 0; i < 4; ++i)
      for (Index j = 0; j < 4; ++j)
        EXPECT_NEAR(std::abs(s_back[k](i, j) - s_direct(i, j)), 0.0, 1e-9);
  }
}

TEST(Touchstone, PassiveSweepStaysContractive) {
  const Vec freqs{1e8, 1e9};
  const auto z = sample_sweep(3, freqs, 5);
  const std::string text = write_touchstone(freqs, z, 50.0);
  Vec fb;
  double z0;
  for (const auto& s : parse_touchstone(text, fb, z0))
    EXPECT_LE(s_passivity_violation(s), 1e-9);
}

TEST(Touchstone, Validation) {
  const Vec freqs{1e8};
  EXPECT_THROW(write_touchstone(freqs, {}, 50.0), Error);
  Vec fb;
  double z0;
  EXPECT_THROW(parse_touchstone("", fb, z0), Error);
  EXPECT_THROW(parse_touchstone("# GHZ S MA R 50\n1 0 0\n", fb, z0), Error);
}

}  // namespace
}  // namespace sympvl
