#include "mor/reduced_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/random_circuit.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

ReducedModel rc_model(Index nodes, Index ports, Index order, unsigned seed) {
  const Netlist nl = random_rc({.nodes = nodes, .ports = ports, .seed = seed});
  SympvlOptions opt;
  opt.order = order;
  return sympvl_reduce(build_mna(nl), opt);
}

TEST(ReducedModel, PolesAreNegativeRealForRc) {
  const ReducedModel rom = rc_model(30, 2, 12, 1);
  for (const Complex& pole : rom.poles()) {
    EXPECT_LE(pole.real(), 1e-9);
    EXPECT_NEAR(pole.imag(), 0.0, 1e-6 * (1.0 + std::abs(pole.real())));
  }
  EXPECT_TRUE(rom.is_stable());
}

TEST(ReducedModel, EvalAtZeroEqualsDcResistance) {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 300.0);
  nl.add_capacitor(2, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 2;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  const CMat z0 = rom.eval(Complex(0.0, 0.0));
  EXPECT_NEAR(z0(0, 0).real(), 400.0, 1e-6);
}

TEST(ReducedModel, ConjugateSymmetry) {
  const ReducedModel rom = rc_model(25, 2, 10, 3);
  const Complex s(0.3e9, 2.0 * M_PI * 1e9);
  const CMat z = rom.eval(s);
  const CMat zbar = rom.eval(std::conj(s));
  for (Index i = 0; i < 2; ++i)
    for (Index j = 0; j < 2; ++j)
      EXPECT_NEAR(std::abs(zbar(i, j) - std::conj(z(i, j))), 0.0,
                  1e-12 * z.max_abs());
}

TEST(ReducedModel, SweepMatchesPointEval) {
  const ReducedModel rom = rc_model(20, 1, 8, 4);
  const Vec freqs{1e7, 1e8, 1e9};
  const auto zs = sweep(rom, freqs);
  ASSERT_EQ(zs.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    const CMat direct = rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    EXPECT_DOUBLE_EQ(std::abs(zs[k](0, 0)), std::abs(direct(0, 0)));
  }
}

TEST(ReducedModel, TransientMatchesFullCircuit) {
  Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 6});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 14;
  const ReducedModel rom = sympvl_reduce(sys, opt);

  TransientOptions topt;
  topt.dt = 2e-12;
  topt.t_end = 2e-9;
  std::vector<Waveform> drives{ramp_waveform(1e-3, 0.1e-9, 0.2e-9),
                               [](double) { return 0.0; }};
  const auto full = simulate_ports_transient(sys, drives, topt);
  const auto red = rom.simulate_transient(drives, topt);
  ASSERT_EQ(full.time.size(), red.time.size());
  double vmax = 0.0;
  for (size_t k = 0; k < full.time.size(); ++k)
    vmax = std::max(vmax, std::abs(full.outputs(static_cast<Index>(k), 0)));
  for (size_t k = 0; k < full.time.size(); ++k)
    for (Index j = 0; j < 2; ++j)
      EXPECT_NEAR(red.outputs(static_cast<Index>(k), j),
                  full.outputs(static_cast<Index>(k), j), 0.01 * vmax)
          << "t=" << full.time[k] << " port " << j;
}

TEST(ReducedModel, StampIntoHostReproducesCombinedCircuit) {
  // Split a ladder: host = first half driven at node 1, ROM = second half.
  // Compare against simulating the full unsplit circuit.
  Netlist full;
  const Index total = 10;
  for (Index i = 1; i <= total; ++i) {
    full.add_resistor(i - 1, i, 10.0);
    full.add_capacitor(i, 0, 1e-12);
  }
  full.add_resistor(total, 0, 100.0);  // far-end load (keeps every G nonsingular)
  full.add_port(1, 0);
  const MnaSystem full_sys = build_mna(full, MnaForm::kGeneral);

  // Sub-block: the tail of the ladder (segments 5→6 … 9→10 with their
  // shunt capacitors), its input exposed as a port.
  Netlist sub2;
  for (Index i = 1; i <= 5; ++i) {
    sub2.add_resistor(i, i + 1, 10.0);
    sub2.add_capacitor(i + 1, 0, 1e-12);
  }
  sub2.add_resistor(6, 0, 100.0);  // the far-end load belongs to the sub-block
  sub2.add_port(1, 0);
  SympvlOptions opt;
  opt.order = 6;  // sub-block has 6 MNA unknowns: the ROM is exact
  const ReducedModel rom = sympvl_reduce(build_mna(sub2), opt);

  // Host: nodes 1..5 with the drive port at node 1; ROM attaches at node 5.
  Netlist host;
  for (Index i = 1; i <= 5; ++i) {
    host.add_resistor(i - 1, i, 10.0);
    host.add_capacitor(i, 0, 1e-12);
  }
  host.add_port(1, 0);
  // sub2 already contains the 5→6 segment resistor behind its port, so
  // attaching it at host node 5 reproduces the full ladder exactly.
  const MnaSystem combined = rom.stamp_into(host, {5});

  for (double f : {1e7, 1e8, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat zc = ac_z_matrix(combined, s);
    const CMat zf = ac_z_matrix(full_sys, s);
    EXPECT_NEAR(std::abs(zc(0, 0) - zf(0, 0)), 0.0, 1e-6 * std::abs(zf(0, 0)))
        << "f=" << f;
  }
}

TEST(ReducedModel, StampedPencilIsSymmetric) {
  const Netlist nl = random_rc({.nodes = 8, .ports = 1, .seed = 11});
  SympvlOptions opt;
  opt.order = 4;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  Netlist host;
  host.add_resistor(1, 0, 50.0);
  host.add_capacitor(1, 0, 1e-12);
  host.add_port(1, 0);
  const MnaSystem sys = rom.stamp_into(host, {1});
  EXPECT_NEAR(sys.G.asymmetry(), 0.0, 1e-12);
  EXPECT_NEAR(sys.C.asymmetry(), 0.0, 1e-12);
}

TEST(ReducedModel, MomentZeroIsDcValue) {
  const ReducedModel rom = rc_model(20, 2, 10, 12);
  const Mat m0 = rom.moment(0);
  const CMat z0 = rom.eval(Complex(0.0, 0.0));
  for (Index i = 0; i < 2; ++i)
    for (Index j = 0; j < 2; ++j)
      EXPECT_NEAR(m0(i, j), z0(i, j).real(), 1e-9 * std::abs(m0(i, j)) + 1e-12);
}

TEST(ReducedModel, SerializationRoundTripBitExact) {
  const ReducedModel rom = rc_model(25, 2, 10, 21);
  const ReducedModel back = ReducedModel::from_text(rom.to_text());
  EXPECT_EQ(back.order(), rom.order());
  EXPECT_EQ(back.port_count(), rom.port_count());
  EXPECT_EQ(back.variable(), rom.variable());
  EXPECT_EQ(back.s_prefactor(), rom.s_prefactor());
  EXPECT_DOUBLE_EQ(back.shift(), rom.shift());
  EXPECT_DOUBLE_EQ((back.t() - rom.t()).max_abs(), 0.0);
  EXPECT_DOUBLE_EQ((back.delta() - rom.delta()).max_abs(), 0.0);
  EXPECT_DOUBLE_EQ((back.rho() - rom.rho()).max_abs(), 0.0);
  const Complex s(0.0, 2.0 * M_PI * 1e9);
  EXPECT_DOUBLE_EQ(std::abs(back.eval(s)(0, 1)), std::abs(rom.eval(s)(0, 1)));
}

TEST(ReducedModel, SerializationPreservesShiftedLcModels) {
  const Netlist nl = random_lc({.nodes = 12, .ports = 1, .seed = 22,
                                .grounded = false});
  SympvlOptions opt;
  opt.order = 6;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  ASSERT_GT(rom.shift(), 0.0);
  const ReducedModel back = ReducedModel::from_text(rom.to_text());
  const Complex s(0.0, 2.0 * M_PI * 3e9);
  EXPECT_NEAR(std::abs(back.eval(s)(0, 0) - rom.eval(s)(0, 0)), 0.0, 0.0);
}

TEST(ReducedModel, SaveLoadFile) {
  const ReducedModel rom = rc_model(15, 1, 6, 23);
  const std::string path = "/tmp/sympvl_model_test.rom";
  rom.save(path);
  const ReducedModel back = ReducedModel::load(path);
  EXPECT_EQ(back.order(), rom.order());
  std::remove(path.c_str());
  EXPECT_THROW(ReducedModel::load("/nonexistent/m.rom"), Error);
}

TEST(ReducedModel, FromTextRejectsGarbage) {
  EXPECT_THROW(ReducedModel::from_text(""), Error);
  EXPECT_THROW(ReducedModel::from_text("sympvl-reduced-model v2\n"), Error);
  const ReducedModel rom = rc_model(8, 1, 3, 24);
  std::string text = rom.to_text();
  text.resize(text.size() / 2);  // truncated
  EXPECT_THROW(ReducedModel::from_text(text), Error);
}

TEST(ReducedModel, FromTextRejectsSectionSizesTheTextCannotHold) {
  const std::string head =
      "sympvl-reduced-model v1\norder 4 ports 1 variable s prefactor 0 "
      "shift 0\n";
  // rows·cols overflows, and the section disagrees with the header.
  const std::string overflow = head + "T 4 4611686018427387904\n1 2 3\n";
  // Consistent sizes, but 10¹² entries in a text of a few dozen bytes.
  const std::string huge =
      "sympvl-reduced-model v1\norder 1000000 ports 1 variable s prefactor 0 "
      "shift 0\nT 1000000 1000000\n1 2 3\n";
  for (const std::string& text : {overflow, huge}) {
    try {
      ReducedModel::from_text(text);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo) << e.what();
    }
  }
}

TEST(ReducedModel, ShiftedModelRejectsTransient) {
  const Netlist nl = random_lc({.nodes = 10, .ports = 1, .seed = 13,
                                .grounded = false});
  SympvlOptions opt;
  opt.order = 4;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  TransientOptions topt;
  EXPECT_THROW(rom.simulate_transient({[](double) { return 0.0; }}, topt),
               Error);
}

}  // namespace
}  // namespace sympvl
