#include "mor/rational.hpp"

#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

double sweep_err(const ArnoldiModel& m, const MnaSystem& sys, const Vec& freqs,
                 const std::vector<CMat>& exact) {
  double err = 0.0;
  for (size_t k = 0; k < freqs.size(); ++k) {
    const CMat z = m.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j)
        err = std::max(err, std::abs(z(i, j) - exact[k](i, j)) /
                                (exact[k].max_abs() + 1e-300));
  }
  (void)sys;
  return err;
}

TEST(Rational, SinglePointMatchesExactOnTinyCircuit) {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  RationalOptions opt;
  opt.shifts = {0.0};
  opt.iterations_per_shift = 2;  // 2 vectors = the full space
  const ArnoldiModel m = rational_reduce(sys, opt);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(m.eval(s)(0, 0) - exact), 0.0, 1e-8 * std::abs(exact));
  }
}

TEST(Rational, MultiPointBeatsSinglePointOnWideBand) {
  // Wide band (5 decades): a single DC expansion of matched total order
  // loses at the top of the band; spreading the same budget across points
  // wins.
  const Netlist nl = random_rc({.nodes = 120, .ports = 2, .seed = 9});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e5, 1e10, 17);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true}).values;

  RationalOptions multi;
  multi.shifts = rational_shifts_for_band(sys, 1e5, 1e10, 4);
  multi.iterations_per_shift = 2;  // total basis ≈ 4·2·2 = 16
  const ArnoldiModel m_multi = rational_reduce(sys, multi);

  RationalOptions single;
  single.shifts = {0.0};
  single.iterations_per_shift = 8;  // same total budget ≈ 16
  const ArnoldiModel m_single = rational_reduce(sys, single);

  const double err_multi = sweep_err(m_multi, sys, freqs, exact);
  const double err_single = sweep_err(m_single, sys, freqs, exact);
  EXPECT_LT(err_multi, err_single);
  EXPECT_LT(err_multi, 1e-2);
}

TEST(Rational, AccurateNearEveryExpansionPoint) {
  const Netlist nl = random_rc({.nodes = 80, .ports = 1, .seed = 10});
  const MnaSystem sys = build_mna(nl);
  RationalOptions opt;
  opt.shifts = {2.0 * M_PI * 1e7, 2.0 * M_PI * 1e9};
  opt.iterations_per_shift = 3;
  const ArnoldiModel m = rational_reduce(sys, opt);
  // Near each expansion point the model is locally excellent.
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(m.eval(s)(0, 0) - exact), 0.0, 1e-4 * std::abs(exact))
        << f;
  }
}

TEST(Rational, RcModelsRemainStable) {
  // Congruence projection preserves the PSD pencil: stable at any budget.
  const Netlist nl = random_rc({.nodes = 50, .ports = 2, .seed = 11});
  const MnaSystem sys = build_mna(nl);
  for (Index iters : {1, 2, 4}) {
    RationalOptions opt;
    opt.shifts = rational_shifts_for_band(sys, 1e6, 1e10, 3);
    opt.iterations_per_shift = iters;
    const ArnoldiModel m = rational_reduce(sys, opt);
    EXPECT_TRUE(m.is_stable()) << iters;
  }
}

TEST(Rational, ShiftGridMapsVariable) {
  const Netlist rc = random_rc({.nodes = 10, .ports = 1, .seed = 12});
  const MnaSystem sys_s = build_mna(rc);
  const Vec shifts_s = rational_shifts_for_band(sys_s, 1e6, 1e8, 3);
  EXPECT_NEAR(shifts_s[0], 2.0 * M_PI * 1e6, 1.0);
  EXPECT_NEAR(shifts_s[2], 2.0 * M_PI * 1e8, 1e2);

  const Netlist lc = random_lc({.nodes = 10, .ports = 1, .seed = 13});
  const MnaSystem sys_lc = build_mna(lc);
  ASSERT_EQ(sys_lc.variable, SVariable::kSSquared);
  const Vec shifts_lc = rational_shifts_for_band(sys_lc, 1e6, 1e8, 2);
  EXPECT_NEAR(shifts_lc[0], std::pow(2.0 * M_PI * 1e6, 2.0), 1e7);
}

TEST(Rational, HandlesSingularGAtNonzeroShifts) {
  // Ungrounded LC: σ = 0 fails, but any positive shift factors.
  const Netlist nl = random_lc({.nodes = 15, .ports = 1, .seed = 14,
                                .grounded = false});
  const MnaSystem sys = build_mna(nl);
  RationalOptions bad;
  bad.shifts = {0.0};
  EXPECT_THROW(rational_reduce(sys, bad), Error);
  RationalOptions good;
  good.shifts = rational_shifts_for_band(sys, 1e8, 1e10, 2);
  good.iterations_per_shift = 3;
  const ArnoldiModel m = rational_reduce(sys, good);
  EXPECT_GE(m.order(), 3);
}

TEST(Rational, InvalidOptions) {
  const Netlist nl = random_rc({.nodes = 5, .ports = 1, .seed = 15});
  const MnaSystem sys = build_mna(nl);
  RationalOptions opt;
  EXPECT_THROW(rational_reduce(sys, opt), Error);  // no shifts
  opt.shifts = {-1.0};
  EXPECT_THROW(rational_reduce(sys, opt), Error);  // negative shift
  opt.shifts = {0.0};
  opt.iterations_per_shift = 0;
  EXPECT_THROW(rational_reduce(sys, opt), Error);
}

}  // namespace
}  // namespace sympvl
