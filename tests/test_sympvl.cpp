#include "mor/sympvl.hpp"

#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/moments.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

// Max relative deviation between two complex matrices.
double rel_err(const CMat& a, const CMat& b) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) {
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return num / (den + 1e-300);
}

TEST(Sympvl, ExactOnTinyRcCircuit) {
  // A 2-node RC circuit has a 2-dimensional state space: order 2 is exact.
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 2;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  for (double f : {1e6, 1e9, 3e10}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    EXPECT_LT(rel_err(rom.eval(s), ac_z_matrix(sys, s)), 1e-9) << f;
  }
}

TEST(Sympvl, MomentMatchingSisoRc) {
  // q(n) = 2n moments for p = 1.
  const Netlist nl = random_rc({.nodes = 30, .ports = 1, .seed = 5});
  const MnaSystem sys = build_mna(nl);
  const Index n = 6;
  SympvlOptions opt;
  opt.order = n;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  const auto exact = exact_moments(sys, 2 * n);
  for (Index k = 0; k < 2 * n; ++k) {
    const Mat mu = rom.moment(k);
    const double scale = std::abs(exact[static_cast<size_t>(k)](0, 0));
    EXPECT_NEAR(mu(0, 0), exact[static_cast<size_t>(k)](0, 0), 1e-7 * scale)
        << "moment " << k;
  }
}

TEST(Sympvl, MomentMatchingMultiportRc) {
  // q(n) ≥ 2⌊n/p⌋ matrix moments for p > 1.
  const Index p = 3, n = 9;  // 2·⌊9/3⌋ = 6 moments
  const Netlist nl = random_rc({.nodes = 40, .ports = p, .seed = 7});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = n;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  const Index q = 2 * (n / p);
  const auto exact = exact_moments(sys, q);
  for (Index k = 0; k < q; ++k) {
    const Mat mu = rom.moment(k);
    const double scale = exact[static_cast<size_t>(k)].max_abs();
    EXPECT_NEAR((mu - exact[static_cast<size_t>(k)]).max_abs(), 0.0,
                1e-6 * scale)
        << "moment " << k;
  }
}

TEST(Sympvl, MomentMatchingGeneralRlc) {
  // Indefinite G and C (J ≠ I path) still matches moments.
  const Netlist nl = random_rlc({.nodes = 25, .ports = 2, .seed = 3});
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  const Index n = 8, p = 2;
  SympvlOptions opt;
  opt.order = n;
  SympvlReport report;
  const ReducedModel rom = sympvl_reduce(sys, opt, &report);
  ASSERT_GE(rom.order(), 4);
  const Index q = 2 * (rom.order() / p);
  const auto exact = exact_moments(sys, q, report.s0_used);
  for (Index k = 0; k < q; ++k) {
    const Mat mu = rom.moment(k);
    const double scale = exact[static_cast<size_t>(k)].max_abs();
    EXPECT_NEAR((mu - exact[static_cast<size_t>(k)]).max_abs(), 0.0,
                1e-5 * scale)
        << "moment " << k;
  }
}

TEST(Sympvl, IndefiniteCircuitsReportNegativeJ) {
  const Netlist nl = random_rlc({.nodes = 20, .ports = 1, .seed = 9});
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  SympvlOptions opt;
  opt.order = 6;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  // General RLC MNA is indefinite: some J entries must be negative.
  EXPECT_GT(report.negative_j, 0);
}

TEST(Sympvl, DefiniteCircuitsHaveAllPositiveJ) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 2, .seed = 10});
  ReduceOptions opt;
  opt.order = 8;
  const ReduceResult res = reduce(nl, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.report.negative_j, 0);
}

TEST(Sympvl, AutoShiftHandlesSingularG) {
  // LC circuit not touching ground through inductors: G singular, the
  // paper's eq. 26 shift must kick in automatically.
  const Netlist nl = random_lc({.nodes = 15, .ports = 1, .seed = 4,
                                .grounded = false});
  const MnaSystem sys = build_mna(nl, MnaForm::kLC);
  SympvlOptions opt;
  opt.order = 8;
  SympvlReport report;
  const ReducedModel rom = sympvl_reduce(sys, opt, &report);
  EXPECT_GT(report.s0_used, 0.0);
  EXPECT_EQ(rom.shift(), report.s0_used);
}

TEST(Sympvl, ConvergesWithOrderOnRc) {
  const Netlist nl = random_rc({.nodes = 60, .ports = 2, .seed = 12});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 15);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});
  double prev_err = 1e100;
  for (Index order : {4, 8, 16, 32}) {
    SympvlOptions opt;
    opt.order = order;
    const ReducedModel rom = sympvl_reduce(sys, opt);
    double err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k)
      err = std::max(err, rel_err(rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k])),
                                  exact[k]));
    EXPECT_LT(err, prev_err * 1.5) << "order " << order;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);  // order 32 should be essentially exact here
}

TEST(Sympvl, ReportsDeflationForRedundantPorts) {
  // Two ports on the same node: B has rank 1, one starting vector deflates.
  Netlist nl;
  nl.add_resistor(1, 2, 10.0);
  nl.add_resistor(2, 0, 10.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 1e-12);
  nl.add_port(1, 0, "a");
  nl.add_port(1, 0, "b");
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 2;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  EXPECT_GE(report.deflations, 1);
}

TEST(Sympvl, ZnIsSymmetric) {
  const Netlist nl = random_rc({.nodes = 30, .ports = 3, .seed = 20});
  ReduceOptions opt;
  opt.order = 12;
  const CMat z = reduce(nl, opt).value().eval(Complex(0.0, 2.0 * M_PI * 1e9));
  for (Index i = 0; i < 3; ++i)
    for (Index j = i + 1; j < 3; ++j)
      EXPECT_NEAR(std::abs(z(i, j) - z(j, i)), 0.0, 1e-10 * z.max_abs());
}

TEST(Sympvl, InvalidOptions) {
  const Netlist nl = random_rc({.nodes = 5, .ports = 1, .seed = 1});
  SympvlOptions opt;
  opt.order = 0;
  EXPECT_THROW(sympvl_reduce(build_mna(nl), opt), Error);
}

}  // namespace
}  // namespace sympvl
