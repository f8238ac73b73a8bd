#include "mor/arnoldi.hpp"

#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/moments.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

TEST(Arnoldi, ExactOnTinyCircuit) {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  ArnoldiOptions opt;
  opt.order = 2;
  const ArnoldiModel m = arnoldi_reduce(sys, opt);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(m.eval(s)(0, 0) - exact), 0.0, 1e-8 * std::abs(exact));
  }
}

TEST(Arnoldi, MatchesHalfTheMoments) {
  // Congruence projection matches ⌊n/p⌋ moments (vs 2⌊n/p⌋ for SyMPVL).
  const Netlist nl = random_rc({.nodes = 30, .ports = 1, .seed = 2});
  const MnaSystem sys = build_mna(nl);
  const Index n = 6;
  ArnoldiOptions opt;
  opt.order = n;
  const ArnoldiModel m = arnoldi_reduce(sys, opt);
  const Vec exact = exact_moments_scalar(sys, n + 1);
  for (Index k = 0; k < n; ++k)
    EXPECT_NEAR(m.moment(k)(0, 0), exact[static_cast<size_t>(k)],
                1e-6 * std::abs(exact[static_cast<size_t>(k)]))
        << "moment " << k;
}

TEST(Arnoldi, SymmetricProjectionMatchesTwoNMomentsLikePade) {
  // For SYMMETRIC pencils the one-sided Galerkin projection depends only
  // on the Krylov span, and with span(V) = K_n the projection coincides
  // with the (G̃-inner-product) Lanczos/Padé approximation: BOTH methods
  // match 2n moments on RLC circuits. The general ⌊n/p⌋-vs-2⌊n/p⌋ gap of
  // [16] applies to nonsymmetric systems; what distinguishes SyMPVL here
  // is cost (short recurrences, banded reduced matrices) — see
  // bench_arnoldi_ablation.
  const Netlist nl = random_rc({.nodes = 40, .ports = 1, .seed = 3});
  const MnaSystem sys = build_mna(nl);
  const Index n = 5;
  ArnoldiOptions aopt;
  aopt.order = n;
  const ArnoldiModel arn = arnoldi_reduce(sys, aopt);
  SympvlOptions sopt;
  sopt.order = n;
  const ReducedModel rom = sympvl_reduce(sys, sopt);
  const Vec exact = exact_moments_scalar(sys, 2 * n + 1);
  for (Index k = 0; k < 2 * n; ++k) {
    const double scale = std::abs(exact[static_cast<size_t>(k)]);
    EXPECT_NEAR(rom.moment(k)(0, 0), exact[static_cast<size_t>(k)], 1e-5 * scale)
        << "pade moment " << k;
    EXPECT_NEAR(arn.moment(k)(0, 0), exact[static_cast<size_t>(k)], 1e-5 * scale)
        << "projection moment " << k;
  }
  // Moment 2n is the first the Padé theory stops guaranteeing.
  const Index k = 2 * n;
  const double scale = std::abs(exact[static_cast<size_t>(k)]);
  EXPECT_GT(std::abs(rom.moment(k)(0, 0) - exact[static_cast<size_t>(k)]),
            1e-9 * scale);
}

TEST(Arnoldi, RcModelsPassivePreserving) {
  // Congruence projection of PSD pencils keeps poles in the left half
  // plane at every order (the [16]/PRIMA guarantee).
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 4});
  const MnaSystem sys = build_mna(nl);
  for (Index order : {2, 4, 8, 12}) {
    ArnoldiOptions opt;
    opt.order = order;
    const ArnoldiModel m = arnoldi_reduce(sys, opt);
    EXPECT_TRUE(m.is_stable()) << "order " << order;
  }
}

TEST(Arnoldi, BlockDeflationOnRedundantPorts) {
  Netlist nl;
  nl.add_resistor(1, 2, 10.0);
  nl.add_resistor(2, 0, 10.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 1e-12);
  nl.add_port(1, 0, "a");
  nl.add_port(1, 0, "b");  // duplicate
  const MnaSystem sys = build_mna(nl);
  ArnoldiOptions opt;
  opt.order = 4;
  const ArnoldiModel m = arnoldi_reduce(sys, opt);
  // The duplicate column deflates; the model still evaluates and is exact
  // (2-node circuit, order ≥ 2 achieved).
  const Complex s(0.0, 2.0 * M_PI * 1e9);
  const CMat z = m.eval(s);
  const CMat exact = ac_z_matrix(sys, s);
  EXPECT_NEAR(std::abs(z(0, 0) - exact(0, 0)), 0.0, 1e-8 * std::abs(exact(0, 0)));
  EXPECT_NEAR(std::abs(z(1, 1) - exact(0, 0)), 0.0, 1e-8 * std::abs(exact(0, 0)));
}

TEST(Arnoldi, ConvergesWithOrder) {
  const Netlist nl = random_rc({.nodes = 50, .ports = 2, .seed = 5});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 10);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});
  double prev = 1e100;
  for (Index order : {4, 8, 16, 32}) {
    ArnoldiOptions opt;
    opt.order = order;
    const ArnoldiModel m = arnoldi_reduce(sys, opt);
    double err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      const Complex s(0.0, 2.0 * M_PI * freqs[k]);
      const CMat z = m.eval(s);
      for (Index i = 0; i < 2; ++i)
        for (Index j = 0; j < 2; ++j)
          err = std::max(err, std::abs(z(i, j) - exact[k](i, j)) /
                                  (std::abs(exact[k](i, j)) + 1e-300));
    }
    EXPECT_LT(err, prev * 1.5);
    prev = err;
  }
  EXPECT_LT(prev, 1e-5);
}

TEST(Arnoldi, InvalidOrder) {
  const Netlist nl = random_rc({.nodes = 5, .ports = 1, .seed = 6});
  ArnoldiOptions opt;
  opt.order = 0;
  EXPECT_THROW(arnoldi_reduce(build_mna(nl), opt), Error);
}

}  // namespace
}  // namespace sympvl
