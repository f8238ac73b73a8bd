#include "sim/ac.hpp"

#include <gtest/gtest.h>

#include "fault.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/factor_chain.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

// Ordering-free reference: Z(s) from a dense LU solve of (G + f(s)C)X = B.
CMat dense_z(const MnaSystem& sys, Complex s) {
  const Complex fs = sys.map_s(s);
  const Mat g = sys.G.to_dense();
  const Mat c = sys.C.to_dense();
  const Index n = sys.size(), p = sys.port_count();
  CMat a(n, n), b(n, p);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = g(i, j) + fs * c(i, j);
    for (Index j = 0; j < p; ++j) b(i, j) = sys.B(i, j);
  }
  CMat z = matmul_transA(sys.B, dense_solve(a, b));
  z *= sys.prefactor(s);
  return z;
}

// max |a − b| / max |b|.
double max_rel_diff(const CMat& a, const CMat& b) {
  double diff = 0.0, scale = 0.0;
  for (Index i = 0; i < b.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) {
      diff = std::max(diff, std::abs(a(i, j) - b(i, j)));
      scale = std::max(scale, std::abs(b(i, j)));
    }
  return diff / scale;
}

TEST(Ac, RcLowPassAnalytic) {
  // Port impedance of R ∥ C: Z = R/(1+sRC).
  const double r = 1000.0, c = 1e-12;
  Netlist nl;
  nl.add_resistor(1, 0, r);
  nl.add_capacitor(1, 0, c);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  for (double f : {1e6, 1e8, 1e9, 1e10}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex expected = r / (1.0 + s * r * c);
    const CMat z = ac_z_matrix(sys, s);
    EXPECT_NEAR(std::abs(z(0, 0) - expected), 0.0, 1e-9 * std::abs(expected));
  }
}

TEST(Ac, SeriesRlcResonator) {
  // Series R-L-C from port to ground: Z = R + sL + 1/(sC).
  const double r = 5.0, l = 1e-9, c = 1e-12;
  Netlist nl;
  nl.add_resistor(1, 2, r);
  nl.add_inductor(2, 3, l);
  nl.add_capacitor(3, 0, c);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  for (double f : {1e8, 5.0329e9 /* ~resonance */, 2e10}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex expected = r + s * l + 1.0 / (s * c);
    const CMat z = ac_z_matrix(sys, s);
    EXPECT_NEAR(std::abs(z(0, 0) - expected), 0.0,
                1e-8 * std::abs(expected) + 1e-12)
        << "f=" << f;
  }
}

TEST(Ac, TwoPortReciprocity) {
  Netlist nl;
  nl.add_resistor(1, 2, 10.0);
  nl.add_resistor(2, 3, 20.0);
  nl.add_resistor(3, 0, 30.0);
  nl.add_capacitor(2, 0, 1e-12);
  nl.add_capacitor(3, 0, 2e-12);
  nl.add_port(1, 0);
  nl.add_port(3, 0);
  const MnaSystem sys = build_mna(nl);
  const CMat z = ac_z_matrix(sys, Complex(0.0, 2.0 * M_PI * 1e9));
  EXPECT_NEAR(std::abs(z(0, 1) - z(1, 0)), 0.0, 1e-12 * std::abs(z(0, 1)));
}

TEST(Ac, CoupledInductorsTransformerAction) {
  // Two coupled inductors (k = 0.5), secondary loaded with R. At high
  // coupling the transfer impedance is sM·(R/(R+sL2))-ish; just verify
  // against the analytic 2x2 solve.
  const double l1 = 2e-9, l2 = 8e-9, k = 0.5, r = 50.0;
  const double m = k * std::sqrt(l1 * l2);
  Netlist nl;
  const Index i1 = nl.add_inductor(1, 0, l1);
  const Index i2 = nl.add_inductor(2, 0, l2);
  nl.add_mutual(i1, i2, k);
  nl.add_resistor(2, 0, r);
  nl.add_port(1, 0);
  nl.add_port(2, 0);
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  const double f = 3e9;
  const Complex s(0.0, 2.0 * M_PI * f);
  const CMat z = ac_z_matrix(sys, s);
  // Analytic: V1 = sL1 I1 + sM I2; V2 = sM I1 + sL2 I2; port 2 loaded by R
  // in parallel at node 2... with port currents injected, solve exactly:
  // Drive I1 = 1, I2 = 0 (port 2 open -> only R carries node-2 current).
  // Node 2: inductor current i2' satisfies V2 = -R i2' ... cross-check
  // through the two-port formula Z11 = sL1 - (sM)²/(sL2 + R).
  const Complex z11_expected = s * l1 - (s * m) * (s * m) / (s * l2 + r);
  EXPECT_NEAR(std::abs(z(0, 0) - z11_expected), 0.0,
              1e-8 * std::abs(z11_expected));
}

TEST(Ac, SweepShapes) {
  Netlist nl;
  nl.add_resistor(1, 0, 100.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 13);
  const auto zs = sweep(sys, freqs, {.throw_on_failure = true});
  ASSERT_EQ(zs.size(), 13u);
  // Low-pass: magnitude decreases monotonically.
  for (size_t k = 1; k < zs.size(); ++k)
    EXPECT_LT(std::abs(zs[k](0, 0)), std::abs(zs[k - 1](0, 0)) + 1e-12);
}

TEST(Ac, VoltageTransferDivider) {
  // Voltage transfer across a resistive divider: drive port 0 (top),
  // observe port 1 (mid): H = R2/(R1+R2).
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 300.0);
  nl.add_port(1, 0);
  nl.add_port(2, 0);
  const MnaSystem sys = build_mna(nl);
  const CMat z = ac_z_matrix(sys, Complex(0.0, 0.0));
  const Complex h = voltage_transfer(z, 0, 1);
  EXPECT_NEAR(h.real(), 0.75, 1e-12);
}

TEST(Ac, SweepEngineMatchesPointwiseFactorization) {
  // The engine's amortized-symbolic path must agree with the one-shot
  // ac_z_matrix at every point, including general RLC pencils.
  Netlist nl;
  nl.add_resistor(1, 2, 25.0);
  const Index l1 = nl.add_inductor(2, 3, 2e-9);
  const Index l2 = nl.add_inductor(3, 0, 1e-9);
  nl.add_mutual(l1, l2, 0.4);
  nl.add_capacitor(2, 0, 1e-12);
  nl.add_capacitor(3, 0, 2e-12);
  nl.add_port(1, 0);
  nl.add_port(3, 0);
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  const AcSweepEngine engine(sys);
  for (double f : {1e7, 1e8, 1e9, 7e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat a = engine.z_at(s);
    const CMat b = ac_z_matrix(sys, s);
    for (Index i = 0; i < 2; ++i)
      for (Index j = 0; j < 2; ++j)
        EXPECT_NEAR(std::abs(a(i, j) - b(i, j)), 0.0, 1e-10 * std::abs(b(i, j)) + 1e-15)
            << "f=" << f;
    EXPECT_LT(max_rel_diff(a, dense_z(sys, s)), 1e-10) << "f=" << f;
  }

  // The default ordering against the ordering-free dense reference on
  // random RC and general RLC circuits.
  for (unsigned seed : {3u, 17u, 42u}) {
    const RandomCircuitOptions opt{.nodes = 30, .ports = 3, .seed = seed};
    for (const MnaSystem& rsys :
         {build_mna(random_rc(opt)), build_mna(random_rlc(opt), MnaForm::kGeneral)}) {
      const AcSweepEngine rengine(rsys);
      for (double f : {1e6, 1e8, 1e9}) {
        const Complex s(0.0, 2.0 * M_PI * f);
        EXPECT_LT(max_rel_diff(rengine.z_at(s), dense_z(rsys, s)), 1e-10)
            << "seed=" << seed << " f=" << f;
      }
    }
  }
}

TEST(Ac, SweepEngineSurvivesSystemDestruction) {
  std::unique_ptr<AcSweepEngine> engine;
  {
    Netlist nl;
    nl.add_resistor(1, 0, 50.0);
    nl.add_capacitor(1, 0, 1e-12);
    nl.add_port(1, 0);
    const MnaSystem sys = build_mna(nl);
    engine = std::make_unique<AcSweepEngine>(sys);
  }
  const CMat z = engine->z_at(Complex(0.0, 2.0 * M_PI * 1e9));
  EXPECT_GT(std::abs(z(0, 0)), 0.0);
}

TEST(Ac, SweepEngineHandlesStructuralFallbackPoints) {
  // The series R-L structural cancellation defeats the unpivoted path at
  // every frequency; the engine must transparently use the pivoted LU.
  Netlist nl;
  nl.add_resistor(1, 2, 5.0);
  nl.add_inductor(2, 3, 1e-9);
  nl.add_capacitor(3, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  const AcSweepEngine engine(sys);
  const double f = 1e9;
  const Complex s(0.0, 2.0 * M_PI * f);
  const Complex expected = 5.0 + s * 1e-9 + 1.0 / (s * 1e-12);
  EXPECT_NEAR(std::abs(engine.z_at(s)(0, 0) - expected), 0.0,
              1e-9 * std::abs(expected));
}

// More ports than one solve panel: Z(s) equals the one-block solve of all
// p columns, entry for entry, bits included — through ac_z_matrix and the
// engine's z_at (row-restricted panel solves over the ports' reach), on
// the LDLᵀ rung and on the LU rung the factor.ldlt fault site forces.
TEST(Ac, PortPanelsMatchOneBlockSolve) {
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 120, .ports = 70, .seed = 9}));
  ASSERT_EQ(sys.port_count(), 70);
  const Complex s(0.0, 2.0 * M_PI * 1e8);
  CMat b(sys.size(), sys.port_count());
  for (Index i = 0; i < sys.size(); ++i)
    for (Index j = 0; j < sys.port_count(); ++j) b(i, j) = sys.B(i, j);
  const AcSweepEngine engine(sys);
  for (const bool lu : {false, true}) {
    SCOPED_TRACE(lu ? "LU rung" : "LDLT rung");
    if (lu) fault::arm("factor.ldlt@*");
    const FactorChainZ chain(pencil_combine(sys.G, sys.C, sys.map_s(s)));
    CMat ref = matmul_transA(sys.B, chain.solve(b));
    ref *= sys.prefactor(s);
    const CMat z = ac_z_matrix(sys, s);
    const CMat ze = engine.z_at(s);
    if (lu) {
      EXPECT_EQ(fault::fire_count("factor.ldlt"), 3);
      fault::disarm();
    }
    ASSERT_EQ(chain.used_fallback(), lu);
    for (Index a = 0; a < z.rows(); ++a)
      for (Index c = 0; c < z.cols(); ++c) {
        EXPECT_EQ(z(a, c), ref(a, c));
        EXPECT_EQ(ze(a, c), ref(a, c));
      }
  }
  EXPECT_LT(max_rel_diff(engine.z_at(s), dense_z(sys, s)), 1e-9);
}

TEST(Ac, FrequencyGrids) {
  const Vec lin = linear_frequency_grid(0.0, 10.0, 11);
  EXPECT_DOUBLE_EQ(lin.front(), 0.0);
  EXPECT_DOUBLE_EQ(lin.back(), 10.0);
  EXPECT_DOUBLE_EQ(lin[5], 5.0);
  const Vec lg = log_frequency_grid(1.0, 1000.0, 4);
  EXPECT_NEAR(lg[1], 10.0, 1e-12);
  EXPECT_NEAR(lg[2], 100.0, 1e-12);
  EXPECT_THROW(log_frequency_grid(0.0, 1.0, 5), Error);
  EXPECT_THROW(linear_frequency_grid(1.0, 1.0, 5), Error);
}

}  // namespace
}  // namespace sympvl
