#include "mor/vectorfit.hpp"

#include <gtest/gtest.h>

#include "circuit/network_params.hpp"
#include "gen/random_circuit.hpp"
#include "io/touchstone.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

double max_rel_err(const ModalModel& m, const Vec& freqs,
                   const std::vector<CMat>& data) {
  double err = 0.0;
  for (size_t k = 0; k < freqs.size(); ++k) {
    const CMat z = m.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j)
        err = std::max(err, std::abs(z(i, j) - data[k](i, j)) /
                                (data[k].max_abs() + 1e-300));
  }
  return err;
}

TEST(VectorFit, RecoversKnownRationalFunction) {
  // Synthesize data from a known 3-pole model and fit it back.
  CVec poles{Complex(-1e8, 0.0), Complex(-5e8, 3e9), Complex(-5e8, -3e9)};
  std::vector<CMat> residues;
  for (double r : {2e10, 5e9, 5e9}) {
    CMat m(1, 1);
    m(0, 0) = Complex(r, 0.0);
    residues.push_back(m);
  }
  residues[1](0, 0) = Complex(5e9, 1e9);
  residues[2](0, 0) = Complex(5e9, -1e9);
  Mat d(1, 1);
  d(0, 0) = 3.0;
  const ModalModel truth(poles, residues, d, SVariable::kS, 0);

  const Vec freqs = log_frequency_grid(1e6, 1e10, 60);
  std::vector<CMat> data;
  for (double f : freqs) data.push_back(truth.eval(Complex(0.0, 2.0 * M_PI * f)));

  VectorFitOptions opt;
  opt.poles = 3;
  opt.iterations = 12;
  const VectorFitResult fit = vector_fit(freqs, data, opt);
  EXPECT_LT(max_rel_err(fit.model, freqs, data), 1e-6);
  EXPECT_TRUE(fit.model.is_stable(1.0));
}

TEST(VectorFit, FitsRcSweepAccurately) {
  const Netlist nl = random_rc({.nodes = 40, .ports = 2, .seed = 71});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e5, 1e10, 50);
  const auto data = sweep(sys, freqs, {.throw_on_failure = true}).values;
  VectorFitOptions opt;
  opt.poles = 10;
  opt.iterations = 10;
  const VectorFitResult fit = vector_fit(freqs, data, opt);
  EXPECT_LT(max_rel_err(fit.model, freqs, data), 1e-3);
  EXPECT_TRUE(fit.model.is_stable(1.0));
  // The model is symmetric (reciprocal) by construction.
  const CMat z = fit.model.eval(Complex(0.0, 2.0 * M_PI * 1e8));
  EXPECT_NEAR(std::abs(z(0, 1) - z(1, 0)), 0.0, 1e-12 * z.max_abs());
}

TEST(VectorFit, RealRationalOutput) {
  // Conjugate pairing must make the fit real on the real axis.
  const Netlist nl = random_rc({.nodes = 25, .ports = 1, .seed = 72});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 30);
  const auto data = sweep(sys, freqs, {.throw_on_failure = true}).values;
  VectorFitOptions opt;
  opt.poles = 6;
  const VectorFitResult fit = vector_fit(freqs, data, opt);
  const CMat z = fit.model.eval(Complex(1e7, 0.0));  // a real s
  EXPECT_NEAR(z(0, 0).imag(), 0.0, 1e-9 * (1.0 + std::abs(z(0, 0))));
}

TEST(VectorFit, StabilityEnforcementFlipsPoles) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 1, .seed = 73});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 25);
  const auto data = sweep(sys, freqs, {.throw_on_failure = true}).values;
  VectorFitOptions opt;
  opt.poles = 6;
  opt.enforce_stable = true;
  const VectorFitResult fit = vector_fit(freqs, data, opt);
  for (const Complex& pole : fit.model.pencil_poles())
    EXPECT_LE(pole.real(), 1e-6 * (1.0 + std::abs(pole)));
}

TEST(VectorFit, RmsErrorReported) {
  const Netlist nl = random_rc({.nodes = 15, .ports = 1, .seed = 74});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 20);
  const auto data = sweep(sys, freqs, {.throw_on_failure = true}).values;
  VectorFitOptions opt;
  opt.poles = 8;
  const VectorFitResult fit = vector_fit(freqs, data, opt);
  EXPECT_GE(fit.rms_error, 0.0);
  EXPECT_LT(fit.rms_error, 0.1 * data.front().max_abs());
}

TEST(VectorFit, MacromodelsTouchstoneData) {
  // The realistic data-driven loop: sweep a circuit, write a Touchstone
  // file, parse it back, convert S→Z, and fit a macromodel to the parsed
  // data — no access to the original netlist.
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 75});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 40);
  const std::string text = write_touchstone(
      freqs, sweep(sys, freqs, {.throw_on_failure = true}).values, 50.0);

  Vec freqs_back;
  double z0 = 0.0;
  const auto s_params = parse_touchstone(text, freqs_back, z0);
  std::vector<CMat> z_data;
  for (const auto& sm : s_params) z_data.push_back(s_to_z(sm, z0));

  VectorFitOptions opt;
  opt.poles = 12;
  opt.iterations = 10;
  const VectorFitResult fit = vector_fit(freqs_back, z_data, opt);
  EXPECT_LT(max_rel_err(fit.model, freqs_back, z_data), 1e-3);
  // And the macromodel agrees with the circuit it never saw.
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat z = fit.model.eval(s);
    const CMat exact = ac_z_matrix(sys, s);
    EXPECT_LT((z - exact).max_abs() / exact.max_abs(), 1e-3) << f;
  }
}

TEST(VectorFit, Validation) {
  const Vec freqs{1e6, 1e7};
  std::vector<CMat> data{CMat::identity(1), CMat::identity(1)};
  VectorFitOptions opt;
  opt.poles = 1;
  EXPECT_THROW(vector_fit(freqs, data, opt), Error);
  opt.poles = 2;
  EXPECT_THROW(vector_fit({}, {}, opt), Error);
  EXPECT_THROW(vector_fit({1e6, 1e6}, data, opt), Error);  // trivial band
}

}  // namespace
}  // namespace sympvl
