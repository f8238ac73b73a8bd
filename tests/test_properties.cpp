// Property-based parameterized sweeps: the paper's theorems must hold on
// every randomly generated circuit of the right class, at every order.
//
//  * moment matching q(n) ≥ 2⌊n/p⌋ (Section 3.2),
//  * stability of RC/RL/LC reductions at any order (Section 5.1),
//  * passivity of RC/RL/LC reductions at any order (Section 5.2),
//  * reciprocity/symmetry of Zₙ,
//  * synthesized circuits realize Zₙ exactly.
#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/moments.hpp"
#include "mor/passivity.hpp"
#include "mor/sympvl.hpp"
#include "mor/synthesis.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

enum class Kind { kRC, kRL, kLC, kRLC };

std::string kind_name(Kind k) {
  switch (k) {
    case Kind::kRC: return "RC";
    case Kind::kRL: return "RL";
    case Kind::kLC: return "LC";
    default: return "RLC";
  }
}

Netlist make_circuit(Kind kind, Index nodes, Index ports, unsigned seed) {
  RandomCircuitOptions o;
  o.nodes = nodes;
  o.ports = ports;
  o.seed = seed;
  switch (kind) {
    case Kind::kRC: return random_rc(o);
    case Kind::kRL: return random_rl(o);
    case Kind::kLC: return random_lc(o);
    default: return random_rlc(o);
  }
}

struct Case {
  Kind kind;
  Index ports;
  Index order;
  unsigned seed;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return kind_name(info.param.kind) + "_p" + std::to_string(info.param.ports) +
         "_n" + std::to_string(info.param.order) + "_s" +
         std::to_string(info.param.seed);
}

// ---- Stability & passivity sweep over the definite classes. ----

class DefiniteClassSweep : public testing::TestWithParam<Case> {};

TEST_P(DefiniteClassSweep, ReducedModelStableAtEveryOrder) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(c.kind, 24, c.ports, c.seed);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  EXPECT_TRUE(rom.is_stable(1e-7 * (1.0 + std::abs(rom.shift()))))
      << kind_name(c.kind) << " order " << c.order << " seed " << c.seed;
}

TEST_P(DefiniteClassSweep, ReducedModelPassiveAtEveryOrder) {
  const Case c = GetParam();
  if (c.kind == Kind::kLC) {
    // LC passivity involves the s ↦ s² map; sampling Re(Z) on jω of a
    // lossless network yields 0 up to rounding — covered by the stability
    // sweep plus the imaginary-axis pole test below.
    GTEST_SKIP();
  }
  const Netlist nl = make_circuit(c.kind, 24, c.ports, c.seed);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  const auto report = check_passivity(rom, log_frequency_grid(1e5, 1e11, 9));
  EXPECT_TRUE(report.stable) << kind_name(c.kind) << " seed " << c.seed;
  EXPECT_TRUE(report.passive)
      << kind_name(c.kind) << " order " << c.order << " seed " << c.seed
      << " min_eig " << report.min_hermitian_eig;
}

TEST_P(DefiniteClassSweep, LcPolesOnImaginaryAxis) {
  const Case c = GetParam();
  if (c.kind != Kind::kLC) GTEST_SKIP();
  const Netlist nl = make_circuit(c.kind, 24, c.ports, c.seed);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  for (const Complex& pole : rom.poles())
    EXPECT_NEAR(pole.real(), 0.0, 1e-6 * (1.0 + std::abs(pole)))
        << "seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, DefiniteClassSweep,
    testing::Values(
        Case{Kind::kRC, 1, 1, 101}, Case{Kind::kRC, 1, 3, 102},
        Case{Kind::kRC, 1, 7, 103}, Case{Kind::kRC, 2, 4, 104},
        Case{Kind::kRC, 2, 9, 105}, Case{Kind::kRC, 3, 6, 106},
        Case{Kind::kRC, 3, 12, 107},
        Case{Kind::kRL, 1, 2, 201}, Case{Kind::kRL, 1, 6, 202},
        Case{Kind::kRL, 2, 8, 203}, Case{Kind::kRL, 2, 5, 204},
        Case{Kind::kLC, 1, 4, 301}, Case{Kind::kLC, 1, 8, 302},
        Case{Kind::kLC, 2, 6, 303}, Case{Kind::kLC, 2, 10, 304}),
    case_name);

// ---- Moment matching sweep over all classes including indefinite RLC. --

class MomentSweep : public testing::TestWithParam<Case> {};

TEST_P(MomentSweep, MatchesTwoFloorNOverPMoments) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(c.kind, 26, c.ports, c.seed);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = c.order;
  SympvlReport report;
  const ReducedModel rom = sympvl_reduce(sys, opt, &report);
  const Index q = 2 * (rom.order() / c.ports);
  if (q == 0) GTEST_SKIP();
  const auto exact = exact_moments(sys, q, report.s0_used);
  // Moment magnitudes can span decades; compare each against a running
  // scale so rounding in small high-order moments doesn't flake.
  for (Index k = 0; k < q; ++k) {
    const Mat mu = rom.moment(k);
    const double scale = exact[static_cast<size_t>(k)].max_abs();
    EXPECT_NEAR((mu - exact[static_cast<size_t>(k)]).max_abs(), 0.0,
                2e-5 * scale)
        << kind_name(c.kind) << " moment " << k << " seed " << c.seed;
  }
}

TEST_P(MomentSweep, ReducedZIsSymmetric) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(c.kind, 26, c.ports, c.seed);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  const CMat z = rom.eval(Complex(0.0, 2.0 * M_PI * 1e8));
  double asym = 0.0;
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = i + 1; j < z.cols(); ++j)
      asym = std::max(asym, std::abs(z(i, j) - z(j, i)));
  EXPECT_LT(asym, 1e-8 * (1.0 + z.max_abs())) << kind_name(c.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, MomentSweep,
    testing::Values(
        Case{Kind::kRC, 1, 6, 111}, Case{Kind::kRC, 2, 8, 112},
        Case{Kind::kRC, 3, 9, 113},
        Case{Kind::kRL, 1, 6, 211}, Case{Kind::kRL, 2, 8, 212},
        Case{Kind::kLC, 1, 6, 311}, Case{Kind::kLC, 2, 8, 312},
        Case{Kind::kRLC, 1, 6, 411}, Case{Kind::kRLC, 2, 8, 412},
        Case{Kind::kRLC, 3, 9, 413}),
    case_name);

// ---- Synthesis round-trip sweep (RC only). ----

class SynthesisSweep : public testing::TestWithParam<Case> {};

TEST_P(SynthesisSweep, CongruenceRealizationExact) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(Kind::kRC, 28, c.ports, c.seed);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  const SynthesizedCircuit syn = synthesize_congruence_rc(rom);
  const MnaSystem syn_sys = build_mna(syn.netlist, MnaForm::kRC);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat za = ac_z_matrix(syn_sys, s);
    const CMat zb = rom.eval(s);
    EXPECT_LT((za - zb).max_abs() / (zb.max_abs() + 1e-300), 1e-7)
        << "seed " << c.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rc, SynthesisSweep,
    testing::Values(Case{Kind::kRC, 1, 5, 121}, Case{Kind::kRC, 1, 9, 122},
                    Case{Kind::kRC, 2, 8, 123}, Case{Kind::kRC, 2, 12, 124},
                    Case{Kind::kRC, 3, 9, 125}, Case{Kind::kRC, 4, 12, 126}),
    case_name);

// ---- Serialization is lossless for every class. ----

class SerializationSweep : public testing::TestWithParam<Case> {};

TEST_P(SerializationSweep, TextRoundTripPreservesEvaluation) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(c.kind, 22, c.ports, c.seed);
  SympvlOptions opt;
  opt.order = c.order;
  const ReducedModel rom = sympvl_reduce(build_mna(nl), opt);
  const ReducedModel back = ReducedModel::from_text(rom.to_text());
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat a = rom.eval(s);
    const CMat b = back.eval(s);
    EXPECT_DOUBLE_EQ((real_part(a) - real_part(b)).max_abs(), 0.0)
        << kind_name(c.kind);
    EXPECT_DOUBLE_EQ((imag_part(a) - imag_part(b)).max_abs(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, SerializationSweep,
    testing::Values(Case{Kind::kRC, 2, 8, 131}, Case{Kind::kRL, 1, 6, 231},
                    Case{Kind::kLC, 2, 8, 331}, Case{Kind::kRLC, 2, 8, 431}),
    case_name);

// ---- Incremental sessions equal one-shot runs for every class. ----

class SessionSweep : public testing::TestWithParam<Case> {};

TEST_P(SessionSweep, ExtendEqualsFreshRun) {
  const Case c = GetParam();
  const Netlist nl = make_circuit(c.kind, 24, c.ports, c.seed);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = c.order;
  SympvlSession session(sys, opt);
  const ReducedModel extended = session.extend(4);
  SympvlOptions opt2;
  opt2.order = c.order + 4;
  const ReducedModel fresh = sympvl_reduce(sys, opt2);
  ASSERT_EQ(extended.order(), fresh.order()) << kind_name(c.kind);
  EXPECT_NEAR((extended.t() - fresh.t()).max_abs(), 0.0,
              1e-12 * (1.0 + fresh.t().max_abs()));
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, SessionSweep,
    testing::Values(Case{Kind::kRC, 1, 6, 141}, Case{Kind::kRC, 3, 9, 142},
                    Case{Kind::kRL, 2, 6, 241}, Case{Kind::kLC, 1, 6, 341},
                    Case{Kind::kRLC, 2, 6, 441}),
    case_name);

// ---- Convergence property: error is non-increasing in order (weakly). --

class ConvergenceSweep : public testing::TestWithParam<Kind> {};

TEST_P(ConvergenceSweep, HigherOrderNeverMuchWorse) {
  const Kind kind = GetParam();
  const Netlist nl = make_circuit(kind, 30, 2, 999);
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 7);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});
  double prev = 1e300;
  for (Index order : {4, 8, 16}) {
    SympvlOptions opt;
    opt.order = order;
    const ReducedModel rom = sympvl_reduce(sys, opt);
    double err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      const CMat z = rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
      err = std::max(err, (z - exact[k]).max_abs() /
                              (exact[k].max_abs() + 1e-300));
    }
    EXPECT_LT(err, std::max(prev * 3.0, 1e-9)) << "order " << order;
    prev = err;
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, ConvergenceSweep,
                         testing::Values(Kind::kRC, Kind::kRL, Kind::kLC,
                                         Kind::kRLC),
                         [](const testing::TestParamInfo<Kind>& info) {
                           return kind_name(info.param);
                         });

}  // namespace
}  // namespace sympvl
