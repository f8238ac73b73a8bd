// The pole–residue form of reduced models (Section 5): every model whose
// reduced pencil is symmetric with a positive-definite Gr evaluates from
// real poles and rank-1 residues, and agrees with the dense LU formula it
// replaces; every other model keeps the LU formula bit for bit. Also the
// relative pole-at-infinity cutoff, the per-model byte counts and the
// "model.sweep" span every ROM sweep records.
#include "mor/pole_residue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "circuit/parser.hpp"
#include "gen/power_grid.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"
#include "mor/multipoint.hpp"
#include "mor/postprocess.hpp"
#include "mor/rational.hpp"
#include "mor/reduce.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

Complex prefactor(Complex s, int k) {
  Complex pref(1.0, 0.0);
  for (int i = 0; i < k; ++i) pref *= s;
  return pref;
}

// The dense LU formula of a SyMPVL model, written out on its own:
// (I + σT)X = ρ, then Zₙ = pref·ρᵀ(ΔX), in the models' summation order.
CMat lu_formula(const ReducedModel& m, Complex s) {
  const Index n = m.order(), p = m.port_count();
  const Complex sigma =
      (m.variable() == SVariable::kS ? s : s * s) - m.shift();
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      lhs(i, j) = (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)) +
                  sigma * m.t()(i, j);
  CMat rhs(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) rhs(i, j) = Complex(m.rho()(i, j), 0.0);
  const CMat x = dense_solve(lhs, rhs);
  CMat w(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      if (m.delta()(i, j) == 0.0) continue;
      for (Index b = 0; b < p; ++b) w(i, b) += m.delta()(i, j) * x(j, b);
    }
  CMat z(p, p);
  for (Index i = 0; i < n; ++i)
    for (Index a = 0; a < p; ++a) {
      if (m.rho()(i, a) == 0.0) continue;
      for (Index b = 0; b < p; ++b) z(a, b) += m.rho()(i, a) * w(i, b);
    }
  const Complex pref = prefactor(s, m.s_prefactor());
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) z(a, b) *= pref;
  return z;
}

// The congruence models' LU formula: pref·Brᵀ(Gr + σCr)⁻¹Br.
CMat lu_formula(const ArnoldiModel& m, SVariable variable, int s_prefactor,
                Complex s) {
  const Index n = m.order(), p = m.port_count();
  const Complex sigma = (variable == SVariable::kS ? s : s * s) - m.shift();
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      lhs(i, j) = m.gr()(i, j) + sigma * m.cr()(i, j);
  const CMat x = dense_solve(lhs, to_complex(m.br()));
  const Complex pref = prefactor(s, s_prefactor);
  CMat z(p, p);
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) {
      Complex acc(0.0, 0.0);
      for (Index i = 0; i < n; ++i) acc += m.br()(i, a) * x(i, b);
      z(a, b) = pref * acc;
    }
  return z;
}

double max_rel_diff(const CMat& a, const CMat& b) {
  return (a - b).max_abs() / (b.max_abs() + 1e-300);
}

const Vec& grid() {
  static const Vec g = log_frequency_grid(1e5, 1e11, 9);
  return g;
}

// Max-norm relative difference between eval() and `reference` over grid().
template <typename Model, typename Reference>
double worst_diff(const Model& m, Reference&& reference) {
  double worst = 0.0;
  for (double f : grid()) {
    const Complex s(0.0, 2.0 * M_PI * f);
    worst = std::max(worst, max_rel_diff(m.eval(s), reference(s)));
  }
  return worst;
}

ReducedModel sympvl_model(Netlist (*make)(const RandomCircuitOptions&),
                          Index ports, Index order, unsigned seed) {
  SympvlOptions opt;
  opt.order = order;
  return sympvl_reduce(
      build_mna(make({.nodes = 24, .ports = ports, .seed = seed})), opt);
}

TEST(PoleResidue, DefiniteSympvlModelsMatchTheLuFormula) {
  struct Case {
    const char* kind;
    Netlist (*make)(const RandomCircuitOptions&);
    Index ports, order;
  };
  const Case cases[] = {{"RC", random_rc, 1, 6},  {"RC", random_rc, 2, 9},
                        {"RC", random_rc, 3, 12}, {"RL", random_rl, 1, 6},
                        {"RL", random_rl, 2, 8},  {"LC", random_lc, 1, 8},
                        {"LC", random_lc, 2, 10}};
  unsigned seed = 500;
  for (const Case& c : cases) {
    const ReducedModel rom = sympvl_model(c.make, c.ports, c.order, ++seed);
    ASSERT_NE(rom.pole_residue(), nullptr) << c.kind << " seed " << seed;
    EXPECT_LE(worst_diff(rom, [&](Complex s) { return lu_formula(rom, s); }),
              1e-12)
        << c.kind << " order " << rom.order() << " seed " << seed;
  }
  // The LC form (σ = s², prefactor s) with a frequency shift.
  SympvlOptions lc_opt;
  lc_opt.order = 6;
  const ReducedModel lc = sympvl_reduce(
      build_mna(random_lc({.nodes = 12, .ports = 1, .seed = 22,
                           .grounded = false})),
      lc_opt);
  ASSERT_GT(lc.shift(), 0.0);
  ASSERT_EQ(lc.variable(), SVariable::kSSquared);
  ASSERT_NE(lc.pole_residue(), nullptr);
  EXPECT_LE(worst_diff(lc, [&](Complex s) { return lu_formula(lc, s); }),
            1e-12);
}

TEST(PoleResidue, DefiniteCongruenceModelsMatchTheLuFormula) {
  const MnaSystem rc = build_mna(random_rc({.nodes = 30, .ports = 2, .seed = 7}));
  const auto check = [&](const ArnoldiModel& m, const MnaSystem& sys,
                         const char* what, double bound = 1e-12) {
    ASSERT_NE(m.pole_residue(), nullptr) << what;
    EXPECT_LE(worst_diff(m,
                         [&](Complex s) {
                           return lu_formula(m, sys.variable, sys.s_prefactor, s);
                         }),
              bound)
        << what << " order " << m.order();
  };

  ArnoldiOptions aopt;
  aopt.order = 8;
  check(arnoldi_reduce(rc, aopt), rc, "arnoldi_reduce");

  RationalOptions ropt;
  ropt.shifts = rational_shifts_for_band(rc, 1e6, 1e10, 3);
  check(rational_reduce(rc, ropt), rc, "rational_reduce");

  // Not every definite model meets 1e-12. A 60-node RL circuit at order
  // 60 spreads its time constants λ over seven decades (6e-14 to 5e-7 s),
  // and the symmetric eig's absolute accuracy limits the form: it differs
  // from the LU by 4.6e-12 here, and from a long-double reference by
  // 4.6e-12 where the LU differs by 5.5e-14. Pinned so that growth fails.
  const MnaSystem rl =
      build_mna(random_rl({.nodes = 60, .ports = 3, .seed = 1}));
  ArnoldiOptions wide;
  wide.order = 60;
  check(arnoldi_reduce(rl, wide), rl, "arnoldi_reduce, 60-node RL", 1e-11);

  MultipointOptions mopt;
  mopt.total_order = 12;
  mopt.f_min = 1e6;
  mopt.f_max = 1e10;
  mopt.s0_points = rational_shifts_for_band(rc, mopt.f_min, mopt.f_max, 3);
  const MultipointSession mp(rc, mopt);
  check(mp.stitched(), rc, "multipoint stitch");

  // The sharded CholQR stitch: Gr = I, so no Cholesky is needed.
  const MnaSystem pg =
      build_mna(make_power_grid({.ports = 32}).netlist, MnaForm::kAuto);
  ReduceOptions sopt;
  sopt.method = ReduceMethod::kShardedSympvl;
  sopt.order = 32;
  sopt.shard.shards = 4;
  const ReduceResult sharded = reduce(pg, sopt);
  ASSERT_TRUE(sharded.ok());
  ASSERT_FALSE(sharded.shard.used_fallback_stitch);
  const ArnoldiModel* stitched = sharded.model.as_arnoldi();
  ASSERT_NE(stitched, nullptr);
  EXPECT_EQ((stitched->gr() - Mat::identity(stitched->order())).max_abs(), 0.0);
  check(*stitched, pg, "CholQR stitch");
}

TEST(PoleResidue, IndefiniteRlcModelKeepsTheLuBits) {
  const ReducedModel rom = sympvl_model(random_rlc, 2, 8, 412);
  ASSERT_EQ(rom.pole_residue(), nullptr);
  for (double f : grid()) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat z = rom.eval(s);
    const CMat ref = lu_formula(rom, s);
    for (Index a = 0; a < z.rows(); ++a)
      for (Index b = 0; b < z.cols(); ++b) EXPECT_EQ(z(a, b), ref(a, b));
  }
}

TEST(PoleResidue, FormIsRealAndSymmetric) {
  const ReducedModel rom = sympvl_model(random_rc, 3, 12, 31);
  const PoleResidueForm* form = rom.pole_residue();
  ASSERT_NE(form, nullptr);
  EXPECT_EQ(form->order(), rom.order());
  EXPECT_EQ(form->port_count(), rom.port_count());
  EXPECT_TRUE(std::is_sorted(form->lambda().begin(), form->lambda().end()));
  // RC: Tₙ is positive semi-definite, so every λ ≥ 0 to rounding.
  EXPECT_GE(form->lambda().front(), -1e-12 * form->lambda().back());
  const CMat z = rom.eval(Complex(0.0, 2.0 * M_PI * 1e8));
  for (Index a = 0; a < z.rows(); ++a)
    for (Index b = 0; b < z.cols(); ++b) EXPECT_EQ(z(a, b), z(b, a));
}

TEST(PoleResidue, PolesMatchTheGeneralEigensolver) {
  const ReducedModel rom = sympvl_model(random_rc, 2, 10, 41);
  ASSERT_NE(rom.pole_residue(), nullptr);
  CVec from_form = rom.poles();
  CVec from_t = poles_from_eigenvalues(eig_general(rom.t()), rom.shift(),
                                       rom.variable());
  ASSERT_EQ(from_form.size(), from_t.size());
  const auto by_real = [](const Complex& a, const Complex& b) {
    return a.real() < b.real();
  };
  std::sort(from_form.begin(), from_form.end(), by_real);
  std::sort(from_t.begin(), from_t.end(), by_real);
  for (size_t k = 0; k < from_form.size(); ++k) {
    EXPECT_EQ(from_form[k].imag(), 0.0);
    EXPECT_NEAR(from_form[k].real(), from_t[k].real(),
                1e-9 * std::abs(from_t[k]));
  }
  EXPECT_TRUE(rom.is_stable());
}

// A 1 Ω / C ladder of six sections ending in a resistor to ground: six
// real poles at −1/(time constant), whatever the unit of C.
ReducedModel rc_ladder(double c) {
  Netlist nl;
  for (Index k = 1; k <= 6; ++k) {
    nl.add_resistor(k, k == 6 ? 0 : k + 1, 1.0);
    nl.add_capacitor(k, 0, c);
  }
  nl.add_port(1, 0);
  SympvlOptions opt;
  opt.order = 6;
  return sympvl_reduce(build_mna(nl), opt);
}

TEST(PoleResidue, PoleAtInfinityCutoffIsRelative) {
  const ReducedModel nano = rc_ladder(1e-9);
  const ReducedModel femto = rc_ladder(1e-15);
  ASSERT_EQ(nano.order(), 6);
  ASSERT_EQ(femto.order(), 6);
  CVec a = nano.poles();
  CVec b = femto.poles();
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(modal_decompose(femto).pole_count(), 6);
  const auto by_real = [](const Complex& x, const Complex& y) {
    return x.real() < y.real();
  };
  std::sort(a.begin(), a.end(), by_real);
  std::sort(b.begin(), b.end(), by_real);
  for (size_t k = 0; k < 6; ++k)
    EXPECT_NEAR(b[k].real(), 1e6 * a[k].real(), 1e-9 * std::abs(b[k]));
  EXPECT_TRUE(nano.is_stable());
  EXPECT_TRUE(femto.is_stable());

  // The LU path (nonsymmetric Gr) applies the same relative rule.
  const auto lu_model = [](double tau) {
    Mat gr{{1.0, 0.5}, {0.0, 1.0}};
    Mat cr{{tau, 0.0}, {0.0, 2.0 * tau}};
    Mat br{{1.0}, {1.0}};
    return ArnoldiModel(gr, cr, br, SVariable::kS, 0, 0.0);
  };
  const ArnoldiModel slow = lu_model(1e-9), fast = lu_model(1e-15);
  ASSERT_EQ(fast.pole_residue(), nullptr);
  ASSERT_EQ(slow.poles().size(), 2u);
  ASSERT_EQ(fast.poles().size(), 2u);
  EXPECT_TRUE(fast.is_stable());
}

TEST(PoleResidue, SweepPointOnAPoleIsContained) {
  // Gr = I, Cr = diag(1/2, 1/4), s₀ = 2: at f = 0, σ = −2 and
  // 1 + σ·(1/2) = 0 exactly.
  const Mat cr{{0.5, 0.0}, {0.0, 0.25}};
  const Mat br{{1.0, 0.0}, {1.0, 1.0}};
  const ArnoldiModel m(Mat::identity(2), cr, br, SVariable::kS, 0, 2.0);
  ASSERT_NE(m.pole_residue(), nullptr);
  const SweepResult res = sweep(m, {0.0, 1e3});
  ASSERT_EQ(res.size(), 2u);
  EXPECT_FALSE(res.ok(0));
  EXPECT_TRUE(res.ok(1));
  EXPECT_TRUE(std::isnan(res.values[0](0, 0).real()));
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_EQ(res.errors[0].index, 0);
  EXPECT_EQ(res.errors[0].code, ErrorCode::kSingular);
  const Complex s(0.0, 2.0 * M_PI * 1e3);
  EXPECT_EQ(res.values[1](1, 0), m.eval(s)(1, 0));
  EXPECT_LE(max_rel_diff(res.values[1], lu_formula(m, SVariable::kS, 0, s)),
            1e-12);
}

TEST(PoleResidue, ConstructionNeverThrows) {
  const Mat br{{1.0}, {2.0}};
  const Mat cr{{1.0, 0.2}, {0.2, 1.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Mat singular{{1.0, 1.0}, {1.0, 1.0}};
  const Mat indefinite{{1.0, 0.0}, {0.0, -1.0}};
  const Mat nonsymmetric{{2.0, 1.0}, {0.0, 2.0}};
  for (const Mat& gr : {singular, indefinite, nonsymmetric}) {
    ArnoldiModel m;
    EXPECT_NO_THROW(m = ArnoldiModel(gr, cr, br, SVariable::kS, 0, 0.0));
    EXPECT_EQ(m.pole_residue(), nullptr);
  }
  ArnoldiModel broken;
  EXPECT_NO_THROW(broken = ArnoldiModel(Mat::identity(2),
                                        Mat{{nan, 0.0}, {0.0, 1.0}}, br,
                                        SVariable::kS, 0, 0.0));
  EXPECT_EQ(broken.pole_residue(), nullptr);
  // The indefinite pencil still evaluates, through the LU.
  const ArnoldiModel lu(indefinite, cr, br, SVariable::kS, 0, 0.0);
  const Complex s(0.0, 3.0);
  EXPECT_EQ(lu.eval(s)(0, 0), lu_formula(lu, SVariable::kS, 0, s)(0, 0));
}

TEST(PoleResidue, SweepIsThreadCountInvariant) {
  const ReducedModel rom = sympvl_model(random_rc, 3, 12, 63);
  ASSERT_NE(rom.pole_residue(), nullptr);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 17);
  set_num_threads(1);
  const SweepResult one = sweep(rom, freqs);
  set_num_threads(3);
  const SweepResult three = sweep(rom, freqs);
  set_num_threads(0);
  for (size_t k = 0; k < freqs.size(); ++k)
    for (Index a = 0; a < 3; ++a)
      for (Index b = 0; b < 3; ++b)
        EXPECT_EQ(one.values[k](a, b), three.values[k](a, b));
}

TEST(PoleResidue, ServedSweepEqualsInProcessSweep) {
  const std::string netlist =
      "R1 a b 10\nR2 b c 20\nR3 c 0 30\nR4 a 0 100\n"
      "C1 a 0 1p\nC2 b 0 2p\nC3 c 0 3p\nC4 a c 0.5p\n"
      ".port a a\n.port b b\n.port c c\n.end\n";
  ReduceOptions opt;
  opt.order = 3;
  serve::RomRegistry registry(1 << 20);
  const auto rom = registry.acquire(serve::rom_key(netlist, opt), [&] {
    return reduce(build_mna(parse_netlist(netlist)), opt);
  });
  ASSERT_NE(rom, nullptr);
  ASSERT_NE(rom->result.model.as_reduced(), nullptr);
  ASSERT_NE(rom->result.model.as_reduced()->pole_residue(), nullptr);
  const Vec freqs = {1e6, 1e8, 1e10};
  const SweepResult direct = sweep(rom->result.model, freqs);
  serve::SweepBatcher batcher({.window_us = 0, .max_batch = 4});
  const serve::SweepBatcher::Outcome served = batcher.run(rom, freqs);
  ASSERT_EQ(served.sweep.size(), freqs.size());
  for (size_t k = 0; k < freqs.size(); ++k)
    for (Index a = 0; a < 3; ++a)
      for (Index b = 0; b < 3; ++b)
        EXPECT_EQ(served.sweep.values[k](a, b), direct.values[k](a, b));
}

TEST(PoleResidue, ModelBytesCountWhatTheModelHolds) {
  constexpr std::int64_t d = sizeof(double);
  // SyMPVL: T and Δ (n×n), ρ (n×p), the cluster sizes, λ (n), W (n×p).
  const ReducedModel rom = sympvl_model(random_rc, 3, 9, 71);
  ASSERT_NE(rom.pole_residue(), nullptr);
  const std::int64_t n = rom.order(), p = rom.port_count();
  const std::int64_t clusters =
      static_cast<std::int64_t>(rom.lanczos().cluster_sizes.size());
  EXPECT_EQ(rom.bytes(), (2 * n * n + n * p + n + n * p) * d +
                             clusters * static_cast<std::int64_t>(sizeof(Index)));
  EXPECT_EQ(MacroModel(rom).bytes(), rom.bytes());

  // The stitched model: Gr = I and Cr (n×n), Br (n×p), λ (n), W (n×p).
  const MnaSystem pg =
      build_mna(make_power_grid({.ports = 32}).netlist, MnaForm::kAuto);
  ReduceOptions sopt;
  sopt.method = ReduceMethod::kShardedSympvl;
  sopt.order = 32;
  sopt.shard.shards = 4;
  const ReduceResult sharded = reduce(pg, sopt);
  const ArnoldiModel* stitched = sharded.model.as_arnoldi();
  ASSERT_NE(stitched, nullptr);
  ASSERT_NE(stitched->pole_residue(), nullptr);
  const std::int64_t ns = stitched->order(), ps = stitched->port_count();
  EXPECT_EQ(stitched->bytes(), (2 * ns * ns + 2 * ns * ps + ns) * d);
  EXPECT_EQ(sharded.model.bytes(), stitched->bytes());
}

TEST(PoleResidue, RegistryChargesTheModelsOwnBytes) {
  const std::string netlist =
      "R1 in mid 1k\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n";
  ReduceOptions opt;
  opt.order = 4;
  serve::RomRegistry registry(1 << 20);
  const auto entry = registry.acquire(serve::rom_key(netlist, opt), [&] {
    return reduce(build_mna(parse_netlist(netlist)), opt);
  });
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->bytes, entry->result.model.bytes());
  EXPECT_EQ(registry.stats().resident_bytes, entry->bytes);
}

// ---- One "model.sweep" span per ROM sweep ------------------------------

struct TraceOn {
  TraceOn() {
    obs::enable(true);
    obs::reset();
  }
  ~TraceOn() {
    obs::enable(false);
    obs::reset();
  }
};

// The `form` arg of every recorded model.sweep span, in order.
std::vector<std::string> sweep_forms() {
  std::vector<std::string> forms;
  for (const obs::Event& e : obs::snapshot_events()) {
    if (e.phase != 'X' || std::strcmp(e.name, "model.sweep") != 0) continue;
    std::string form = "<missing>";
    bool has_points = false, has_failed = false;
    for (int k = 0; k < e.nargs; ++k) {
      if (std::strcmp(e.args[k].key, "form") == 0 && e.args[k].str)
        form = e.args[k].str;
      has_points |= std::strcmp(e.args[k].key, "points") == 0;
      has_failed |= std::strcmp(e.args[k].key, "failed_points") == 0;
    }
    EXPECT_TRUE(has_points && has_failed) << form;
    forms.push_back(form);
  }
  return forms;
}

TEST(PoleResidue, EveryRomSweepRecordsOneModelSweepSpan) {
  const MnaSystem rc = build_mna(random_rc({.nodes = 20, .ports = 2, .seed = 81}));
  SympvlOptions opt;
  opt.order = 6;
  const ReducedModel definite = sympvl_reduce(rc, opt);
  const ReducedModel indefinite = sympvl_model(random_rlc, 2, 6, 82);
  ASSERT_NE(definite.pole_residue(), nullptr);
  ASSERT_EQ(indefinite.pole_residue(), nullptr);
  ArnoldiOptions aopt;
  aopt.order = 6;
  const ArnoldiModel arnoldi = arnoldi_reduce(rc, aopt);
  const ModalModel modal = modal_decompose(definite);
  ReduceOptions popt;
  popt.method = ReduceMethod::kPvl;
  popt.order = 4;
  const ReduceResult pvl = reduce(rc, popt);
  ASSERT_NE(pvl.model.as_pvl(), nullptr);

  const Vec freqs = {1e6, 1e9};
  TraceOn trace;
  sweep(definite, freqs);
  sweep(indefinite, freqs);
  sweep(arnoldi, freqs);
  sweep(modal, freqs);
  sweep(pvl.model, freqs);
  sweep(MacroModel(arnoldi), freqs);
  const std::vector<std::string> expected = {
      "pole_residue", "lu", "pole_residue", "pole_residue", "lu",
      "pole_residue"};
  EXPECT_EQ(sweep_forms(), expected);
}

}  // namespace
}  // namespace sympvl
