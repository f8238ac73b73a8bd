// Tests for the resumable SyMPVL session (the paper's "6 more iterations"
// workflow, Section 7.1).
#include <gtest/gtest.h>

#include "gen/peec.hpp"
#include "gen/random_circuit.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

TEST(Session, ExtendMatchesFreshRunExactly) {
  const Netlist nl = random_rc({.nodes = 50, .ports = 2, .seed = 1});
  const MnaSystem sys = build_mna(nl);

  SympvlOptions opt;
  opt.order = 10;
  SympvlSession session(sys, opt);
  EXPECT_EQ(session.order(), 10);
  const ReducedModel extended = session.extend(6);
  EXPECT_EQ(session.order(), 16);

  SympvlOptions opt16;
  opt16.order = 16;
  const ReducedModel fresh = sympvl_reduce(sys, opt16);

  ASSERT_EQ(extended.order(), fresh.order());
  EXPECT_NEAR((extended.t() - fresh.t()).max_abs(), 0.0,
              1e-12 * (1.0 + fresh.t().max_abs()));
  EXPECT_NEAR((extended.rho() - fresh.rho()).max_abs(), 0.0,
              1e-12 * (1.0 + fresh.rho().max_abs()));
  EXPECT_NEAR((extended.delta() - fresh.delta()).max_abs(), 0.0, 1e-12);
}

TEST(Session, PaperWorkflowSixMoreIterations) {
  // Section 7.1 at test scale: a "good" order, then +k iterations to a
  // "perfect" one — monotone improvement without refactoring the system.
  const PeecCircuit peec = make_peec_circuit({.grid = 6});
  SympvlOptions opt;
  opt.order = 28;
  opt.s0 = automatic_shift(peec.system);
  SympvlSession session(peec.system, opt);

  const Vec freqs = log_frequency_grid(1e8, 5e9, 8);
  const auto exact = sweep(peec.system, freqs, {.throw_on_failure = true});
  auto err_of = [&](const ReducedModel& rom) {
    double err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      const CMat z = rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
      for (Index i = 0; i < 2; ++i)
        for (Index j = 0; j < 2; ++j)
          err = std::max(err, std::abs(z(i, j) - exact[k](i, j)) /
                                  (exact[k].max_abs() + 1e-300));
    }
    return err;
  };
  const double e28 = err_of(session.current());
  const double e36 = err_of(session.extend(8));
  EXPECT_LT(e36, e28);
  EXPECT_LT(e36, 1e-3);
}

TEST(Session, ExtendStopsAtExhaustion) {
  Netlist nl;
  nl.add_resistor(1, 2, 10.0);
  nl.add_resistor(2, 0, 20.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 2;
  SympvlSession session(sys, opt);
  session.extend(50);
  EXPECT_TRUE(session.report().exhausted);
  EXPECT_LE(session.report().achieved_order, 3);
  // Exhausted model is exact.
  const ReducedModel rom = session.current();
  const Complex s(0.0, 2.0 * M_PI * 1e9);
  const Complex z_exact = ac_z_matrix(sys, s)(0, 0);
  EXPECT_NEAR(std::abs(rom.eval(s)(0, 0) - z_exact), 0.0,
              1e-9 * std::abs(z_exact));
}

TEST(Session, ZeroExtendIsIdempotent) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 1, .seed = 3});
  SympvlOptions opt;
  opt.order = 6;
  SympvlSession session(build_mna(nl), opt);
  const ReducedModel a = session.current();
  const ReducedModel b = session.extend(0);
  EXPECT_EQ(a.order(), b.order());
  EXPECT_NEAR((a.t() - b.t()).max_abs(), 0.0, 0.0);
}

TEST(Session, SurvivesCallerSystemDestruction) {
  // The session copies what it needs; the MnaSystem may die.
  std::unique_ptr<SympvlSession> session;
  {
    const Netlist nl = random_rc({.nodes = 25, .ports = 1, .seed = 4});
    const MnaSystem sys = build_mna(nl);
    SympvlOptions opt;
    opt.order = 4;
    session = std::make_unique<SympvlSession>(sys, opt);
  }
  const ReducedModel rom = session->extend(4);
  EXPECT_EQ(rom.order(), 8);
  EXPECT_TRUE(rom.is_stable());
}

TEST(Session, MoveSemantics) {
  const Netlist nl = random_rc({.nodes = 15, .ports = 1, .seed = 5});
  SympvlOptions opt;
  opt.order = 4;
  SympvlSession a(build_mna(nl), opt);
  SympvlSession b(std::move(a));
  EXPECT_EQ(b.order(), 4);
  b.extend(2);
  EXPECT_EQ(b.order(), 6);
}

TEST(Session, InvalidArguments) {
  const Netlist nl = random_rc({.nodes = 10, .ports = 1, .seed = 6});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 0;
  EXPECT_THROW(SympvlSession(sys, opt), Error);
  opt.order = 3;
  SympvlSession session(sys, opt);
  EXPECT_THROW(session.extend(-1), Error);
}

}  // namespace
}  // namespace sympvl
