// Pathological-input coverage: every degenerate circuit below must yield
// a structured sympvl::Error (with an ErrorCode and stage) or a recovered
// model — never a crash, an opaque string-only throw, or a silent NaN.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/power_grid.hpp"
#include "mor/pencil.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"

namespace sympvl {
namespace {

bool finite_matrix(const CMat& z) {
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j)
      if (!std::isfinite(z(i, j).real()) || !std::isfinite(z(i, j).imag()))
        return false;
  return true;
}

// Node 1 touches only capacitors: the G row is structurally zero, so G is
// singular and only the shifted pencil of eq. 26 can be factored.
Netlist singular_g_netlist() {
  Netlist nl;
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(1, 2, 2e-12);
  nl.add_resistor(2, 0, 50.0);
  nl.add_port(1, 0);
  return nl;
}

TEST(Robustness, SingularGWithoutShiftThrowsStructured) {
  const MnaSystem sys = build_mna(singular_g_netlist(), MnaForm::kGeneral);
  SympvlOptions opt;
  opt.order = 4;
  opt.s0 = 0.0;
  opt.auto_shift = false;  // forbid the eq. 26 recovery
  try {
    sympvl_reduce(sys, opt);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kSingular);
    EXPECT_FALSE(ex.context().stage.empty());
    // The message carries the attempt history, not just "failed".
    EXPECT_NE(std::string(ex.what()).find("attempt"), std::string::npos);
  }
}

TEST(Robustness, SingularGRecoversThroughAutoShift) {
  const MnaSystem sys = build_mna(singular_g_netlist(), MnaForm::kGeneral);
  SympvlOptions opt;
  opt.order = 4;
  SympvlReport report;
  const ReducedModel rom = sympvl_reduce(sys, opt, &report);
  EXPECT_NE(report.s0_used, 0.0);
  EXPECT_TRUE(report.recovered);
  EXPECT_GE(report.factor_attempts.size(), 2u);
  EXPECT_FALSE(report.factor_attempts.front().success);
  EXPECT_TRUE(report.factor_attempts.back().success);
  EXPECT_TRUE(finite_matrix(rom.eval(Complex(0.0, 2.0 * M_PI * 1e9))));
}

TEST(Robustness, DisconnectedCircuitFailsWithDiagnostics) {
  // Nodes 3-4 form an island with no path to the datum: the pencil block
  // is singular at EVERY shift, so no rung can succeed.
  Netlist nl;
  nl.add_resistor(1, 0, 100.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_port(1, 0);
  nl.add_resistor(3, 4, 10.0);
  nl.add_capacitor(3, 4, 1e-12);
  ReduceOptions opt;
  opt.order = 2;
  const auto res = reduce(nl, opt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  for (const ReductionIssue& issue : res.diagnostics) {
    EXPECT_NE(issue.code, ErrorCode::kUnknown);
    EXPECT_FALSE(issue.message.empty());
  }
  EXPECT_THROW(res.value(), Error);
}

TEST(Robustness, DenseRungIsBounded) {
  // A pencil singular at every shift above kDenseRungMaxSize fails after
  // the sparse rungs: the dense Bunch-Kaufman rung (O(N³) time, N² memory)
  // is skipped, and the error says so.
  PowerGridCircuit grid = make_power_grid({.ports = 4, .rows = 33, .cols = 33});
  const Index island = grid.rows * grid.cols + 1;  // no path to the datum
  grid.netlist.add_resistor(island, island + 1, 10.0);
  grid.netlist.add_capacitor(island, island + 1, 1e-12);
  const MnaSystem sys = build_mna(grid.netlist);
  ASSERT_GT(sys.size(), kDenseRungMaxSize);
  ReduceOptions opt;
  opt.order = 4;
  const ReduceResult res = reduce(sys, opt);
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  const ReductionIssue& issue = res.diagnostics.front();
  EXPECT_EQ(issue.code, ErrorCode::kSingular);
  // Every rung that ran is an LDLᵀ one; the trail lives only in the
  // message when no rung succeeds.
  EXPECT_TRUE(res.report.factor_attempts.empty());
  EXPECT_NE(issue.message.find("ldlt("), std::string::npos) << issue.message;
  EXPECT_EQ(issue.message.find("dense_bk("), std::string::npos)
      << issue.message;
  EXPECT_NE(issue.message.find("dense_bk skipped: N = " +
                               std::to_string(sys.size())),
            std::string::npos)
      << issue.message;
}

TEST(Robustness, DuplicatedPortsDeflateNotCrash) {
  // Two ports on the same node pair: the starting block has two identical
  // columns, forcing an immediate deflation (Algorithm 1 step 1c).
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  nl.add_port(1, 0);  // duplicate
  const MnaSystem sys = build_mna(nl);
  ReduceOptions opt;
  opt.order = 2;
  const auto res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(res.report.deflations, 1);
  const CMat z = res.model.eval(Complex(0.0, 2.0 * M_PI * 1e8));
  EXPECT_TRUE(finite_matrix(z));
  // The duplicated port must see the same impedance as the original.
  EXPECT_NEAR(std::abs(z(0, 0) - z(1, 1)), 0.0, 1e-9 * std::abs(z(0, 0)));
}

TEST(Robustness, ZeroValuedElementsAreStructuredErrors) {
  Netlist nl;
  for (auto add : {+[](Netlist& n) { n.add_resistor(1, 0, 0.0); },
                   +[](Netlist& n) { n.add_capacitor(1, 0, 0.0); },
                   +[](Netlist& n) { n.add_inductor(1, 0, 0.0); }}) {
    try {
      add(nl);
      FAIL() << "expected Error";
    } catch (const Error& ex) {
      EXPECT_EQ(ex.code(), ErrorCode::kInvalidArgument);
      EXPECT_EQ(ex.context().stage, "netlist");
    }
  }
}

TEST(Robustness, ResistorOnlyCircuitHasNoAutomaticShift) {
  Netlist nl;
  nl.add_resistor(1, 0, 100.0);
  nl.add_resistor(1, 2, 50.0);
  nl.add_resistor(2, 0, 75.0);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
  try {
    automatic_shift(sys);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(ex.context().stage, "sympvl.auto_shift");
  }
}

TEST(Robustness, ShiftLadderDeterministicAndValidated) {
  // The jittered eq. 26 retry shifts of the full SyMPVL ladder.
  const std::vector<double> a = shift_ladder(2.5, 6);
  const std::vector<double> b = shift_ladder(2.5, 6);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a, b);  // bitwise deterministic
  for (double s : a) EXPECT_GT(s, 0.0);
  for (size_t i = 0; i + 1 < a.size(); ++i) EXPECT_NE(a[i], a[i + 1]);
  try {
    shift_ladder(0.0, 3);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace sympvl
