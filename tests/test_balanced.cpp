#include "mor/balanced.hpp"

#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

double sweep_err(const ArnoldiModel& m, const MnaSystem& sys, const Vec& freqs,
                 const std::vector<CMat>& exact) {
  (void)sys;
  double err = 0.0;
  for (size_t k = 0; k < freqs.size(); ++k) {
    const CMat z = m.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j)
        err = std::max(err, std::abs(z(i, j) - exact[k](i, j)));
  }
  return err;
}

TEST(Balanced, ExactAtFullOrder) {
  const Netlist nl = random_rc({.nodes = 12, .ports = 1, .seed = 1});
  const MnaSystem sys = build_mna(nl);
  BalancedOptions opt;
  opt.order = sys.size();
  const BalancedResult bt = balanced_truncation(sys, opt);
  EXPECT_NEAR(bt.error_bound, 0.0, 1e-12);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex exact = ac_z_matrix(sys, s)(0, 0);
    EXPECT_NEAR(std::abs(bt.model.eval(s)(0, 0) - exact), 0.0,
                1e-7 * std::abs(exact));
  }
}

TEST(Balanced, HankelValuesDescendingNonNegative) {
  const Netlist nl = random_rc({.nodes = 25, .ports = 2, .seed = 2});
  const MnaSystem sys = build_mna(nl);
  BalancedOptions opt;
  opt.order = 5;
  const BalancedResult bt = balanced_truncation(sys, opt);
  const Vec& hsv = bt.hankel_singular_values;
  ASSERT_EQ(static_cast<Index>(hsv.size()), sys.size());
  for (size_t k = 0; k + 1 < hsv.size(); ++k) {
    EXPECT_GE(hsv[k], hsv[k + 1] - 1e-12);
    EXPECT_GE(hsv[k], 0.0);
  }
}

TEST(Balanced, HInfinityBoundHolds) {
  // The classical guarantee: sampled ‖Z − Z_k‖ on the jω axis never
  // exceeds 2·Σ truncated Hankel values.
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 3});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e4, 1e12, 40);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true}).values;
  for (Index order : {2, 4, 8, 16}) {
    BalancedOptions opt;
    opt.order = order;
    const BalancedResult bt = balanced_truncation(sys, opt);
    const double err = sweep_err(bt.model, sys, freqs, exact);
    EXPECT_LE(err, bt.error_bound * (1.0 + 1e-6) + 1e-12)
        << "order " << order;
  }
}

TEST(Balanced, ModelsAreStable) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 2, .seed = 4});
  const MnaSystem sys = build_mna(nl);
  for (Index order : {1, 3, 7}) {
    BalancedOptions opt;
    opt.order = order;
    EXPECT_TRUE(balanced_truncation(sys, opt).model.is_stable()) << order;
  }
}

TEST(Balanced, NearOptimalVsKrylovOnTruncatedTail) {
  // At matched order the BT worst-case (H∞-like) error is competitive
  // with (typically better than) the Padé model's worst-case error over a
  // wide band — the classic trade-off this baseline exists to show.
  const Netlist nl = random_rc({.nodes = 40, .ports = 1, .seed = 5});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e4, 1e12, 30);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true}).values;
  const Index order = 6;
  BalancedOptions bopt;
  bopt.order = order;
  const BalancedResult bt = balanced_truncation(sys, bopt);
  SympvlOptions sopt;
  sopt.order = order;
  const ReducedModel rom = sympvl_reduce(sys, sopt);
  double pade_err = 0.0;
  for (size_t k = 0; k < freqs.size(); ++k)
    pade_err = std::max(pade_err,
                        std::abs(rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k]))(0, 0) -
                                 exact[k](0, 0)));
  const double bt_err = sweep_err(bt.model, sys, freqs, exact);
  // BT should not be dramatically worse; typically it wins on max error.
  EXPECT_LE(bt_err, 10.0 * pade_err + bt.error_bound);
}

TEST(Balanced, RejectsUnsupportedSystems) {
  // General RLC assembly is indefinite: rejected.
  const Netlist rlc = random_rlc({.nodes = 10, .ports = 1, .seed = 6});
  const MnaSystem gen = build_mna(rlc, MnaForm::kGeneral);
  BalancedOptions opt;
  opt.order = 2;
  EXPECT_THROW(balanced_truncation(gen, opt), Error);

  // Order out of range.
  const Netlist rc = random_rc({.nodes = 8, .ports = 1, .seed = 7});
  const MnaSystem sys = build_mna(rc);
  opt.order = 0;
  EXPECT_THROW(balanced_truncation(sys, opt), Error);
  opt.order = sys.size() + 1;
  EXPECT_THROW(balanced_truncation(sys, opt), Error);
}

}  // namespace
}  // namespace sympvl
