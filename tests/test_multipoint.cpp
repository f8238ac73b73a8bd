#include "mor/multipoint.hpp"

#include <gtest/gtest.h>

#include "gen/rc_interconnect.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/rational.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

double rel_err(const CMat& a, const CMat& b) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) {
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return num / (den + 1e-300);
}

// Max relative error of `model_sweep` against the exact engine on `grid`.
double sweep_error(const SweepResult& model_sweep, const SweepResult& exact) {
  double worst = 0.0;
  for (size_t k = 0; k < exact.size(); ++k) {
    if (!exact.ok(k) || !model_sweep.ok(k)) continue;
    worst = std::max(worst, rel_err(model_sweep[k], exact[k]));
  }
  return worst;
}

MnaSystem interconnect_system() {
  // Scaled-down Fig. 5 interconnect: wideband behavior on test budget.
  const InterconnectCircuit circ =
      make_interconnect_circuit({.wires = 3, .segments = 30});
  return build_mna(circ.netlist, MnaForm::kAuto);
}

TEST(Multipoint, ExplicitPointsBuildAndStitch) {
  const MnaSystem sys = interconnect_system();
  MultipointOptions opt;
  opt.total_order = 24;
  opt.f_min = 1e5;
  opt.f_max = 2e10;
  opt.s0_points = rational_shifts_for_band(sys, opt.f_min, opt.f_max, 3);
  FactorCache cache(16);
  opt.base.factor_cache = &cache;
  const MultipointSession mp(sys, opt);
  EXPECT_EQ(mp.point_count(), 3);
  EXPECT_EQ(mp.models().size(), 3u);
  EXPECT_EQ(mp.report().points.size(), 3u);
  // Each session got an even share of the total order (deflation may trim
  // a vector or two, never add).
  for (Index order : mp.report().orders) {
    EXPECT_GE(order, 1);
    EXPECT_LE(order, 8);
  }
  // Low frequencies route to the lowest expansion point, high to the
  // highest (log-σ nearest neighbor).
  EXPECT_EQ(mp.model_index_for(Complex(0.0, 2.0 * M_PI * opt.f_min)), 0);
  EXPECT_EQ(mp.model_index_for(Complex(0.0, 2.0 * M_PI * opt.f_max)), 2);
}

TEST(Multipoint, WidebandBeatsBestSinglePointAtEqualTotalOrder) {
  // A longer line and a wider band than the other tests: the regime where
  // one expansion point genuinely cannot cover the sweep at this order —
  // the premise assertion below guards that the comparison stays
  // meaningful (at a near-exhausted order every model is exact and the
  // criterion degenerates to a tie).
  const InterconnectCircuit circ =
      make_interconnect_circuit({.wires = 3, .segments = 150});
  const MnaSystem sys = build_mna(circ.netlist, MnaForm::kAuto);
  const double f_min = 1e4, f_max = 1e11;
  const Index total_order = 21;
  const Vec grid = log_frequency_grid(f_min, f_max, 31);
  const AcSweepEngine exact(sys);
  const SweepResult ref = sweep(exact, grid);
  ASSERT_TRUE(ref.all_ok());

  // Best single-point model of the same total order, over the candidate
  // expansion points the multipoint session distributes across the band.
  const Vec candidates = rational_shifts_for_band(sys, f_min, f_max, 3);
  double best_single = 1e300;
  for (double s0 : candidates) {
    SympvlOptions sopt;
    sopt.order = total_order;
    sopt.s0 = s0;
    const ReducedModel rom = sympvl_reduce(sys, sopt);
    best_single = std::min(best_single, sweep_error(sweep(rom, grid), ref));
  }
  // Premise: the band is too wide for any single expansion point here.
  ASSERT_GT(best_single, 1e-2);

  MultipointOptions mopt;
  mopt.total_order = total_order;
  mopt.f_min = f_min;
  mopt.f_max = f_max;
  mopt.s0_points = candidates;
  FactorCache cache(16);
  mopt.base.factor_cache = &cache;
  const MultipointSession mp(sys, mopt);
  // Equal total order: the stitched union basis must not exceed the
  // budget the single-point models were given.
  EXPECT_LE(mp.report().stitched_order, total_order);
  const double multi = sweep_error(sweep(mp.stitched(), grid), ref);

  // The stitched wideband model must be at least as accurate as the best
  // single expansion point of equal total order (the issue's acceptance
  // criterion), with a small tolerance for ties.
  EXPECT_LE(multi, best_single * 1.05)
      << "multipoint " << multi << " vs best single " << best_single;
}

TEST(Multipoint, AdaptiveModeRefinesTowardTarget) {
  const MnaSystem sys = interconnect_system();
  MultipointOptions opt;
  opt.total_order = 24;
  opt.f_min = 1e5;
  opt.f_max = 2e10;
  opt.max_points = 3;
  opt.target_error = 1e-6;  // strict: forces at least one refinement
  FactorCache cache(16);
  opt.base.factor_cache = &cache;
  const MultipointSession mp(sys, opt);
  EXPECT_GE(mp.point_count(), 1);
  EXPECT_LE(mp.point_count(), 3);
  EXPECT_GT(mp.report().max_rel_error, 0.0);
  // Either the target was met or the point budget was exhausted /
  // refinement stalled on a duplicate point.
  EXPECT_EQ(mp.report().session_reports.size(),
            static_cast<size_t>(mp.point_count()));
}

TEST(Multipoint, CacheReuseAcrossRefinement) {
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 60, .ports = 2, .seed = 7}));
  MultipointOptions opt;
  opt.total_order = 12;
  opt.f_min = 1e6;
  opt.f_max = 1e10;
  opt.s0_points = rational_shifts_for_band(sys, opt.f_min, opt.f_max, 2);
  // Large enough for every pencil factorization of both sessions —
  // nothing gets evicted between them.
  FactorCache cache(64);
  opt.base.factor_cache = &cache;

  const MultipointSession first(sys, opt);
  const std::uint64_t cold_factorizations = first.report().factorizations;
  EXPECT_GE(cold_factorizations, 2u);  // one per expansion point

  // A second session over the same system and points is fully warm: zero
  // new pencil factorizations (the validation sweep factors its AC points
  // per call, outside the cache and its counts).
  const MultipointSession second(sys, opt);
  EXPECT_EQ(second.report().factorizations, 0u);
  EXPECT_GT(second.report().cache_hits, 0u);

  // And the stitched models agree exactly (cache hits are bit-identical).
  const Vec grid = log_frequency_grid(opt.f_min, opt.f_max, 9);
  const SweepResult a = sweep(first.stitched(), grid);
  const SweepResult b = sweep(second.stitched(), grid);
  for (size_t k = 0; k < grid.size(); ++k)
    EXPECT_EQ(rel_err(a[k], b[k]), 0.0);
}

TEST(Multipoint, RejectsInvalidOptions) {
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 20, .ports = 1, .seed = 3}));
  MultipointOptions opt;
  opt.total_order = 0;
  opt.f_min = 1e6;
  opt.f_max = 1e9;
  EXPECT_THROW(MultipointSession(sys, opt), Error);
  opt.total_order = 8;
  opt.f_min = 0.0;
  EXPECT_THROW(MultipointSession(sys, opt), Error);
  opt.f_min = 1e6;
  opt.s0_points = Vec{-1.0};
  EXPECT_THROW(MultipointSession(sys, opt), Error);
}

}  // namespace
}  // namespace sympvl
