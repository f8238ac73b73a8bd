// The unified sweep entry point (sim/sweep_api.hpp) and the
// CacheOptions/KernelOptions plumbing of CommonReductionOptions: the
// sweep() overloads must agree bit for bit where they share a path, and
// the option structs must actually reach the factorization layer (cache
// keys, SympvlReport telemetry, per-reduction bypass).
#include "sim/sweep_api.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/package.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/sympvl.hpp"
#include "sympvl.hpp"  // the umbrella must compile standalone in a TU

namespace sympvl {
namespace {

MnaSystem small_rc() {
  return build_mna(random_rc({.nodes = 40, .ports = 2, .seed = 23}));
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a.ok(k), b.ok(k));
    for (Index i = 0; i < a[k].rows(); ++i)
      for (Index j = 0; j < a[k].cols(); ++j) {
        ASSERT_EQ(a[k](i, j).real(), b[k](i, j).real());
        ASSERT_EQ(a[k](i, j).imag(), b[k](i, j).imag());
      }
  }
}

TEST(SweepApi, SystemOverloadMatchesEngine) {
  const MnaSystem sys = small_rc();
  const Vec freqs = log_frequency_grid(1e6, 1e9, 9);
  const SweepResult via_system = sweep(sys, freqs);
  FactorCache cache(8);  // a private cache: every point factors afresh
  const AcSweepEngine engine(sys, &cache);
  expect_bit_identical(via_system, sweep(engine, freqs));
}

TEST(SweepApi, ModalOverloadMatchesMemberValuesAndContains) {
  const MnaSystem sys = small_rc();
  SympvlOptions opt;
  opt.order = 8;
  const ModalModel modal = modal_decompose(sympvl_reduce(sys, opt));
  const Vec freqs = log_frequency_grid(1e6, 1e9, 11);
  const SweepResult swept = sweep(modal, freqs);
  ASSERT_TRUE(swept.all_ok());
  ASSERT_EQ(swept.size(), freqs.size());
  for (size_t k = 0; k < freqs.size(); ++k) {
    const CMat z = modal.eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j) {
        ASSERT_EQ(swept[k](i, j).real(), z(i, j).real());
        ASSERT_EQ(swept[k](i, j).imag(), z(i, j).imag());
      }
  }

  // A grid point landing exactly on a pole fails alone: a NaN placeholder
  // plus a structured record, the other point untouched.
  CMat residue(1, 1);
  residue(0, 0) = Complex(1.0, 0.0);
  const ModalModel pole_at_dc(CVec{Complex(0.0, 0.0)}, {residue}, Mat(1, 1),
                              SVariable::kS, 0);
  const SweepResult contained = sweep(pole_at_dc, Vec{0.0, 1e6});
  ASSERT_EQ(contained.failed_count(), 1);
  EXPECT_EQ(contained.errors[0].index, 0);
  EXPECT_TRUE(std::isnan(contained[0](0, 0).real()));
  ASSERT_TRUE(contained.ok(1));
  EXPECT_EQ(contained[1](0, 0),
            pole_at_dc.eval(Complex(0.0, 2.0 * M_PI * 1e6))(0, 0));
}

// throw_on_failure needs a deterministically failing point, so its test
// lives in the fault-injection suite (test_fault.cpp,
// UnifiedSweepThrowOnFailure) where "sweep.point" can be armed.

// ---- Option plumbing: CommonReductionOptions::{cache, kernel}. ----

TEST(OptionPlumbing, KernelTelemetryReachesSympvlReport) {
  PackageOptions popt;
  popt.pins = 8;
  popt.segments = 4;
  const MnaSystem sys =
      build_mna(make_package_circuit(popt).netlist, MnaForm::kGeneral);
  FactorCache cache(4);

  SympvlOptions opt;
  opt.order = 8;
  opt.factor_cache = &cache;
  opt.kernel.path = KernelPath::kSupernodal;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  EXPECT_EQ(report.kernel_path, "supernodal");
  EXPECT_GT(report.supernode_count, 0);
  EXPECT_GE(report.max_panel_width, 1);
  EXPECT_EQ(report.factor_cache_hits, 0);
  EXPECT_GE(report.factor_cache_misses, 1);

  // Same reduction again: served from the cache, and the telemetry is
  // carried by the shared factorization.
  SympvlReport warm;
  sympvl_reduce(sys, opt, &warm);
  EXPECT_GE(warm.factor_cache_hits, 1);
  EXPECT_EQ(warm.supernode_count, report.supernode_count);

  // The simplicial spelling reports itself — and is a distinct cache
  // entry (different kernel key), so it factors fresh, not from the
  // supernodal entry.
  SympvlOptions simp = opt;
  simp.kernel.path = KernelPath::kSimplicial;
  SympvlReport simp_report;
  sympvl_reduce(sys, simp, &simp_report);
  EXPECT_EQ(simp_report.kernel_path, "simplicial");
  EXPECT_EQ(simp_report.supernode_count, 0);
  EXPECT_EQ(simp_report.factor_cache_hits, 0);
}

TEST(OptionPlumbing, CacheDisabledBypassesWithoutTouchingEntries) {
  const MnaSystem sys = small_rc();
  FactorCache cache(4);
  SympvlOptions opt;
  opt.order = 6;
  opt.factor_cache = &cache;
  opt.cache.enabled = false;

  SympvlReport first, second;
  sympvl_reduce(sys, opt, &first);
  sympvl_reduce(sys, opt, &second);
  EXPECT_EQ(cache.size(), 0u);  // nothing written
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(first.factor_cache_hits, 0);
  EXPECT_EQ(second.factor_cache_hits, 0);
  EXPECT_GE(second.factor_cache_misses, 1);
}

TEST(OptionPlumbing, CacheCapacityOptionResizes) {
  const MnaSystem sys = small_rc();
  FactorCache cache(32);
  SympvlOptions opt;
  opt.order = 6;
  opt.factor_cache = &cache;
  opt.cache.capacity = 2;
  sympvl_reduce(sys, opt);
  EXPECT_EQ(cache.capacity(), 2u);
}

TEST(OptionPlumbing, DisabledFactorCacheInstanceFactorsFresh) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  cache.set_enabled(false);
  EXPECT_FALSE(cache.enabled());
  PencilFactorOptions opt;
  bool hit = true;
  const auto a = cache.acquire(
      fp, opt,
      [&] { return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt); },
      &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.acquire(
      fp, opt,
      [&] { return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt); },
      &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.get(), b.get());  // two fresh factorizations
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().factorizations, 2u);

  cache.set_enabled(true);
  const auto c = cache.acquire(
      fp, opt,
      [&] { return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt); },
      &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1u);
  (void)c;
}

TEST(OptionPlumbing, SetCapacityEvictsDownToBound) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(8);
  for (double shift : {1e3, 1e4, 1e5, 1e6}) {
    PencilFactorOptions opt;
    opt.shift = shift;
    cache.acquire(fp, opt, [&] {
      return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt);
    });
  }
  EXPECT_EQ(cache.size(), 4u);
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);
  EXPECT_GE(cache.stats().evictions, 2u);
}

TEST(OptionPlumbing, KernelOptionsArePartOfTheCacheKey) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(8);
  PencilFactorOptions simplicial;
  simplicial.kernels.path = KernelPath::kSimplicial;
  PencilFactorOptions supernodal;
  supernodal.kernels.path = KernelPath::kSupernodal;

  bool hit = true;
  cache.acquire(fp, simplicial, [&] {
    return std::make_shared<const FactorizedPencil>(sys.G, sys.C, simplicial);
  }, &hit);
  EXPECT_FALSE(hit);
  cache.acquire(fp, supernodal, [&] {
    return std::make_shared<const FactorizedPencil>(sys.G, sys.C, supernodal);
  }, &hit);
  EXPECT_FALSE(hit);  // distinct key, no false sharing
  cache.acquire(fp, supernodal, [&] {
    return std::make_shared<const FactorizedPencil>(sys.G, sys.C, supernodal);
  }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace sympvl
