#include "linalg/factor_cache.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "fault.hpp"
#include "gen/package.hpp"
#include "gen/peec.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/arnoldi.hpp"
#include "mor/lanczos.hpp"
#include "mor/multipoint.hpp"
#include "mor/pencil.hpp"
#include "mor/pvl.hpp"
#include "mor/sympvl.hpp"
#include "mor/sypvl.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"

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

MnaSystem small_rc() {
  return build_mna(random_rc({.nodes = 40, .ports = 2, .seed = 11}));
}

FactorCache::RealMaker maker_for(const MnaSystem& sys,
                                 const PencilFactorOptions& opt) {
  return [&sys, opt] {
    return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt);
  };
}

TEST(FactorCache, MissThenHitReturnsSameFactorization) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  PencilFactorOptions opt;
  opt.shift = 1e9;

  bool hit = true;
  const auto a = cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // the same shared factorization

  const FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.factorizations, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FactorCache, DistinctKeysDistinctEntries) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(8);
  PencilFactorOptions a;
  a.shift = 0.0;
  PencilFactorOptions b;
  b.shift = 2e9;
  PencilFactorOptions c;
  c.shift = 0.0;
  c.ordering = Ordering::kNatural;
  cache.acquire(fp, a, maker_for(sys, a));
  cache.acquire(fp, b, maker_for(sys, b));
  cache.acquire(fp, c, maker_for(sys, c));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(FactorCache, LruEvictionDropsOldest) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(2);
  auto opt_at = [](double s0) {
    PencilFactorOptions o;
    o.shift = s0;
    return o;
  };
  for (double s0 : {1e8, 2e8, 3e8}) {  // 1e8 falls off the back
    const auto o = opt_at(s0);
    cache.acquire(fp, o, maker_for(sys, o));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool hit = false;
  auto o3 = opt_at(3e8);
  cache.acquire(fp, o3, maker_for(sys, o3), &hit);
  EXPECT_TRUE(hit);  // most recent survives
  auto o1 = opt_at(1e8);
  cache.acquire(fp, o1, maker_for(sys, o1), &hit);
  EXPECT_FALSE(hit);  // the evicted entry is gone
}

TEST(FactorCache, TouchRefreshesLruOrder) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(2);
  auto opt_at = [](double s0) {
    PencilFactorOptions o;
    o.shift = s0;
    return o;
  };
  const auto o1 = opt_at(1e8), o2 = opt_at(2e8), o3 = opt_at(3e8);
  cache.acquire(fp, o1, maker_for(sys, o1));
  cache.acquire(fp, o2, maker_for(sys, o2));
  cache.acquire(fp, o1, maker_for(sys, o1));  // touch: 1e8 becomes MRU
  cache.acquire(fp, o3, maker_for(sys, o3));  // evicts 2e8, not 1e8
  bool hit = false;
  cache.acquire(fp, o1, maker_for(sys, o1), &hit);
  EXPECT_TRUE(hit);
  cache.acquire(fp, o2, maker_for(sys, o2), &hit);
  EXPECT_FALSE(hit);
}

TEST(FactorCache, FingerprintDistinguishesValueChanges) {
  Netlist nl;
  nl.add_resistor(1, 0, 100.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys1 = build_mna(nl);
  Netlist nl2;
  nl2.add_resistor(1, 0, 101.0);  // same pattern, different value
  nl2.add_capacitor(1, 0, 1e-12);
  nl2.add_port(1, 0);
  const MnaSystem sys2 = build_mna(nl2);
  const PencilFingerprint a = fingerprint_pencil(sys1.G, sys1.C);
  const PencilFingerprint b = fingerprint_pencil(sys2.G, sys2.C);
  EXPECT_NE(a.g, b.g);
  EXPECT_EQ(a.c, b.c);
}

TEST(FactorCache, FaultModeBypassesCacheEntirely) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  PencilFactorOptions opt;
  opt.shift = 1e9;
  fault::arm("ldlt.pivot@999999");  // armed but never triggering
  ASSERT_TRUE(fault::active());
  bool hit = true;
  cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_FALSE(hit);
  cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_FALSE(hit);  // second acquire refactors too: never read
  fault::disarm();
  EXPECT_EQ(cache.size(), 0u);  // never written
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().factorizations, 2u);

  // After disarming, the cache works again.
  cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_FALSE(hit);
  cache.acquire(fp, opt, maker_for(sys, opt), &hit);
  EXPECT_TRUE(hit);
}

TEST(FactorCache, FailedFactorizationIsNotCached) {
  // Pure-C netlist: G is singular at shift 0; the maker throws.
  Netlist nl;
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  PencilFactorOptions opt;  // shift 0 → singular
  EXPECT_THROW(cache.acquire(fp, opt, maker_for(sys, opt)), Error);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FactorCache, ExactAcPointIsFactoredPerCall) {
  // Exact AC point factors are never cached: each z_at() factors its
  // point and frees the factor on return, so a revisited point is
  // factored again and the cache holds no entry.
  const MnaSystem sys = small_rc();
  FactorCache cache(8);
  const AcSweepEngine engine(sys, &cache);
  const Complex s(0.0, 2.0 * M_PI * 1e8);
  obs::enable(true);
  obs::reset();
  const CMat first = engine.z_at(s);
  const CMat second = engine.z_at(s);
  const std::vector<obs::Event> events = obs::snapshot_events();
  obs::enable(false);
  obs::reset();

  int factors = 0;
  for (const obs::Event& e : events)
    if (e.phase == 'X' && std::strcmp(e.name, "ldlt.factor") == 0) ++factors;
  EXPECT_EQ(factors, 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(rel_err(first, second), 0.0);
}

TEST(FactorCache, CacheHitReportsNoFactorRate) {
  // A reduction served from the cache factored nothing, so it reports no
  // flop rate (not the cached factor's flops over the lookup time).
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 400, .ports = 4, .seed = 11}));
  FactorCache cache(4);
  SympvlOptions opt;
  opt.order = 8;
  opt.factor_cache = &cache;
  SympvlReport first, second;
  sympvl_reduce(sys, opt, &first);
  sympvl_reduce(sys, opt, &second);
  EXPECT_EQ(first.factor_cache_misses, 1);
  EXPECT_GT(first.factor_gflops, 0.0);
  EXPECT_EQ(second.factor_cache_hits, 1);
  EXPECT_GT(second.factor_flops, 0.0);
  EXPECT_EQ(second.factor_gflops, 0.0);
  EXPECT_EQ(cache.stats().factorizations, 1u);
}

// ---- One symbolic analysis per sparsity pattern. ----

TEST(FactorCache, SymbolicChargedOncePerPattern) {
  const MnaSystem sys = small_rc();
  const SMat a1 = assemble_pencil(sys.G, sys.C, 1e9);
  const SMat a2 = assemble_pencil(sys.G, sys.C, 3e9);  // same pattern
  ASSERT_EQ(a1.colptr(), a2.colptr());
  ASSERT_EQ(a1.rowind(), a2.rowind());
  obs::ByteGauge& gauge = obs::byte_gauge("mem.factor_bytes");
  const std::int64_t base = gauge.value();
  FactorCache cache(4);

  const auto sym1 = cache.symbolic(a1, kDefaultOrdering);
  EXPECT_GT(sym1->bytes(), 0);
  EXPECT_EQ(gauge.value(), base + sym1->bytes());
  const LDLT f1(a1, sym1);
  EXPECT_EQ(gauge.value(), base + sym1->bytes() + f1.factor_bytes());

  // The second factor of the pattern shares the analysis: only its
  // numeric storage is charged.
  const auto sym2 = cache.symbolic(a2, kDefaultOrdering);
  EXPECT_EQ(sym2.get(), sym1.get());
  const LDLT f2(a2, sym2);
  EXPECT_EQ(gauge.value(),
            base + sym1->bytes() + f1.factor_bytes() + f2.factor_bytes());
  EXPECT_EQ(cache.stats().symbolic_misses, 1u);
  EXPECT_EQ(cache.stats().symbolic_hits, 1u);
}

TEST(FactorCache, SymbolicIsHeldWeaklyAndKeyedByOrdering) {
  const MnaSystem sys = small_rc();
  FactorCache cache(4);
  const std::weak_ptr<const LdltSymbolic> first =
      cache.symbolic(sys.G, kDefaultOrdering);
  EXPECT_TRUE(first.expired()) << "no user left: the cache must not pin it";
  EXPECT_EQ(cache.size(), 0u) << "symbolics never occupy LRU entries";

  const auto nd = cache.symbolic(sys.G, Ordering::kNestedDissection);
  const auto rcm = cache.symbolic(sys.G, Ordering::kRCM);
  EXPECT_NE(nd.get(), rcm.get());
  EXPECT_EQ(rcm->ordering(), Ordering::kRCM);
  EXPECT_EQ(cache.symbolic(sys.G, Ordering::kRCM).get(), rcm.get());
  EXPECT_EQ(cache.stats().symbolic_misses, 3u);
  EXPECT_EQ(cache.stats().symbolic_hits, 1u);
}

TEST(FactorCache, SymbolicTracesOrderingInsideAnalysisOnce) {
  // One analysis records one ldlt.ordering span nested inside its
  // ldlt.symbolic span on the same thread; a FactorCache::symbolic hit
  // records neither.
  const MnaSystem sys = small_rc();
  FactorCache cache(4);
  obs::enable(true);
  obs::reset();
  const auto sym = cache.symbolic(sys.G, kDefaultOrdering);
  const std::vector<obs::Event> first = obs::snapshot_events();
  obs::reset();
  const auto again = cache.symbolic(sys.G, kDefaultOrdering);
  const std::vector<obs::Event> second = obs::snapshot_events();
  obs::enable(false);
  obs::reset();

  EXPECT_EQ(again.get(), sym.get());
  std::vector<const obs::Event*> symbolic, ordering;
  for (const obs::Event& e : first) {
    if (e.phase != 'X') continue;
    if (std::strcmp(e.name, "ldlt.symbolic") == 0) symbolic.push_back(&e);
    if (std::strcmp(e.name, "ldlt.ordering") == 0) ordering.push_back(&e);
  }
  ASSERT_EQ(symbolic.size(), 1u);
  ASSERT_EQ(ordering.size(), 1u);
  const obs::Event& outer = *symbolic[0];
  const obs::Event& inner = *ordering[0];
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  for (const obs::Event& e : second)
    EXPECT_TRUE(std::strcmp(e.name, "ldlt.symbolic") != 0 &&
                std::strcmp(e.name, "ldlt.ordering") != 0)
        << e.name << " recorded on a cache hit";
}

TEST(FactorCache, EngineAfterReduceSharesSymbolicBitIdentically) {
  const MnaSystem sys = small_rc();
  FactorCache cache(8);
  SympvlOptions opt;
  opt.order = 6;
  opt.s0 = 1e9;  // pencil pattern = the engine's G ∪ C pattern
  opt.factor_cache = &cache;
  sympvl_reduce(sys, opt);
  ASSERT_EQ(cache.stats().symbolic_misses, 1u);

  const AcSweepEngine engine(sys, &cache);
  EXPECT_EQ(cache.stats().symbolic_misses, 1u)
      << "the engine must reuse the reduction's analysis";
  EXPECT_EQ(cache.stats().symbolic_hits, 1u);

  FactorCache cold(8);
  const AcSweepEngine reference(sys, &cold);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    EXPECT_EQ(rel_err(engine.z_at(s), reference.z_at(s)), 0.0) << "f=" << f;
  }
}

TEST(FactorCache, ComplexEntriesKeyOnResolvedSimdLevel) {
  // The AC point factor resolves its SIMD level from SYMPVL_SIMD at every
  // factorization, so a point revisited after the variable changed must
  // carry the current level's rounding, not the other level's.
  if (detect_simd_level() == SimdLevel::kScalar)
    GTEST_SKIP() << "host runs only the scalar kernels";
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 80, .ports = 2, .seed = 11}));
  ASSERT_GE(sys.size(), 48);  // supernodal: the SIMD level sets the rounding
  const Complex s(0.0, 2.0 * M_PI * 1e8);
  const char* env = std::getenv("SYMPVL_SIMD");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;

  FactorCache cache(8);
  const AcSweepEngine engine(sys, &cache);
  setenv("SYMPVL_SIMD", "scalar", 1);
  engine.z_at(s);
  unsetenv("SYMPVL_SIMD");
  const CMat z = engine.z_at(s);

  FactorCache fresh(8);
  const CMat z_fresh = AcSweepEngine(sys, &fresh).z_at(s);
  if (saved) setenv("SYMPVL_SIMD", saved->c_str(), 1);
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j)
      EXPECT_EQ(z(i, j), z_fresh(i, j)) << "Z(" << i << "," << j << ")";
}

TEST(FactorCache, ReshiftAndMultipointBuildOneSymbolic) {
  const MnaSystem sys = small_rc();
  {
    FactorCache cache(8);
    SympvlOptions opt;
    opt.order = 6;
    opt.s0 = 1e9;
    opt.factor_cache = &cache;
    SympvlSession session(sys, opt);
    ASSERT_EQ(cache.stats().symbolic_misses, 1u);
    session.reshift(4e9);
    EXPECT_EQ(cache.stats().factorizations, 2u);
    EXPECT_EQ(cache.stats().symbolic_misses, 1u)
        << "reshift to another nonzero shift must share the analysis";
    EXPECT_GE(cache.stats().symbolic_hits, 1u);
  }
  {
    FactorCache cache(8);
    MultipointOptions mp;
    mp.s0_points = {2.0 * M_PI * 1e8, 2.0 * M_PI * 1e9};
    mp.f_min = 1e7;
    mp.f_max = 1e10;
    mp.total_order = 8;
    mp.base.factor_cache = &cache;
    const MultipointSession session(sys, mp);
    EXPECT_EQ(session.point_count(), 2);
    EXPECT_GE(cache.stats().factorizations, 2u);
    EXPECT_EQ(cache.stats().symbolic_misses, 1u)
        << "both expansion points and the validation engine share one analysis";
  }
}

TEST(FactorCache, FaultModeBypassesSymbolics) {
  const MnaSystem sys = small_rc();
  FactorCache cache(4);
  const auto held = cache.symbolic(sys.G, kDefaultOrdering);  // written
  fault::arm("ldlt.pivot@999999");  // armed but never triggering
  ASSERT_TRUE(fault::active());
  const auto during = cache.symbolic(sys.G, kDefaultOrdering);
  EXPECT_NE(during.get(), held.get()) << "never read while armed";
  const auto during2 = cache.symbolic(sys.G, Ordering::kRCM);
  fault::disarm();
  EXPECT_EQ(cache.stats().symbolic_hits, 0u);
  EXPECT_EQ(cache.stats().symbolic_misses, 1u);
  // Never written while armed: the armed-mode RCM analysis is unknown to
  // the cache, the pre-armed one is still served.
  EXPECT_NE(cache.symbolic(sys.G, Ordering::kRCM).get(), during2.get());
  EXPECT_EQ(cache.symbolic(sys.G, kDefaultOrdering).get(), held.get());
}

TEST(FactorCache, WarmCacheReductionIsBitIdentical) {
  const MnaSystem sys = small_rc();
  FactorCache cache(8);
  SympvlOptions opt;
  opt.order = 8;
  opt.s0 = 5e8;
  opt.factor_cache = &cache;

  const ReducedModel cold = sympvl_reduce(sys, opt);
  ASSERT_EQ(cache.stats().hits, 0u);
  const ReducedModel warm = sympvl_reduce(sys, opt);
  EXPECT_GE(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().factorizations, 1u);

  EXPECT_EQ((cold.t() - warm.t()).max_abs(), 0.0);
  EXPECT_EQ((cold.delta() - warm.delta()).max_abs(), 0.0);
  EXPECT_EQ((cold.rho() - warm.rho()).max_abs(), 0.0);
}

// In-test replication of the pre-refactor SyMPVL pipeline: direct LDLᵀ,
// per-vector closure operator, band_lanczos, ReducedModel. The
// FactorizedPencil path must reproduce it to the last bit (≤ 1e-13 per
// the issue's acceptance criterion; equality by construction).
ReducedModel direct_reference(const MnaSystem& sys, double s0,
                              const SympvlOptions& opt) {
  const SMat gt = (s0 == 0.0) ? sys.G : SMat::add(sys.G, 1.0, sys.C, s0);
  const LDLT fact(gt, opt.ordering, /*zero_pivot_tol=*/1e-12);
  const Vec j = fact.j_signs();
  const Index n = sys.size();
  Mat start(n, sys.port_count());
  for (Index col = 0; col < sys.port_count(); ++col) {
    Vec v = fact.solve_m(sys.B.col(col));
    for (Index i = 0; i < n; ++i)
      v[static_cast<size_t>(i)] *= j[static_cast<size_t>(i)];
    start.set_col(col, v);
  }
  const CallableOperator op([&](const Vec& v) {
    Vec w = fact.solve_mt(v);
    w = sys.C.multiply(w);
    w = fact.solve_m(w);
    for (size_t i = 0; i < w.size(); ++i) w[i] *= j[i];
    return w;
  });
  LanczosOptions lopt;
  lopt.max_order = opt.order;
  lopt.deflation_tol = opt.deflation_tol;
  lopt.lookahead_tol = opt.lookahead_tol;
  lopt.full_reorthogonalization = opt.full_reorthogonalization;
  lopt.max_cluster_size = opt.max_cluster_size;
  return ReducedModel(band_lanczos(op, start, j, lopt), sys.variable,
                      sys.s_prefactor, s0);
}

TEST(FactorCache, RefactoredSympvlMatchesDirectPathOnPackage) {
  const PackageCircuit pkg =
      make_package_circuit({.pins = 8, .segments = 3, .signal_pins = 2});
  const MnaSystem sys = build_mna(pkg.netlist, MnaForm::kAuto);
  const double s0 = 2.0 * M_PI * 1e9;
  SympvlOptions opt;
  opt.order = 12;
  opt.s0 = s0;
  FactorCache cache(4);
  opt.factor_cache = &cache;
  const ReducedModel refactored = sympvl_reduce(sys, opt);
  const ReducedModel reference = direct_reference(sys, s0, opt);
  ASSERT_EQ(refactored.order(), reference.order());
  EXPECT_LE((refactored.t() - reference.t()).max_abs(), 1e-13);
  EXPECT_LE((refactored.delta() - reference.delta()).max_abs(), 1e-13);
  EXPECT_LE((refactored.rho() - reference.rho()).max_abs(), 1e-13);
}

TEST(FactorCache, RefactoredSympvlMatchesDirectPathOnPeec) {
  const PeecCircuit peec = make_peec_circuit({.grid = 4});
  const MnaSystem& sys = peec.system;
  const double s0 = automatic_shift(sys);  // LC: G is singular, shift needed
  SympvlOptions opt;
  opt.order = 10;
  opt.s0 = s0;
  FactorCache cache(4);
  opt.factor_cache = &cache;
  const ReducedModel refactored = sympvl_reduce(sys, opt);
  const ReducedModel reference = direct_reference(sys, s0, opt);
  ASSERT_EQ(refactored.order(), reference.order());
  EXPECT_LE((refactored.t() - reference.t()).max_abs(), 1e-13);
  EXPECT_LE((refactored.delta() - reference.delta()).max_abs(), 1e-13);
  EXPECT_LE((refactored.rho() - reference.rho()).max_abs(), 1e-13);
}

TEST(FactorCache, AllDriversShareOneFactorizationAtSameShift) {
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 30, .ports = 1, .seed = 21}));
  FactorCache cache(8);
  const double s0 = 1e9;

  SympvlOptions sopt;
  sopt.order = 6;
  sopt.s0 = s0;
  sopt.factor_cache = &cache;
  sympvl_reduce(sys, sopt);
  EXPECT_EQ(cache.stats().factorizations, 1u);

  sypvl_reduce(sys, sopt);
  EXPECT_EQ(cache.stats().factorizations, 1u);

  PvlOptions popt;
  popt.order = 6;
  popt.s0 = s0;
  popt.factor_cache = &cache;
  pvl_reduce_entry(sys, 0, 0, popt);
  EXPECT_EQ(cache.stats().factorizations, 1u);

  ArnoldiOptions aopt;
  aopt.order = 6;
  aopt.s0 = s0;
  aopt.factor_cache = &cache;
  arnoldi_reduce(sys, aopt);
  EXPECT_EQ(cache.stats().factorizations, 1u)
      << "all four drivers must share the single cached factorization";
  EXPECT_GE(cache.stats().hits, 3u);
}

TEST(FactorCache, ConcurrentAcquireIsSafeAndConsistent) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 16;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        PencilFactorOptions opt;
        opt.shift = (i % 2 == 0) ? 1e9 : 2e9;  // two hot keys, one pattern
        // Racing misses also race on the shared symbolic analysis.
        const auto pencil = cache.acquire(fp, opt, [&sys, opt, &cache] {
          return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt,
                                                          &cache);
        });
        if (pencil != nullptr && pencil->size() == sys.size()) ++ok[t];
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], kIters);
  const FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(s.symbolic_hits + s.symbolic_misses, s.misses);
  EXPECT_GE(s.symbolic_misses, 1u);
}

TEST(FactorCache, ByteAccountingRisesOnMissFallsOnEvict) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  obs::ByteGauge& gauge = obs::byte_gauge("factor_cache.resident_bytes");
  const std::int64_t gauge_base = gauge.value();
  std::int64_t r2 = 0;
  {
    FactorCache cache(2);
    EXPECT_EQ(cache.stats().resident_bytes, 0);

    PencilFactorOptions o1, o2, o3;
    o1.shift = 1e8;
    o2.shift = 2e8;
    o3.shift = 3e8;

    cache.acquire(fp, o1, maker_for(sys, o1));
    const std::int64_t r1 = cache.stats().resident_bytes;
    EXPECT_GT(r1, 0);
    EXPECT_EQ(cache.stats().peak_resident_bytes, r1);
    EXPECT_EQ(gauge.value(), gauge_base + r1);

    cache.acquire(fp, o2, maker_for(sys, o2));
    r2 = cache.stats().resident_bytes;
    EXPECT_GT(r2, r1);
    EXPECT_EQ(cache.stats().peak_resident_bytes, r2);

    // Third insert into a 2-entry cache: one forced eviction. Resident
    // bytes stay at ~two entries (all entries are same-sized pencils of
    // one circuit), never three.
    cache.acquire(fp, o3, maker_for(sys, o3));
    const FactorCacheStats s3 = cache.stats();
    EXPECT_EQ(s3.evictions, 1u);
    EXPECT_LT(s3.resident_bytes, r2 + r1);
    EXPECT_GT(s3.resident_bytes, 0);
    EXPECT_EQ(gauge.value(), gauge_base + s3.resident_bytes);

    // A capacity shrink is also eviction pressure.
    cache.set_capacity(1);
    const FactorCacheStats s4 = cache.stats();
    EXPECT_EQ(s4.evictions, 2u);
    EXPECT_LT(s4.resident_bytes, s3.resident_bytes);

    // clear() releases the bytes but is NOT an eviction (no pressure).
    cache.clear();
    const FactorCacheStats s5 = cache.stats();
    EXPECT_EQ(s5.resident_bytes, 0);
    EXPECT_EQ(s5.evictions, 2u);
    EXPECT_EQ(gauge.value(), gauge_base);
    // The peak survives as the high-water mark until reset_stats(). (An
    // insert past capacity charges the new entry before the LRU pop, so
    // the peak can momentarily exceed the steady two-entry residency.)
    EXPECT_GE(s5.peak_resident_bytes, r2);
    cache.reset_stats();
    EXPECT_EQ(cache.stats().peak_resident_bytes, 0);

    cache.acquire(fp, o1, maker_for(sys, o1));
    EXPECT_GT(gauge.value(), gauge_base);
  }
  // Destruction uncharges the process-wide gauge for live entries.
  EXPECT_EQ(gauge.value(), gauge_base);
  EXPECT_GE(gauge.peak(), gauge_base + r2);
}

TEST(FactorCache, ClearDropsEntriesKeepsStats) {
  const MnaSystem sys = small_rc();
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  FactorCache cache(4);
  PencilFactorOptions opt;
  opt.shift = 1e9;
  cache.acquire(fp, opt, maker_for(sys, opt));
  ASSERT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().misses, 0u);
}

}  // namespace
}  // namespace sympvl
