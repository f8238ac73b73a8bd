// Fault-injection suite (ctest label "Fault"): every recovery path of the
// robustness layer is driven deterministically through fault::arm and
// verified end to end — factorization fallback, Lanczos breakdown
// truncation + reshift recovery, and per-point sweep containment.
//
// Built as its own binary (sympvl_fault_tests) so the armed fault state
// can never leak into the main suite; each TEST disarms on exit.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fault.hpp"
#include "gen/package.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/factor_chain.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "obs/json.hpp"
#include "serve/daemon.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

double max_rel_err(const CMat& a, const CMat& b) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) {
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return num / (den + 1e-300);
}

SMat laplacian_spd(Index n) {
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0 + 0.1 * double(i));
  for (Index i = 0; i + 1 < n; ++i) t.add_symmetric(i, i + 1, -1.0);
  return t.compress();
}

// ---- SIMD dispatch parity: the error surface must not depend on the ISA ----

TEST_F(FaultTest, InjectedPivotFailsIdenticallyAcrossSimdLevels) {
  // The same fault site must fire at the same permuted column and surface
  // the same structured error whether the panels run scalar, AVX2 or
  // AVX-512 — the dispatch level is an implementation detail, not an
  // error-surface variable.
  const SMat a = laplacian_spd(120);
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (detect_simd_level() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  if (detect_simd_level() >= SimdLevel::kAvx512)
    levels.push_back(SimdLevel::kAvx512);

  fault::arm("ldlt.pivot@11");
  for (const SimdLevel level : levels) {
    KernelOptions o;
    o.path = KernelPath::kSupernodal;
    o.simd = level;
    try {
      const LDLT f(a, Ordering::kRCM, 1e-14, o);
      FAIL() << "expected injected pivot failure at "
             << simd_level_name(level);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected)
          << simd_level_name(level);
      EXPECT_EQ(e.context().stage, "ldlt.pivot") << simd_level_name(level);
      EXPECT_EQ(e.context().index, 11) << simd_level_name(level);
    }
  }
}

// ---- Acceptance: forced pivot failure walks the whole fallback chain. ----

TEST_F(FaultTest, ForcedPivotFailureWalksLdltLuShiftedRetry) {
  const Index n = 30;
  const SMat g = laplacian_spd(n);
  const SMat c = laplacian_spd(n);

  // LDLᵀ is killed everywhere; LU is killed on its first attempt only —
  // the chain must walk LDLᵀ(s₀) → LU(s₀) → LDLᵀ(s₁) → LU(s₁) and accept
  // the fourth rung, at the first retry shift.
  fault::arm("factor.ldlt@*;factor.lu@1");
  const FactorChainD chain(g, c, 0.0, shift_ladder(1.0, 4));
  fault::disarm();

  ASSERT_EQ(chain.attempts().size(), 4u);
  EXPECT_EQ(chain.attempts()[0].method, "ldlt");
  EXPECT_EQ(chain.attempts()[0].code, ErrorCode::kFaultInjected);
  EXPECT_EQ(chain.attempts()[1].method, "lu");
  EXPECT_EQ(chain.attempts()[1].code, ErrorCode::kFaultInjected);
  EXPECT_EQ(chain.attempts()[2].method, "ldlt");
  EXPECT_TRUE(chain.attempts()[3].success);
  EXPECT_EQ(chain.method(), std::string("lu"));
  EXPECT_TRUE(chain.used_fallback());
  EXPECT_NE(chain.shift_used(), 0.0);

  // The accepted rung really solves its shifted pencil.
  Vec b(static_cast<size_t>(n), 1.0);
  const Vec x = chain.solve(b);
  const SMat shifted = SMat::add(g, 1.0, c, chain.shift_used());
  const Vec r = shifted.multiply(x);
  for (size_t i = 0; i < r.size(); ++i) EXPECT_NEAR(r[i], b[i], 1e-8);
}

TEST_F(FaultTest, ForcedPivotFailureModelMatchesCleanRun) {
  // The SyMPVL ladder: killing every sparse LDLᵀ pivot forces the dense
  // Bunch-Kaufman rung at the SAME expansion point, so the reduced model
  // must match the clean run to factorization accuracy (≤ 1e-10).
  const Netlist nl = random_rc({.nodes = 24, .ports = 2, .seed = 5});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 8;
  opt.s0 = automatic_shift(sys);  // fixed nonzero shift for both runs

  SympvlReport clean_report;
  const ReducedModel clean = sympvl_reduce(sys, opt, &clean_report);
  EXPECT_FALSE(clean_report.used_dense_fallback);

  fault::arm("ldlt.pivot@*");
  SympvlReport report;
  const ReducedModel recovered = sympvl_reduce(sys, opt, &report);
  fault::disarm();

  EXPECT_TRUE(report.used_dense_fallback);
  EXPECT_TRUE(report.recovered);
  ASSERT_GE(report.factor_attempts.size(), 2u);
  EXPECT_EQ(report.factor_attempts.front().code, ErrorCode::kFaultInjected);
  EXPECT_EQ(report.factor_attempts.back().method, "dense_bk");
  EXPECT_TRUE(report.factor_attempts.back().success);
  EXPECT_EQ(report.s0_used, clean_report.s0_used);

  for (double f : {1e7, 1e8, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    EXPECT_LT(max_rel_err(recovered.eval(s), clean.eval(s)), 1e-10) << f;
  }
}

// ---- Acceptance: pivot faults fire identically on both kernel paths. ----

TEST_F(FaultTest, PivotFaultIdenticalAcrossKernelPaths) {
  // fault::check("ldlt.pivot", k) must be reached per column in the same
  // ascending order whether the numeric phase is simplicial or
  // supernodal: an injected fault at a fixed column yields the same
  // structured error and the same fire count on both paths.
  const Index n = 60;
  const SMat a = laplacian_spd(n);
  for (const KernelPath path :
       {KernelPath::kSimplicial, KernelPath::kSupernodal}) {
    KernelOptions kopt;
    kopt.path = path;
    fault::arm("ldlt.pivot@17");
    try {
      const LDLT f(a, Ordering::kNatural, 0.0, kopt);
      FAIL() << "expected injected fault on " << kernel_path_name(path);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected) << kernel_path_name(path);
      EXPECT_EQ(e.context().index, 17) << kernel_path_name(path);
    }
    EXPECT_EQ(fault::fire_count("ldlt.pivot"), 1) << kernel_path_name(path);
    fault::disarm();
  }
}

// ---- Unified sweep: throw_on_failure rethrows the first failed point. ----

TEST_F(FaultTest, UnifiedSweepThrowOnFailure) {
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 7});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 8;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 8);

  fault::arm("sweep.point@3");
  const SweepResult contained = sweep(rom, freqs);
  fault::disarm();
  ASSERT_EQ(contained.failed_count(), 1);
  EXPECT_EQ(contained.errors.front().index, 3);

  SweepOptions strict;
  strict.throw_on_failure = true;
  fault::arm("sweep.point@3");
  try {
    sweep(rom, freqs, strict);
    FAIL() << "expected Error(kSweepPointFailed)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSweepPointFailed);
    EXPECT_EQ(e.context().index, 3);
  }
  fault::disarm();
}

// ---- Acceptance: forced Lanczos breakdown truncates, reshift recovers. ----

TEST_F(FaultTest, ForcedLanczosBreakdownTruncatesThenReshiftRecovers) {
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 7});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 12;

  // Zero every Δ-candidate eigenvalue from iteration 4 on: the look-ahead
  // cluster can never close, hits max_cluster_size and the process must
  // stop at the last healthy order with a diagnosis instead of looping.
  std::string spec = "lanczos.delta@";
  for (Index i = 4; i < 40; ++i)
    spec += (i == 4 ? std::to_string(i) : "," + std::to_string(i));
  fault::arm(spec);
  SympvlSession session(sys, opt);
  fault::disarm();

  EXPECT_TRUE(session.breakdown());
  const SympvlReport& report = session.report();
  EXPECT_TRUE(report.breakdown);
  EXPECT_TRUE(report.lanczos_diagnosis.breakdown);
  EXPECT_FALSE(report.lanczos_diagnosis.message.empty());
  EXPECT_GE(report.achieved_order, 1);
  EXPECT_LT(report.achieved_order, 12);
  // The truncated model is still usable.
  const ReducedModel truncated = session.current();
  EXPECT_EQ(truncated.order(), report.achieved_order);

  // Recovery: re-expand at a different point (eq. 26) with the fault gone.
  const ReducedModel fixed = session.reshift(2.0 * automatic_shift(sys));
  EXPECT_FALSE(session.breakdown());
  EXPECT_EQ(fixed.order(), 12);
  EXPECT_EQ(session.report().shift_retries, 1);
  EXPECT_TRUE(session.report().recovered);

  // The recovered model approximates the truth like a clean run does.
  SympvlOptions copt = opt;
  copt.s0 = 2.0 * automatic_shift(sys);
  const ReducedModel clean = sympvl_reduce(sys, copt);
  for (double f : {1e8, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    EXPECT_LT(max_rel_err(fixed.eval(s), clean.eval(s)), 1e-9) << f;
  }
}

TEST_F(FaultTest, SypvlBreakdownTruncatesAtLastHealthyOrder) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 1, .seed = 9});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 8;

  fault::arm("sypvl.delta@4");
  SympvlReport report;
  const ReducedModel rom = sypvl_reduce(sys, opt, &report);
  fault::disarm();

  EXPECT_EQ(rom.order(), 4);
  EXPECT_TRUE(report.breakdown);
  EXPECT_EQ(report.achieved_order, 4);
  EXPECT_NE(report.lanczos_diagnosis.message.find("truncated"),
            std::string::npos);

  // Breakdown on the very first step: nothing to truncate to.
  fault::arm("sypvl.delta@0");
  try {
    sypvl_reduce(sys, opt);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kBreakdown);
    EXPECT_EQ(ex.context().stage, "sypvl.lanczos");
  }
}

TEST_F(FaultTest, PvlBreakdownTruncatesAndDriverReportsIt) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 2, .seed = 13});
  const MnaSystem sys = build_mna(nl);
  ReduceOptions opt;
  opt.method = ReduceMethod::kPvl;
  opt.order = 6;
  opt.pvl_row = 0;
  opt.pvl_col = 1;

  fault::arm("pvl.delta@3");
  const ReduceResult res = reduce(sys, opt);
  fault::disarm();

  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kTruncated);
  EXPECT_EQ(res.model.order(), 3);
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(res.diagnostics.front().code, ErrorCode::kBreakdown);

  fault::arm("pvl.delta@0");
  const ReduceResult dead = reduce(sys, opt);
  EXPECT_EQ(dead.status, ReductionStatus::kFailed);
  ASSERT_FALSE(dead.diagnostics.empty());
  EXPECT_EQ(dead.diagnostics.front().code, ErrorCode::kBreakdown);
}

// ---- Acceptance: injected sweep-point failures are contained exactly. ----

TEST_F(FaultTest, ThreeInjectedSweepPointsOthersBitIdentical) {
  const Netlist nl = random_rc({.nodes = 30, .ports = 2, .seed = 17});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 16);
  const AcSweepEngine engine(sys);

  const SweepResult clean = sweep(engine, freqs);
  ASSERT_TRUE(clean.all_ok());

  fault::arm("sweep.point@2,5,9");
  const SweepResult faulty = sweep(engine, freqs);
  fault::disarm();

  ASSERT_EQ(faulty.size(), 16u);
  EXPECT_EQ(faulty.failed_count(), 3);
  ASSERT_EQ(faulty.errors.size(), 3u);
  EXPECT_EQ(faulty.errors[0].index, 2);
  EXPECT_EQ(faulty.errors[1].index, 5);
  EXPECT_EQ(faulty.errors[2].index, 9);
  for (const SweepPointError& err : faulty.errors) {
    EXPECT_EQ(err.code, ErrorCode::kFaultInjected);
    EXPECT_NEAR(err.frequency_hz,
                freqs[static_cast<size_t>(err.index)], 1e-6);
    EXPECT_FALSE(err.message.empty());
  }
  for (size_t k = 0; k < faulty.size(); ++k) {
    if (k == 2 || k == 5 || k == 9) {
      EXPECT_FALSE(faulty.ok(k));
      // NaN placeholder, never silent garbage.
      EXPECT_TRUE(std::isnan(faulty[k](0, 0).real()));
    } else {
      EXPECT_TRUE(faulty.ok(k));
      // Bit-identical to the clean run: containment has zero side effects.
      for (Index i = 0; i < faulty[k].rows(); ++i)
        for (Index j = 0; j < faulty[k].cols(); ++j)
          EXPECT_EQ(faulty[k](i, j), clean[k](i, j));
    }
  }

  // The all-or-nothing contract surfaces the first failure, typed.
  fault::arm("sweep.point@2,5,9");
  try {
    sweep(engine, freqs, {.throw_on_failure = true});
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kSweepPointFailed);
    EXPECT_EQ(ex.context().index, 2);
    EXPECT_EQ(std::string(ex.what()).rfind(
                  "3 of 16 sweep points failed; first: ", 0),
              0u)
        << ex.what();
  }
  fault::disarm();
}

TEST_F(FaultTest, ReducedModelSweepContainsPointFaults) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 2, .seed = 19});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 6;
  const ReducedModel rom = sympvl_reduce(sys, opt);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 8);

  fault::arm("sweep.point@1");
  const SweepResult swept = sweep(rom, freqs);
  fault::disarm();

  EXPECT_EQ(swept.failed_count(), 1);
  ASSERT_EQ(swept.errors.size(), 1u);
  EXPECT_EQ(swept.errors[0].index, 1);
  EXPECT_EQ(swept.errors[0].code, ErrorCode::kFaultInjected);
  EXPECT_FALSE(swept.all_ok());
  EXPECT_TRUE(swept.ok(0));
  EXPECT_TRUE(std::isnan(swept[1](0, 0).real()));
}

TEST_F(FaultTest, ChunkFaultMarksUnreachedPointsStructured) {
  const Netlist nl = random_rc({.nodes = 20, .ports = 2, .seed = 23});
  const MnaSystem sys = build_mna(nl);
  const AcSweepEngine engine(sys);
  const Vec freqs = log_frequency_grid(1e6, 1e9, 8);

  // Kill chunk rank 0 before it touches any point: every point it owned
  // is flagged with the chunk-level error, none is silently dropped.
  fault::arm("parallel.chunk@0");
  const SweepResult swept = sweep(engine, freqs);
  fault::disarm();

  EXPECT_EQ(swept.size(), 8u);
  EXPECT_GE(swept.failed_count(), 1);
  ASSERT_FALSE(swept.errors.empty());
  for (const SweepPointError& err : swept.errors) {
    EXPECT_EQ(err.code, ErrorCode::kFaultInjected);
    EXPECT_FALSE(err.message.empty());
  }
  for (size_t k = 0; k < swept.size(); ++k) {
    if (!swept.ok(k)) {
      EXPECT_TRUE(std::isnan(swept[k](0, 0).real()));
    }
  }
}

// ---- Port sharding: a fault inside one shard stays inside that shard. ----

TEST_F(FaultTest, ShardFaultContainedToOneShard) {
  // Injecting at "sympvl.delta" with index 1 kills shard 1's Lanczos run;
  // the other shards must complete, the stitched model must stay usable
  // (the failed shard's port columns are recovered exactly from the
  // starting block), and the diagnostics must name the failed shard.
  PackageOptions popt;
  popt.pins = 16;
  popt.segments = 2;
  popt.signal_pins = 8;
  const MnaSystem sys =
      build_mna(make_package_circuit(popt).netlist, MnaForm::kAuto);

  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 48;
  opt.shard.shards = 4;

  fault::arm("sympvl.delta@1");
  const ReduceResult res = reduce(sys, opt);
  fault::disarm();

  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kTruncated);
  EXPECT_EQ(res.shard.failed_shards, (std::vector<Index>{1}));
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_NE(res.diagnostics.front().stage.find("shard.1"), std::string::npos)
      << "stage was: " << res.diagnostics.front().stage;

  // Three of four shards still contribute Krylov content.
  EXPECT_GT(res.shard.stitched_order, 0);
  ASSERT_NE(res.model.as_arnoldi(), nullptr);
  EXPECT_EQ(res.model.port_count(), sys.port_count());

  // The stitched model evaluates finitely everywhere on a probe grid.
  for (double f : {1e7, 1e8, 1e9}) {
    const CMat z = res.model.eval(Complex(0.0, 2.0 * M_PI * f));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j)
        EXPECT_TRUE(std::isfinite(z(i, j).real()) &&
                    std::isfinite(z(i, j).imag()))
            << "non-finite at f=" << f << " (" << i << "," << j << ")";
  }

  // And a clean rerun is unaffected (no fault state leaked).
  const ReduceResult clean = reduce(sys, opt);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.status, ReductionStatus::kOk);
  EXPECT_TRUE(clean.shard.failed_shards.empty());
}

// ---- Serving daemon: per-request fault containment. ----

TEST_F(FaultTest, DaemonContainsInjectedRequestFault) {
  serve::Daemon daemon({});
  const char* status_req = "{\"v\":1,\"op\":\"status\"}";

  // Requests are numbered by arrival; poison exactly the second one.
  fault::arm("serve.request@1");
  const std::string ok0 = daemon.handle(status_req);
  const std::string poisoned = daemon.handle(status_req);
  const std::string ok2 = daemon.handle(status_req);
  EXPECT_EQ(fault::fire_count("serve.request"), 1);
  fault::disarm();

  EXPECT_NE(ok0.find("\"ok\":true"), std::string::npos) << ok0;
  EXPECT_NE(ok2.find("\"ok\":true"), std::string::npos) << ok2;
  EXPECT_NE(poisoned.find("\"ok\":false"), std::string::npos) << poisoned;
  EXPECT_NE(poisoned.find("\"code\":\"fault_injected\""), std::string::npos);
  EXPECT_NE(poisoned.find("\"stage\":\"serve.request\""), std::string::npos);

  const serve::DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST_F(FaultTest, DaemonSweepPointFaultFlagsOnlyThatRequest) {
  serve::DaemonOptions opt;
  opt.batch_window_us = 0;  // deterministic: each request sweeps alone
  serve::Daemon daemon(opt);
  const std::string netlist =
      "R1 in mid 1k\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n";
  const std::string reduce_response = daemon.handle(
      "{\"v\":1,\"op\":\"reduce\",\"netlist\":" + obs::json_string(netlist) +
      ",\"options\":{\"order\":4}}");
  ASSERT_NE(reduce_response.find("\"ok\":true"), std::string::npos)
      << reduce_response;
  const size_t at = reduce_response.find("\"rom\":\"");
  const std::string rom = reduce_response.substr(at + 7, 33);
  const std::string sweep_req =
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom +
      "\",\"frequencies_hz\":[1e3,1e6,1e9,2e9]}";

  // An injected sweep-point fault is contained per point: the request
  // still answers ok with the bad point flagged, and the next request
  // (fault disarmed) is fully healthy.
  fault::arm("sweep.point@2");
  const std::string flagged = daemon.handle(sweep_req);
  fault::disarm();
  EXPECT_NE(flagged.find("\"ok\":true"), std::string::npos) << flagged;
  EXPECT_NE(flagged.find("\"failed\":1"), std::string::npos) << flagged;
  EXPECT_NE(flagged.find("\"code\":\"fault_injected\""), std::string::npos);
  EXPECT_NE(flagged.find("\"index\":2"), std::string::npos);
  EXPECT_NE(flagged.find("null"), std::string::npos);  // NaN value → null

  const std::string healthy = daemon.handle(sweep_req);
  EXPECT_NE(healthy.find("\"failed\":0"), std::string::npos) << healthy;

  // strict mode turns the contained point into a request-level coded
  // error — and the daemon keeps serving afterwards.
  fault::arm("sweep.point@2");
  const std::string strict = daemon.handle(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom +
      "\",\"frequencies_hz\":[1e3,1e6,1e9,2e9],\"strict\":true}");
  fault::disarm();
  EXPECT_NE(strict.find("\"ok\":false"), std::string::npos) << strict;
  EXPECT_NE(strict.find("\"code\":\"sweep_point_failed\""),
            std::string::npos);
  EXPECT_NE(daemon.handle(sweep_req).find("\"failed\":0"),
            std::string::npos);
}

TEST_F(FaultTest, ArmDisarmAndFireCounts) {
  EXPECT_FALSE(fault::active());
  fault::arm("sweep.point@0,1");
  EXPECT_TRUE(fault::active());
  EXPECT_EQ(fault::fire_count("sweep.point"), 0);
  EXPECT_TRUE(fault::triggered("sweep.point", 0));
  EXPECT_FALSE(fault::triggered("sweep.point", 7));
  EXPECT_TRUE(fault::triggered("sweep.point", 1));
  EXPECT_EQ(fault::fire_count("sweep.point"), 2);
  fault::disarm();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::triggered("sweep.point", 0));

  EXPECT_THROW(fault::arm("no-at-sign"), Error);
  EXPECT_FALSE(fault::active());
}

}  // namespace
}  // namespace sympvl
