// Tests for the observability layer: event recording, counters, JSON
// hardening, run metadata, the SyMPVL diagnostic telemetry (deflation /
// look-ahead reporting consistency), and the one clock per stage: every
// stage time a report carries is its span's duration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "gen/package.hpp"
#include "gen/random_circuit.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/factorized_pencil.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/lanczos.hpp"
#include "mor/pencil.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace sympvl {
namespace {

// RAII guard: every test runs with a clean, programmatically-enabled (or
// disabled) recorder and leaves the global state clean for the next test.
struct ObsGuard {
  explicit ObsGuard(bool on) {
    obs::enable(on);
    obs::reset();
  }
  ~ObsGuard() {
    obs::enable(false);
    obs::reset();
  }
};

int count_events(const std::vector<obs::Event>& events, const char* name,
                 char phase) {
  int n = 0;
  for (const auto& e : events)
    if (e.phase == phase && std::strcmp(e.name, name) == 0) ++n;
  return n;
}

const obs::Arg* find_arg(const obs::Event& e, const char* key) {
  for (int k = 0; k < e.nargs; ++k)
    if (std::strcmp(e.args[k].key, key) == 0) return &e.args[k];
  return nullptr;
}

// Duration in seconds of the first recorded span named `name` (the trace
// keeps whole microseconds); NaN when there is none.
double span_seconds(const std::vector<obs::Event>& events, const char* name) {
  for (const auto& e : events)
    if (e.phase == 'X' && std::strcmp(e.name, name) == 0)
      return static_cast<double>(e.dur_us) * 1e-6;
  return std::nan("");
}

TEST(Obs, SpansInstantsAndCounters) {
  ObsGuard guard(true);
  {
    obs::ScopedTimer span("test.span");
    span.arg("x", 3.0);
    span.arg("tag", "hello");
  }
  obs::instant("test.instant", {obs::arg("k", Index(7))});
  obs::counter("test.counter").add(2.0);

  const auto events = obs::snapshot_events();
  ASSERT_EQ(count_events(events, "test.span", 'X'), 1);
  ASSERT_EQ(count_events(events, "test.instant", 'i'), 1);
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.span") == 0) {
      EXPECT_GE(e.dur_us, 0);
      const obs::Arg* x = find_arg(e, "x");
      ASSERT_NE(x, nullptr);
      EXPECT_EQ(x->num, 3.0);
      const obs::Arg* tag = find_arg(e, "tag");
      ASSERT_NE(tag, nullptr);
      EXPECT_STREQ(tag->str, "hello");
    }
    if (std::strcmp(e.name, "test.instant") == 0) {
      const obs::Arg* k = find_arg(e, "k");
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->num, 7.0);
    }
  }

  bool counter_seen = false;
  for (const auto& [name, value] : obs::snapshot_counters())
    if (name == "test.counter") {
      counter_seen = true;
      EXPECT_EQ(value, 2.0);
    }
  EXPECT_TRUE(counter_seen);

  const std::string summary = obs::stats_summary();
  EXPECT_NE(summary.find("test.span"), std::string::npos);
  EXPECT_NE(summary.find("test.counter"), std::string::npos);
}

// The forward kernel.trsm span counts only the panels it visits. On one
// factor, a port right-hand side (one nonzero row) reports fewer flops and
// supernodes than a dense one, which visits them all; the row-restricted
// solve of the same row visits the same panels at one column, and its
// ldlt.solve span carries the row count.
TEST(Obs, PortSolveForwardSpanCountsOnlyItsReach) {
  const Index g = 30, n = g * g;
  TripletBuilder<double> t(n, n);
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index i = r * g + c;
      t.add(i, i, 4.5);
      if (c + 1 < g) t.add_symmetric(i, i + 1, -1.0);
      if (r + 1 < g) t.add_symmetric(i, i + g, -1.0);
    }
  const LDLT f(t.compress(), Ordering::kNestedDissection);
  const Index port = n / 3;
  const Mat dense(n, 4, 1.0);
  Mat ports(n, 4);
  ports(port, 0) = 1.0;
  SMat incidence(n, 1);
  incidence.set_raw({0, 1}, {port}, {1.0});

  ObsGuard guard(true);
  (void)f.solve(dense);
  (void)f.solve(ports);
  (void)f.solve_rows(incidence, f.symbolic().row_reach({port}));
  const auto events = obs::snapshot_events();

  std::vector<double> flops, supernodes;
  double backward_rows_supernodes = -1.0, rows_arg = -1.0;
  for (const auto& e : events) {
    if (e.phase != 'X') continue;
    if (std::strcmp(e.name, "ldlt.solve") == 0 && find_arg(e, "rows") != nullptr)
      rows_arg = find_arg(e, "rows")->num;
    if (std::strcmp(e.name, "kernel.trsm") != 0) continue;
    const obs::Arg* phase = find_arg(e, "phase");
    ASSERT_NE(phase, nullptr);
    ASSERT_NE(find_arg(e, "flops"), nullptr);
    ASSERT_NE(find_arg(e, "supernodes"), nullptr);
    ASSERT_NE(find_arg(e, "nrhs"), nullptr);
    if (std::strcmp(phase->str, "forward") == 0) {
      flops.push_back(find_arg(e, "flops")->num);
      supernodes.push_back(find_arg(e, "supernodes")->num);
    } else if (find_arg(e, "nrhs")->num == 1.0) {  // solve_rows' backward
      backward_rows_supernodes = find_arg(e, "supernodes")->num;
    }
  }
  ASSERT_EQ(flops.size(), 3u);
  const double all = static_cast<double>(f.supernode_count());
  EXPECT_EQ(flops[0], 2.0 * static_cast<double>(f.symbolic().panel_entries()) * 4.0);
  EXPECT_EQ(supernodes[0], all);
  EXPECT_GT(flops[1], 0.0);
  EXPECT_LT(flops[1], flops[0]);
  EXPECT_LT(supernodes[1], all);
  EXPECT_EQ(flops[1], 4.0 * flops[2]);
  EXPECT_EQ(supernodes[2], supernodes[1]);
  EXPECT_GT(backward_rows_supernodes, 0.0);
  EXPECT_LT(backward_rows_supernodes, all);
  EXPECT_EQ(rows_arg, 1.0);
}

TEST(Obs, DisabledRecordsNothing) {
  ObsGuard guard(false);
  {
    obs::ScopedTimer span("test.disabled_span");
    span.arg("x", 1.0);
    // The stopwatch runs with obs off; close() is idempotent.
    const double seconds = span.close();
    EXPECT_TRUE(std::isfinite(seconds));
    EXPECT_GE(seconds, 0.0);
    EXPECT_EQ(span.close(), seconds);
  }
  obs::instant("test.disabled_instant");
  obs::counter("test.disabled_counter").add(3.0);
  EXPECT_TRUE(obs::snapshot_events().empty());
  EXPECT_EQ(obs::counter("test.disabled_counter").value(), 0.0);
}

TEST(Obs, ResetClearsEventsAndCounters) {
  ObsGuard guard(true);
  obs::instant("test.pre_reset");
  obs::counter("test.reset_counter").add(4.0);
  obs::reset();
  EXPECT_TRUE(obs::snapshot_events().empty());
  EXPECT_EQ(obs::counter("test.reset_counter").value(), 0.0);
  obs::instant("test.post_reset");
  EXPECT_EQ(count_events(obs::snapshot_events(), "test.post_reset", 'i'), 1);
}

TEST(Obs, JsonNumberHandlesNonFinite) {
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(0.0), "0");
  // Full round-trip precision for finite values.
  EXPECT_EQ(std::stod(obs::json_number(0.1)), 0.1);
}

TEST(Obs, JsonStringEscapes) {
  EXPECT_EQ(obs::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_string(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Obs, JsonEmitWithMetaWritesValidDocument) {
  const std::string path = "test_obs_emit.json";
  obs::json_emit_with_meta(
      path, {{"finite", 2.5}, {"bad", std::nan("")}, {"inf", HUGE_VAL}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  // Metadata block present with the host/build keys.
  EXPECT_NE(doc.find("\"meta\""), std::string::npos);
  EXPECT_NE(doc.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(doc.find("\"compiler\""), std::string::npos);
  EXPECT_NE(doc.find("\"build_type\""), std::string::npos);
  // Values: finite survives, non-finite becomes null (never nan/inf).
  EXPECT_NE(doc.find("\"finite\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"bad\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"inf\": null"), std::string::npos);
  EXPECT_EQ(doc.find(": nan"), std::string::npos);
  EXPECT_EQ(doc.find(": inf"), std::string::npos);
  EXPECT_EQ(doc.find(": -inf"), std::string::npos);
}

TEST(Obs, RunMetadataJson) {
  const std::string meta = obs::run_metadata_json();
  EXPECT_NE(meta.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(meta.find("\"resolved_threads\""), std::string::npos);
  EXPECT_NE(meta.find("\"compiler\""), std::string::npos);
  EXPECT_NE(meta.find("\"cxx_flags\""), std::string::npos);
  EXPECT_NE(meta.find("\"build_type\""), std::string::npos);
}

// ---- Domain telemetry: deflation / look-ahead diagnostics -----------------

// A port column duplicated exactly makes the starting block J⁻¹M⁻¹B rank
// deficient: the second copy must deflate (Algorithm 1, step 1c) during
// the first pass over the start columns.
Netlist deflation_forcing_netlist() {
  Netlist nl;
  nl.add_resistor(1, 0, 10.0);
  nl.add_resistor(1, 2, 5.0);
  nl.add_resistor(2, 3, 7.0);
  nl.add_resistor(3, 0, 20.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_capacitor(3, 0, 3e-12);
  nl.add_port(1, 0);
  nl.add_port(1, 0);  // duplicate of port 0: forces a deflation
  return nl;
}

TEST(Obs, ReportDeflationAndClusterDiagnostics) {
  const MnaSystem sys = build_mna(deflation_forcing_netlist());
  SympvlOptions opt;
  opt.order = 3;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);

  EXPECT_GE(report.deflations, 1);
  // Cluster structure covers exactly the accepted vectors.
  Index total = 0;
  for (Index sz : report.cluster_sizes) {
    EXPECT_GE(sz, 1);
    total += sz;
  }
  EXPECT_EQ(total, report.achieved_order);
  // Stage timings were measured and compose into the total.
  EXPECT_GE(report.factor_seconds, 0.0);
  EXPECT_NEAR(report.total_seconds,
              report.factor_seconds + report.start_block_seconds +
                  report.lanczos_seconds,
              1e-12);
  // Sparse path was used, so factorization telemetry is populated.
  EXPECT_FALSE(report.used_dense_fallback);
  EXPECT_GT(report.factor_fill_ratio, 0.0);
  EXPECT_GT(report.factor_flops, 0.0);
  // Moment-match property (eq. 20): the model's 0th moment reproduces
  // Bᵀ(G+s₀C)⁻¹B once the starting block is captured.
  EXPECT_LT(report.moment0_residual, 1e-8);
}

TEST(Obs, EventStreamAgreesWithReportCounters) {
  ObsGuard guard(true);
  const MnaSystem sys = build_mna(deflation_forcing_netlist());
  // A private cache: an earlier test in this process may have left this
  // netlist's factor in FactorCache::global(), and a hit records no
  // ldlt.factor span.
  FactorCache cache;
  SympvlOptions opt;
  opt.order = 3;
  opt.factor_cache = &cache;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);

  const auto events = obs::snapshot_events();
  // Per-iteration instants agree with the final report.
  EXPECT_EQ(count_events(events, "lanczos.deflation", 'i'),
            static_cast<int>(report.deflations));
  EXPECT_EQ(count_events(events, "lanczos.cluster_close", 'i'),
            static_cast<int>(report.cluster_sizes.size()));
  // Every deflation instant carries the norm-vs-tolerance evidence.
  for (const auto& e : events) {
    if (std::strcmp(e.name, "lanczos.deflation") != 0) continue;
    const obs::Arg* norm = find_arg(e, "norm");
    const obs::Arg* ref = find_arg(e, "ref_norm");
    const obs::Arg* tol = find_arg(e, "deflation_tol");
    ASSERT_NE(norm, nullptr);
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(tol, nullptr);
    EXPECT_LE(norm->num, tol->num * ref->num);
  }
  // Cluster-close sizes match the reported cluster structure, in order.
  size_t idx = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "lanczos.cluster_close") != 0) continue;
    const obs::Arg* size = find_arg(e, "size");
    ASSERT_NE(size, nullptr);
    ASSERT_LT(idx, report.cluster_sizes.size());
    EXPECT_EQ(static_cast<Index>(size->num), report.cluster_sizes[idx++]);
  }
  // Pipeline stage spans were recorded.
  EXPECT_EQ(count_events(events, "sympvl.factor", 'X'), 1);
  EXPECT_EQ(count_events(events, "sympvl.start_block", 'X'), 1);
  EXPECT_EQ(count_events(events, "sympvl.lanczos", 'X'), 1);
  EXPECT_EQ(count_events(events, "ldlt.factor", 'X'), 1);
  // One clock per stage: the report's stage times are those spans'
  // durations, and the step digest counts the lanczos.step spans.
  EXPECT_NEAR(report.factor_seconds, span_seconds(events, "sympvl.factor"),
              1e-6);
  EXPECT_NEAR(report.start_block_seconds,
              span_seconds(events, "sympvl.start_block"), 1e-6);
  EXPECT_NEAR(report.lanczos_seconds, span_seconds(events, "sympvl.lanczos"),
              1e-6);
  EXPECT_EQ(report.lanczos_step_stats.count,
            static_cast<std::uint64_t>(
                count_events(events, "lanczos.step", 'X')));
  // Interned counters match the event stream.
  EXPECT_EQ(obs::counter("lanczos.deflations").value(),
            static_cast<double>(report.deflations));
  EXPECT_EQ(obs::counter("lanczos.steps").value(),
            static_cast<double>(report.achieved_order));
}

TEST(Obs, PendingCandidatesFormInsideTheLanczosSpan) {
  // BandLanczos::run_to leaves its last p candidates pending; the result()
  // read that forms them (their J-orthogonalizations write T's last p
  // columns) is Lanczos work. So every blocked operator apply of a
  // monolithic reduce lies inside its sympvl.lanczos span, and the
  // report's Krylov peak is that of a process whose result() was read.
  ObsGuard guard(true);
  const MnaSystem sys =
      build_mna(make_package_circuit({}).netlist, MnaForm::kGeneral);
  ASSERT_EQ(sys.port_count(), 16);
  FactorCache cache;
  SympvlOptions opt;
  opt.order = 32;
  opt.factor_cache = &cache;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  ASSERT_EQ(report.achieved_order, 32);

  const auto events = obs::snapshot_events();
  ASSERT_EQ(count_events(events, "sympvl.lanczos", 'X'), 1);
  const obs::Event* lanczos = nullptr;
  for (const auto& e : events)
    if (e.phase == 'X' && std::strcmp(e.name, "sympvl.lanczos") == 0) lanczos = &e;
  int applies = 0;
  for (const auto& e : events) {
    if (e.phase != 'X' || std::strcmp(e.name, "pencil.apply_block") != 0) continue;
    ++applies;
    EXPECT_GE(e.ts_us, lanczos->ts_us);
    EXPECT_LE(e.ts_us + e.dur_us, lanczos->ts_us + lanczos->dur_us);
  }
  // One batch at step 17 and the 16 candidates result() forms.
  EXPECT_EQ(applies, 2);

  PencilFactorOptions fopt;
  fopt.shift = report.s0_used;
  const FactorizedPencil pencil(sys.G, sys.C, fopt);
  LanczosOptions lopt;
  lopt.deflation_tol = opt.deflation_tol;
  lopt.lookahead_tol = opt.lookahead_tol;
  lopt.full_reorthogonalization = opt.full_reorthogonalization;
  lopt.max_cluster_size = opt.max_cluster_size;
  BandLanczos process(pencil, starting_block(pencil, sys.B), pencil.j_signs(), lopt);
  process.run_to(32);
  const std::int64_t unread_peak = process.krylov_peak_bytes();
  (void)process.result();
  EXPECT_EQ(report.krylov_peak_bytes, process.krylov_peak_bytes());
  EXPECT_GT(report.krylov_peak_bytes, unread_peak);
}

TEST(Obs, WriteChromeTraceProducesParseableJson) {
  ObsGuard guard(true);
  {
    obs::ScopedTimer span("test.trace_span");
    span.arg("n", Index(4));
  }
  obs::instant("test.trace_instant", {obs::arg("v", 1.0)});
  const std::string path = "test_obs_trace.json";
  obs::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.trace_span\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

TEST(Obs, ShardStageSecondsAreSpanDurations) {
  ObsGuard guard(true);
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 60, .ports = 4, .seed = 11}));
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 8;
  opt.shard.shards = 2;
  const ReduceResult r = reduce(sys, opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.shard.shards, 2);

  const auto events = obs::snapshot_events();
  for (const char* name :
       {"shard.partition", "shard.factor", "shard.reduce", "shard.stitch"})
    EXPECT_EQ(count_events(events, name, 'X'), 1) << name;
  EXPECT_NEAR(r.shard.partition_seconds,
              span_seconds(events, "shard.partition"), 1e-6);
  EXPECT_NEAR(r.report.factor_seconds, span_seconds(events, "shard.factor"),
              1e-6);
  EXPECT_NEAR(r.shard.reduce_seconds, span_seconds(events, "shard.reduce"),
              1e-6);
  EXPECT_NEAR(r.shard.stitch_seconds, span_seconds(events, "shard.stitch"),
              1e-6);
  // The step digest merges every shard's lanczos.step durations.
  EXPECT_GT(r.report.lanczos_step_stats.count, 0u);
  EXPECT_EQ(r.report.lanczos_step_stats.count,
            static_cast<std::uint64_t>(count_events(events, "lanczos.step", 'X')));
}

}  // namespace
}  // namespace sympvl
