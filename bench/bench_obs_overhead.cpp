// Verifies the observability overhead contract (DESIGN.md §Observability):
// with instrumentation compiled in but *disabled* (no SYMPVL_TRACE /
// SYMPVL_STATS), the cost added to the Fig. 3 package frequency sweep must
// stay below 2%.
//
// Instrumentation cannot be compiled out, so the disabled overhead is
// bounded from measurements rather than an A/B build:
//   1. time the sweep with instrumentation disabled (best of several runs);
//   2. count how many events one instrumented sweep records (enabled run —
//      since Metrics v2 this path also feeds the per-span latency
//      histograms, so enabled_ms covers histogram recording too);
//   3. microbenchmark one disabled instrumentation point (ScopedTimer
//      construct+destruct: a relaxed atomic load, a branch and the two
//      steady-clock reads of its stopwatch);
//   overhead_pct = events_per_sweep * per_op_ns / sweep_ns * 100.
// The enabled sweep time is also reported for reference (no contract).
//
// Metrics v2 additions, measured per-op (no contract, informational):
//   * Histogram::record through the enabled gate — the span-exit cost;
//   * ByteGauge::add — the memory-accounting primitive, which is
//     ALWAYS-ON (not gated on obs::enabled()), so its per-op cost is
//     what every factorization/cache path pays unconditionally.
//
// Results go to stdout as CSV and to BENCH_obs_overhead.json.
#include <chrono>

#include "bench_util.hpp"
#include "gen/package.hpp"
#include "obs/histogram.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_tables() {
  PackageOptions opt;
  opt.segments = 8;  // 64 pins x 8 segments — the Fig. 3 circuit family
  const PackageCircuit pkg = make_package_circuit(opt);
  const MnaSystem sys = build_mna(pkg.netlist, MnaForm::kGeneral);
  const Vec freqs = log_frequency_grid(1e7, 5e9, 100);
  const AcSweepEngine engine(sys);

  std::printf("obs overhead bench: MNA size %lld, %lld ports, %zu points\n",
              static_cast<long long>(sys.size()),
              static_cast<long long>(sys.port_count()), freqs.size());

  // ---- 1. disabled sweep time (best of 3: least scheduler noise) ----
  obs::enable(false);
  double disabled_ms = 1e300;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_ms();
    benchmark::DoNotOptimize(sweep(engine, freqs));
    disabled_ms = std::min(disabled_ms, now_ms() - t0);
  }

  // ---- 2. events recorded by one instrumented sweep ----
  obs::enable(true);
  obs::reset();
  const double t1 = now_ms();
  benchmark::DoNotOptimize(sweep(engine, freqs));
  const double enabled_ms = now_ms() - t1;
  const double events_per_sweep =
      static_cast<double>(obs::snapshot_events().size());
  obs::enable(false);
  obs::reset();

  // ---- 3. per-op cost of one disabled instrumentation point ----
  const long reps = 20'000'000;
  const double t2 = now_ms();
  for (long i = 0; i < reps; ++i) {
    obs::ScopedTimer span("obs.noop");
    benchmark::ClobberMemory();  // keep the loop and the atomic load alive
  }
  const double per_op_ns = (now_ms() - t2) * 1e6 / static_cast<double>(reps);

  // ---- 4. per-op cost of the enabled Metrics v2 primitives ----
  obs::enable(true);
  obs::Histogram hist;
  const double t3 = now_ms();
  for (long i = 0; i < reps; ++i) {
    hist.record(1.2e-4);  // mid-range bucket: the common span-exit path
    benchmark::ClobberMemory();
  }
  const double hist_record_ns =
      (now_ms() - t3) * 1e6 / static_cast<double>(reps);
  obs::enable(false);
  obs::reset();

  obs::ByteGauge& gauge = obs::byte_gauge("bench.noop_bytes");
  const double t4 = now_ms();
  for (long i = 0; i < reps; ++i) {
    gauge.add((i & 1) ? -64 : 64);  // alternating: exercises the peak CAS
    benchmark::ClobberMemory();
  }
  const double gauge_add_ns =
      (now_ms() - t4) * 1e6 / static_cast<double>(reps);

  const double overhead_pct =
      events_per_sweep * per_op_ns / (disabled_ms * 1e6) * 100.0;
  const double enabled_pct =
      (enabled_ms - disabled_ms) / disabled_ms * 100.0;

  csv_begin("disabled-instrumentation overhead bound (contract: < 2%)",
            {"disabled_ms", "enabled_ms", "events_per_sweep", "per_op_ns",
             "overhead_pct", "enabled_overhead_pct"});
  csv_row({disabled_ms, enabled_ms, events_per_sweep, per_op_ns, overhead_pct,
           enabled_pct});
  std::printf("overhead contract %s: %.4f%% < 2%%\n",
              overhead_pct < 2.0 ? "MET" : "VIOLATED", overhead_pct);

  csv_begin("enabled telemetry per-op cost (informational)",
            {"hist_record_ns", "gauge_add_ns"});
  csv_row({hist_record_ns, gauge_add_ns});

  json_emit("BENCH_obs_overhead.json",
            {{"mna_size", static_cast<double>(sys.size())},
             {"ports", static_cast<double>(sys.port_count())},
             {"freq_points", static_cast<double>(freqs.size())},
             {"threads", static_cast<double>(num_threads())},
             {"sweep_disabled_ms", disabled_ms},
             {"sweep_enabled_ms", enabled_ms},
             {"events_per_sweep", events_per_sweep},
             {"disabled_per_op_ns", per_op_ns},
             {"hist_record_ns", hist_record_ns},
             {"gauge_add_ns", gauge_add_ns},
             {"disabled_overhead_pct", overhead_pct},
             {"enabled_overhead_pct", enabled_pct},
             {"contract_met", overhead_pct < 2.0 ? 1.0 : 0.0}});
  std::printf("\nwrote BENCH_obs_overhead.json\n");
}

}  // namespace

int main() {
  print_tables();
  obs::flush();
  return 0;
}
