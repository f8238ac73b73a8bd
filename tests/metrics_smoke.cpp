// Metrics smoke test (ctest label "Trace"): reads the Fig. 3 package back
// from its netlist text and assembles it, runs the package reduction, a
// 2-shard reduce() of the same package, an exact frequency sweep and a
// sweep of the reduced model with SYMPVL_METRICS (and SYMPVL_TRACE) set,
// then validates the emitted Prometheus text-exposition file:
//   * latency histograms with quantiles for the parse / MNA / factor /
//     solve / sweep-point / ROM-sweep span families;
//   * factor-bytes and cache-resident-bytes gauges with their _peak
//     high-water companions;
//   * the pre-existing counters (factor_cache.*, lanczos.steps, ...);
//   * SympvlReport's always-on byte + step-latency fields.
// Built standalone (not into the gtest binary) so the env vars are
// resolved before the process touches any instrumented code. The
// metrics file and the trace are left on disk so CI can re-lint them
// with tools/check_metrics.py.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/parser.hpp"
#include "gen/package.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

// A sample line for `metric{...label fragment...}` (or a bare metric
// when `label` is empty) exists and its value parses > 0.
bool has_positive_sample(const std::string& doc, const std::string& metric,
                         const std::string& label) {
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, metric.size(), metric) != 0) continue;
    const char next = line.size() > metric.size() ? line[metric.size()] : ' ';
    if (next != '{' && next != ' ') continue;  // prefix of a longer name
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    if (std::atof(line.c_str() + sp + 1) > 0.0) return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace sympvl;
  const char* metrics_path = "metrics_smoke_out.prom";
  const char* trace_path = "metrics_smoke_out.json";
  // Before any instrumented call: the obs layer resolves its sinks from
  // the environment lazily, so this is the production code path.
#ifdef _WIN32
  _putenv_s("SYMPVL_METRICS", metrics_path);
  _putenv_s("SYMPVL_TRACE", trace_path);
#else
  setenv("SYMPVL_METRICS", metrics_path, 1);
  setenv("SYMPVL_TRACE", trace_path, 1);
#endif
  set_num_threads(3);

  // The Fig. 3 circuit family: 64-pin package, 8 ladder segments.
  PackageOptions popt;
  popt.segments = 8;
  const PackageCircuit pkg = make_package_circuit(popt);
  const MnaSystem sys = build_mna(pkg.netlist, MnaForm::kGeneral);

  // The reader and the assembler: circuit.parse and circuit.mna spans.
  const Netlist parsed = parse_netlist(write_netlist(pkg.netlist));
  check(parsed.element_count() == pkg.netlist.element_count(),
        "the package reads back with all its elements");
  check(build_mna(parsed, MnaForm::kGeneral).size() == sys.size(),
        "the package read back assembles to the same size");

  SympvlOptions opt;
  opt.order = 32;
  SympvlReport report;
  const ReducedModel rom = sympvl_reduce(sys, opt, &report);
  check(report.achieved_order == 32, "reduction reached order 32");

  // Always-on report fields (independent of the obs sinks).
  check(report.factor_bytes > 0, "report carries factor bytes");
  check(report.krylov_peak_bytes > 0, "report carries Krylov peak bytes");
  check(report.lanczos_step_stats.count >= 32,
        "report carries per-step latency stats");
  check(report.lanczos_step_stats.p99 >= report.lanczos_step_stats.p50,
        "step latency quantiles are ordered");

  // The sharded path: partition, per-shard Lanczos and stitch spans.
  ReduceOptions sharded;
  sharded.method = ReduceMethod::kShardedSympvl;
  sharded.order = 32;
  sharded.shard.shards = 2;
  const ReduceResult stitched = reduce(sys, sharded);
  check(stitched.ok() && stitched.shard.shards == 2,
        "2-shard reduction produced a stitched model");
  check(stitched.report.lanczos_step_stats.count > 0,
        "sharded report carries per-step latency stats");

  const Vec freqs = log_frequency_grid(1e7, 5e9, 40);
  const AcSweepEngine engine(sys);
  const SweepResult sweep = sympvl::sweep(engine, freqs);
  check(sweep.all_ok(), "sweep produced no failed points");
  const SweepResult rom_sweep = sympvl::sweep(rom, freqs);
  check(rom_sweep.all_ok(), "ROM sweep produced no failed points");

  obs::flush();

  std::string doc;
  {
    std::ifstream in(metrics_path);
    std::stringstream ss;
    ss << in.rdbuf();
    doc = ss.str();
  }
  check(!doc.empty(), "metrics file was written");

  // Latency histograms + p99 quantiles per acceptance span family.
  for (const char* span : {"circuit.parse", "circuit.mna", "ldlt.factor", "ldlt.solve",
                           "ac.z_at", "model.sweep", "shard.partition", "shard.reduce",
                           "shard.stitch"}) {
    const std::string lbl = std::string("span=\"") + span + "\"";
    check(has_positive_sample(doc, "sympvl_span_duration_seconds_count", lbl),
          std::string("duration histogram present: ") + span);
    check(doc.find("sympvl_span_latency_quantiles_seconds{" + lbl +
                   ",quantile=\"0.99\"}") != std::string::npos,
          std::string("p99 quantile present: ") + span);
  }
  check(doc.find("le=\"+Inf\"") != std::string::npos,
        "histogram has +Inf buckets");

  // Byte gauges with high-water companions.
  check(has_positive_sample(doc, "sympvl_mem_factor_bytes_peak", ""),
        "factor-bytes high-water gauge present and positive");
  check(has_positive_sample(doc, "sympvl_factor_cache_resident_bytes_peak", ""),
        "cache-resident-bytes high-water gauge present and positive");
  check(has_positive_sample(doc, "sympvl_mem_krylov_bytes_peak", ""),
        "Krylov-bytes high-water gauge present and positive");

  // Pre-existing counters survive into the export.
  for (const char* counter :
       {"sympvl_factor_cache_miss_total", "sympvl_lanczos_steps_total"}) {
    check(has_positive_sample(doc, counter, ""),
          std::string("counter present: ") + counter);
  }
  check(doc.find("sympvl_build_info{") != std::string::npos,
        "build info metric present");
  check(doc.find("sympvl_process_peak_rss_bytes") != std::string::npos,
        "peak RSS gauge present");

  if (g_failures == 0) {
    std::printf("metrics smoke: OK (%d metrics bytes; %s and %s left for "
                "linting)\n",
                static_cast<int>(doc.size()), metrics_path, trace_path);
    return 0;
  }
  std::fprintf(stderr, "metrics smoke: %d check(s) failed\n", g_failures);
  return 1;
}
