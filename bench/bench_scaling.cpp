// Experiment E10 — scaling behavior behind the Section 7.2 remark that
// "the cost of nonlinear circuit simulation is superlinear in the number
// of state variables": SyMPVL cost as a function of circuit size N,
// reduced order n, and port count p, against the cost of exact AC sweeps
// and full transient runs that the reduced model replaces.
#include <chrono>
#include <cstdlib>

#include "bench_util.hpp"
#include "gen/power_grid.hpp"
#include "gen/rc_interconnect.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "obs/memstat.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"
#include "sim/transient.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

double timed(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_tables() {
  // Largest-case numbers re-emitted to BENCH_scaling.json for the
  // perf-trajectory gate (tools/check_perf.py).
  double json_n = 0, json_reduce_s = 0, json_exact_s = 0, json_rom_s = 0;
  double json_engine_speedup = 0;

  csv_begin("scaling in circuit size N (4-wire bus, p=9, order 18)",
            {"segments", "mna_size", "reduce_s", "exact_sweep20_s",
             "rom_sweep20_s"});
  for (Index segments : {25, 50, 100, 200, 400}) {
    const MnaSystem sys =
        ::sympvl::build_mna(make_interconnect_circuit(
                                {.wires = 4, .segments = segments}).netlist,
                            MnaForm::kRC);
    ReducedModel rom;
    const double t_red = timed([&] {
      SympvlOptions opt;
      opt.order = 18;
      rom = sympvl_reduce(sys, opt);
    });
    const Vec freqs = log_frequency_grid(1e6, 1e10, 20);
    const double t_exact =
        timed([&] { sweep(sys, freqs, {.throw_on_failure = true}); });
    const double t_rom = timed([&] { sweep(rom, freqs); });
    csv_row({static_cast<double>(segments), static_cast<double>(sys.size()),
             t_red, t_exact, t_rom});
    if (segments == 400) {
      json_n = static_cast<double>(sys.size());
      json_reduce_s = t_red;
      json_exact_s = t_exact;
      json_rom_s = t_rom;
    }
  }

  csv_begin("scaling in reduced order n (fixed N)",
            {"order", "reduce_s"});
  const MnaSystem sys =
      ::sympvl::build_mna(make_interconnect_circuit(
                              {.wires = 4, .segments = 200}).netlist,
                          MnaForm::kRC);
  for (Index order : {8, 16, 32, 64}) {
    const double t = timed([&] {
      SympvlOptions opt;
      opt.order = order;
      sympvl_reduce(sys, opt);
    });
    csv_row({static_cast<double>(order), t});
  }

  csv_begin("AC sweep engine: amortized symbolic analysis vs per-point "
            "factorization (40 points)",
            {"mna_size", "t_per_point_s", "t_engine_s", "speedup"});
  for (Index segments : {100, 400}) {
    const MnaSystem s2 =
        ::sympvl::build_mna(make_interconnect_circuit(
                                {.wires = 4, .segments = segments}).netlist,
                            MnaForm::kRC);
    const Vec freqs = log_frequency_grid(1e6, 1e10, 40);
    const double t_points = timed([&] {
      for (double f : freqs) ac_z_matrix(s2, Complex(0.0, 2.0 * M_PI * f));
    });
    const double t_engine = timed([&] { sweep(AcSweepEngine(s2), freqs); });
    csv_row({static_cast<double>(s2.size()), t_points, t_engine,
             t_points / t_engine});
    if (segments == 400) json_engine_speedup = t_points / t_engine;
  }

  csv_begin("scaling in port count p (fixed N per wire, order 2p)",
            {"wires", "ports", "reduce_s"});
  for (Index wires : {2, 4, 8, 12}) {
    const MnaSystem s =
        ::sympvl::build_mna(make_interconnect_circuit(
                                {.wires = wires, .segments = 100}).netlist,
                            MnaForm::kRC);
    const double t = timed([&] {
      SympvlOptions opt;
      opt.order = 2 * s.port_count();
      sympvl_reduce(s, opt);
    });
    csv_row({static_cast<double>(wires), static_cast<double>(s.port_count()), t});
  }

  // ---- Million-unknown frontier: power-grid meshes through the
  // sympvl::reduce() facade with nested-dissection ordering. The series
  // reaches 10⁵ unknowns by default; set SYMPVL_BENCH_MILLION=1 to append
  // a 1024×1024 (≈10⁶-unknown) point. Peak bytes = resident factor +
  // Krylov high-water mark from SympvlReport — algorithmic memory, not
  // process RSS, so the series is comparable across runs.
  csv_begin("power-grid scaling via sympvl::reduce() (ND ordering, p=8, "
            "order 16)",
            {"side", "mna_size", "build_s", "reduce_s", "factor_bytes",
             "krylov_peak_bytes"});
  std::vector<double> grid_n, grid_reduce_s, grid_peak_bytes;
  std::vector<Index> sides = {32, 64, 128, 256, 320};
  if (const char* env = std::getenv("SYMPVL_BENCH_MILLION"))
    if (*env != '\0' && *env != '0') sides.push_back(1024);
  for (Index side : sides) {
    MnaSystem gsys;
    const double t_build = timed([&] {
      const PowerGridCircuit grid =
          make_power_grid({.ports = 8, .rows = side, .cols = side});
      gsys = ::sympvl::build_mna(grid.netlist, MnaForm::kRC);
    });
    ReduceOptions opt;
    opt.order = 16;
    opt.ordering = Ordering::kNestedDissection;
    ReduceResult res;
    const double t_red = timed([&] { res = reduce(gsys, opt); });
    const double peak = static_cast<double>(res.report.factor_bytes +
                                            res.report.krylov_peak_bytes);
    csv_row({static_cast<double>(side), static_cast<double>(gsys.size()),
             t_build, t_red, static_cast<double>(res.report.factor_bytes),
             static_cast<double>(res.report.krylov_peak_bytes)});
    grid_n.push_back(static_cast<double>(gsys.size()));
    grid_reduce_s.push_back(t_red);
    grid_peak_bytes.push_back(peak);
  }

  json_emit("BENCH_scaling.json",
            {{"interconnect_n", json_n},
             {"reduce_s", json_reduce_s},
             {"exact_sweep20_s", json_exact_s},
             {"rom_sweep20_s", json_rom_s},
             {"engine_vs_per_point_speedup", json_engine_speedup},
             {"grid_peak_rss_bytes",
              static_cast<double>(obs::peak_rss_bytes())}},
            {{"grid_n", grid_n},
             {"grid_reduce_s", grid_reduce_s},
             {"grid_peak_bytes", grid_peak_bytes}});
  std::printf("\nwrote BENCH_scaling.json\n");
}

void bm_reduce_by_size(benchmark::State& state) {
  const MnaSystem sys =
      ::sympvl::build_mna(make_interconnect_circuit(
                              {.wires = 4,
                               .segments = static_cast<Index>(state.range(0))})
                              .netlist,
                          MnaForm::kRC);
  SympvlOptions opt;
  opt.order = 18;
  for (auto _ : state) {
    const ReducedModel rom = sympvl_reduce(sys, opt);
    benchmark::DoNotOptimize(rom.order());
  }
  state.SetComplexityN(sys.size());
}
BENCHMARK(bm_reduce_by_size)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond)->Complexity();

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
