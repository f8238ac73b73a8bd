// Perf-trajectory bench for the parallel frequency-sweep engine and the
// blocked multi-RHS LDLᵀ solve (this repo's hot path: the "exact
// analysis" reference curves behind every accuracy experiment).
//
// Measures, on a ≥2000-unknown generated package circuit:
//   1. sweep(AcSweepEngine) wall time with 1 thread vs. all threads, and
//      the max relative deviation between the two results (must be ~0:
//      the static partition makes the parallel sweep bit-reproducible);
//   2. one blocked multi-RHS SparseLDLT::solve over all p port columns
//      vs. p single-RHS solves against the same factor.
//
// Results go to stdout as CSV and to BENCH_parallel_sweep.json so the
// perf trajectory is machine-readable from this PR onward.
#include <chrono>

#include "bench_util.hpp"
#include "gen/package.hpp"
#include "linalg/sparse_ldlt.hpp"
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
  opt.segments = 16;  // 64 pins x 16 segments -> ~2048 MNA unknowns
  const PackageCircuit pkg = make_package_circuit(opt);
  const MnaSystem sys = build_mna(pkg.netlist, MnaForm::kGeneral);
  const Index n = sys.size();
  const Index p = sys.port_count();
  const Vec freqs = log_frequency_grid(1e7, 5e9, 200);
  const Index points = static_cast<Index>(freqs.size());

  std::printf("parallel sweep bench: MNA size %lld, %lld ports, %lld points\n",
              static_cast<long long>(n), static_cast<long long>(p),
              static_cast<long long>(points));

  const AcSweepEngine engine(sys);
  const Index hw_threads = num_threads();

  set_num_threads(1);
  double t0 = now_ms();
  const SweepResult serial = sweep(engine, freqs);
  const double serial_ms = now_ms() - t0;

  set_num_threads(0);  // restore the environment/hardware default
  t0 = now_ms();
  const SweepResult threaded = sweep(engine, freqs);
  const double parallel_ms = now_ms() - t0;

  const double sweep_err = max_rel_err_sweep(threaded, serial);
  const double speedup = serial_ms / (parallel_ms + 1e-300);

  csv_begin("sweep: serial vs threaded wall time",
            {"threads", "serial_ms", "parallel_ms", "speedup", "max_rel_err"});
  csv_row({static_cast<double>(hw_threads), serial_ms, parallel_ms, speedup,
           sweep_err});

  // ---- blocked multi-RHS vs p single-RHS solves on one factor ----
  const Complex s(0.0, 2.0 * M_PI * freqs[static_cast<size_t>(points / 2)]);
  const CSMat pencil = pencil_combine(sys.G, sys.C, sys.map_s(s));
  const CLDLT fact(pencil);
  CMat rhs(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) rhs(i, j) = Complex(sys.B(i, j), 0.0);

  const int reps = 20;
  t0 = now_ms();
  CMat x_single(n, p);
  for (int r = 0; r < reps; ++r)
    for (Index j = 0; j < p; ++j) x_single.set_col(j, fact.solve(rhs.col(j)));
  const double single_ms = (now_ms() - t0) / reps;

  t0 = now_ms();
  CMat x_block(n, p);
  for (int r = 0; r < reps; ++r) x_block = fact.solve(rhs);
  const double multi_ms = (now_ms() - t0) / reps;

  double solve_err = 0.0;
  const double den = x_single.max_abs() + 1e-300;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      solve_err = std::max(
          solve_err, std::abs(x_block(i, j) - x_single(i, j)) / den);

  csv_begin("multi-RHS: blocked solve vs p single solves",
            {"ports", "single_rhs_ms", "multi_rhs_ms", "speedup", "max_rel_err"});
  csv_row({static_cast<double>(p), single_ms, multi_ms,
           single_ms / (multi_ms + 1e-300), solve_err});

  json_emit("BENCH_parallel_sweep.json",
            {{"mna_size", static_cast<double>(n)},
             {"ports", static_cast<double>(p)},
             {"freq_points", static_cast<double>(points)},
             {"threads", static_cast<double>(hw_threads)},
             {"sweep_serial_ms", serial_ms},
             {"sweep_parallel_ms", parallel_ms},
             {"sweep_speedup", speedup},
             {"sweep_max_rel_err", sweep_err},
             {"single_rhs_ms", single_ms},
             {"multi_rhs_ms", multi_ms},
             {"multi_rhs_speedup", single_ms / (multi_ms + 1e-300)},
             {"multi_rhs_max_rel_err", solve_err}});
  std::printf("\nwrote BENCH_parallel_sweep.json\n");
}

}  // namespace

int main() {
  print_tables();
  sympvl::obs::flush();
  return 0;
}
