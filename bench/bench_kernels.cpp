// Kernel-layer benchmark: the supernodal numeric LDLᵀ on the paper's
// example meshes, numeric-only (one shared symbolic analysis per mesh,
// timed refactorizations on top — the shape every driver and the AC hot
// path actually run), plus the blocked p-port multi-RHS solve both
// Lanczos starting blocks and sweeps ride, at several RHS widths.
//
// Results go to stdout as CSV and to BENCH_kernels.json (with run
// metadata) — the file tools/check_perf.py gates CI perf-smoke against
// bench/baselines/BENCH_kernels.json.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "gen/package.hpp"
#include "gen/rc_interconnect.hpp"
#include "linalg/factorized_pencil.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/pencil.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

double timed(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Median of `reps` timings of fn (each timing one call).
double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> t(static_cast<size_t>(reps));
  for (double& v : t) v = timed(fn);
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct MeshCase {
  const char* name;
  MnaSystem sys;
};

struct KernelNumbers {
  double n = 0, ports = 0, nnz_l = 0;
  double supernodes = 0, max_panel = 0, panel_zeros = 0;
  double t_factor = 0, t_solve = 0;
};

KernelNumbers measure(const MnaSystem& sys, int reps) {
  KernelNumbers out;
  const double s0 = automatic_shift(sys);
  const SMat a = assemble_pencil(sys.G, sys.C, s0);
  const auto symbolic = std::make_shared<const LdltSymbolic>(a, Ordering::kRCM);

  out.n = static_cast<double>(sys.size());
  out.ports = static_cast<double>(sys.port_count());
  out.nnz_l = static_cast<double>(symbolic->l_nnz());
  out.supernodes = static_cast<double>(symbolic->supernode_count());
  out.max_panel = static_cast<double>(symbolic->max_panel_width());
  out.panel_zeros = static_cast<double>(symbolic->panel_zeros());

  // Numeric-only refactorization time on the shared symbolic.
  out.t_factor = median_time(reps, [&] {
    const LDLT f(a, symbolic, 1e-12);
    benchmark::DoNotOptimize(f.d().data());
  });

  // Blocked p-port multi-RHS solve (the starting-block shape).
  const LDLT f(a, symbolic, 1e-12);
  out.t_solve = median_time(reps, [&] {
    const Mat x = f.solve(sys.B);
    benchmark::DoNotOptimize(x(0, 0));
  });
  return out;
}

// Blocked solve time by RHS width p ∈ {1, 4, 16, 64} on one mesh.
// Emitted keys: solve_p{P}_supernodal_s.
std::vector<std::pair<Index, double>> rhs_width_sweep(const MnaSystem& sys,
                                                      int reps) {
  const double s0 = automatic_shift(sys);
  const SMat a = assemble_pencil(sys.G, sys.C, s0);
  const LDLT f(a, Ordering::kRCM, 1e-12);
  std::vector<std::pair<Index, double>> points;
  for (const Index p : {Index(1), Index(4), Index(16), Index(64)}) {
    Mat b(sys.size(), p);
    for (Index j = 0; j < p; ++j)
      b.set_col(j, sys.B.col(j % sys.port_count()));
    points.emplace_back(p, median_time(reps, [&] {
                          const Mat x = f.solve(b);
                          benchmark::DoNotOptimize(x(0, 0));
                        }));
  }
  return points;
}

void print_tables() {
  std::vector<MeshCase> meshes;
  meshes.push_back({"package_16x5", build_mna(make_package_circuit(
                                                  {.pins = 16, .segments = 5})
                                                  .netlist,
                                              MnaForm::kGeneral)});
  meshes.push_back({"package_64x16",  // the 3136-unknown package mesh
                    build_mna(make_package_circuit({.pins = 64, .segments = 16})
                                  .netlist,
                              MnaForm::kGeneral)});
  meshes.push_back(
      {"interconnect_8x200",
       build_mna(make_interconnect_circuit({.wires = 8, .segments = 200})
                     .netlist,
                 MnaForm::kRC)});

  csv_begin("numeric LDLT refactorization and blocked p-port solve "
            "(shared symbolic, median of 5)",
            {"n", "ports", "nnz_l", "supernodes", "max_panel", "panel_zeros",
             "t_factor_s", "t_solve_s"});
  KernelNumbers package{};
  for (const MeshCase& mesh : meshes) {
    const KernelNumbers k = measure(mesh.sys, 5);
    if (std::string(mesh.name) == "package_64x16") package = k;
    csv_row({k.n, k.ports, k.nnz_l, k.supernodes, k.max_panel, k.panel_zeros,
             k.t_factor, k.t_solve});
  }

  // RHS-width sweep on the big package mesh.
  const auto sweep = rhs_width_sweep(meshes[1].sys, 5);
  csv_begin("blocked multi-RHS solve by RHS width (package_64x16, median "
            "of 5)",
            {"p", "t_solve_s"});
  for (const auto& [p, t] : sweep) csv_row({static_cast<double>(p), t});

  std::vector<std::pair<std::string, double>> kv = {
      {"package_n", package.n},
      {"package_ports", package.ports},
      {"package_nnz_l", package.nnz_l},
      {"package_supernodes", package.supernodes},
      {"package_max_panel", package.max_panel},
      {"package_panel_zeros", package.panel_zeros},
      {"package_factor_supernodal_s", package.t_factor},
      {"package_solve_supernodal_s", package.t_solve}};
  for (const auto& [p, t] : sweep)
    kv.emplace_back("package_solve_p" + std::to_string(p) + "_supernodal_s", t);
  json_emit("BENCH_kernels.json", kv);
  std::printf("\nwrote BENCH_kernels.json (package factor %.3g s, p=16 "
              "solve %.3g s)\n",
              package.t_factor, package.t_solve);
}

void bm_factor(benchmark::State& state) {
  const MnaSystem sys =
      build_mna(make_package_circuit({.pins = 64, .segments = 16}).netlist,
                MnaForm::kGeneral);
  const SMat a = assemble_pencil(sys.G, sys.C, automatic_shift(sys));
  const auto symbolic = std::make_shared<const LdltSymbolic>(a, Ordering::kRCM);
  for (auto _ : state) {
    const LDLT f(a, symbolic, 1e-12);
    benchmark::DoNotOptimize(f.d().data());
  }
}
BENCHMARK(bm_factor)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
