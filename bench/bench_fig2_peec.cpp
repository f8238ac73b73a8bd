// Experiment E1 — Figure 2 of the paper: the PEEC LC two-port transfer
// function, exact analysis vs SyMPVL matrix-Padé models.
//
// Paper result: order n = 50 gives a good match of the transfer function
// (matching 2⌊50/2⌋ = 50 matrix moments); 6 more iterations (n = 56) give
// a "perfect" match. G is singular, so the eq. 26 frequency shift is used.
//
// This bench prints |Z11| and |Z21| series for the exact sweep and orders
// {30, 50, 56}, plus the per-order max relative error, then times SyMPVL
// against the exact full sweep.
#include <chrono>

#include "bench_util.hpp"
#include "gen/peec.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

const PeecCircuit& peec() {
  static const PeecCircuit p = make_peec_circuit();  // 12x12 grid
  return p;
}

// Expansion point: G is singular (eq. 26 applies), and the natural choice
// is a shift in the middle of the band of interest, s0 = (2π·3.5 GHz)².
double shift() { return std::pow(2.0 * M_PI * 3.5e9, 2.0); }

void print_tables() {
  const MnaSystem& sys = peec().system;
  std::printf("PEEC circuit: MNA size %lld, %zu inductors, %zu couplings\n",
              static_cast<long long>(sys.size()),
              peec().netlist.inductors().size(),
              peec().netlist.mutuals().size());

  const Vec freqs = linear_frequency_grid(1e8, 7.5e9, 60);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});

  const std::vector<Index> orders{30, 50, 56};
  std::vector<ReducedModel> roms;
  SympvlReport report;
  for (Index n : orders) {
    SympvlOptions opt;
    opt.order = n;
    opt.s0 = shift();
    roms.push_back(sympvl_reduce(sys, opt, &report));
  }
  std::printf("frequency shift s0 = %.4e (G singular, eq. 26)\n",
              report.s0_used);

  csv_begin("fig2: PEEC two-port transfer function |Z|",
            {"f_hz", "z11_exact", "z11_n30", "z11_n50", "z11_n56",
             "z21_exact", "z21_n30", "z21_n50", "z21_n56"});
  std::vector<double> err(orders.size(), 0.0);
  for (size_t k = 0; k < freqs.size(); ++k) {
    const Complex s(0.0, 2.0 * M_PI * freqs[k]);
    std::vector<CMat> z;
    for (const auto& rom : roms) z.push_back(rom.eval(s));
    csv_row({freqs[k], std::abs(exact[k](0, 0)), std::abs(z[0](0, 0)),
             std::abs(z[1](0, 0)), std::abs(z[2](0, 0)),
             std::abs(exact[k](1, 0)), std::abs(z[0](1, 0)),
             std::abs(z[1](1, 0)), std::abs(z[2](1, 0))});
    for (size_t m = 0; m < roms.size(); ++m)
      err[m] = std::max(err[m], max_rel_err(z[m], exact[k]));
  }

  csv_begin("fig2: max relative error vs order (50 good, 56 near-perfect)",
            {"order", "max_rel_err"});
  for (size_t m = 0; m < orders.size(); ++m)
    csv_row({static_cast<double>(orders[m]), err[m]});

  // The paper's own workflow: "running the algorithm 6 more iterations" —
  // the resumable session reuses the factorization and Lanczos state, so
  // the marginal cost of those 6 iterations is a small fraction of a
  // fresh order-56 run.
  const auto t0 = std::chrono::steady_clock::now();
  SympvlOptions sopt;
  sopt.order = 50;
  sopt.s0 = shift();
  SympvlSession session(sys, sopt);
  const double t_50 =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto t1 = std::chrono::steady_clock::now();
  const ReducedModel rom56 = session.extend(6);
  const double t_plus6 =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
  const double err56 = max_rel_err_sweep(sweep(rom56, freqs), exact);
  csv_begin("fig2: incremental session — order 50 then +6 iterations",
            {"t_order50_s", "t_plus6_s", "err_after_56"});
  csv_row({t_50, t_plus6, err56});
}

void bm_sympvl_reduce(benchmark::State& state) {
  const MnaSystem& sys = peec().system;
  SympvlOptions opt;
  opt.order = static_cast<Index>(state.range(0));
  opt.s0 = shift();
  for (auto _ : state) {
    const ReducedModel rom = sympvl_reduce(sys, opt);
    benchmark::DoNotOptimize(rom.order());
  }
}
BENCHMARK(bm_sympvl_reduce)->Arg(30)->Arg(50)->Arg(56)->Unit(benchmark::kMillisecond);

void bm_exact_sweep_point(benchmark::State& state) {
  const MnaSystem& sys = peec().system;
  for (auto _ : state) {
    const CMat z = ac_z_matrix(sys, Complex(0.0, 2.0 * M_PI * 1e9));
    benchmark::DoNotOptimize(z(0, 0));
  }
}
BENCHMARK(bm_exact_sweep_point)->Unit(benchmark::kMillisecond);

void bm_rom_sweep_point(benchmark::State& state) {
  const MnaSystem& sys = peec().system;
  SympvlOptions opt;
  opt.order = 50;
  opt.s0 = shift();
  const ReducedModel rom = sympvl_reduce(sys, opt);
  for (auto _ : state) {
    const CMat z = rom.eval(Complex(0.0, 2.0 * M_PI * 1e9));
    benchmark::DoNotOptimize(z(0, 0));
  }
}
BENCHMARK(bm_rom_sweep_point)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
