// Experiment E7 — ablation against the block-Arnoldi / congruence
// projection alternative cited in Section 1 (reference [16], the
// PRIMA-precursor): at equal reduced order n, the matrix-Padé model
// matches 2⌊n/p⌋ moments vs ⌊n/p⌋ for the projection, so SyMPVL needs
// roughly half the order for the same accuracy.
//
// Tables: error vs order for both methods on the package-like RLC and the
// RC bus; moment-match count verification.
#include "bench_util.hpp"
#include "gen/package.hpp"
#include "gen/random_circuit.hpp"
#include "mor/arnoldi.hpp"
#include "mor/moments.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

void error_vs_order_table(const char* title, const MnaSystem& sys,
                          double s0, const std::vector<Index>& orders) {
  const Vec freqs = log_frequency_grid(1e7, 1e10, 15);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});
  csv_begin(title, {"order", "sympvl_err", "arnoldi_err"});
  for (Index n : orders) {
    SympvlOptions sopt;
    sopt.order = n;
    sopt.s0 = s0;
    const ReducedModel rom = sympvl_reduce(sys, sopt);
    ArnoldiOptions aopt;
    aopt.order = n;
    aopt.s0 = s0;
    const ArnoldiModel arn = arnoldi_reduce(sys, aopt);
    double es = 0.0, ea = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      const Complex s(0.0, 2.0 * M_PI * freqs[k]);
      es = std::max(es, max_rel_err(rom.eval(s), exact[k]));
      ea = std::max(ea, max_rel_err(arn.eval(s), exact[k]));
    }
    csv_row({static_cast<double>(n), es, ea});
  }
}

void print_tables() {
  // RC bus, 2 ports.
  const MnaSystem rc = build_mna(random_rc({.nodes = 120, .ports = 2,
                                            .seed = 11}));
  error_vs_order_table("arnoldi ablation: coupled RC (p=2), err vs order",
                       rc, 0.0, {4, 8, 12, 16, 24, 32});

  // Small package RLC, 8 ports.
  const PackageCircuit pkg = make_package_circuit(
      {.pins = 16, .segments = 4, .signal_pins = 4});
  const MnaSystem rlc = build_mna(pkg.netlist, MnaForm::kGeneral);
  error_vs_order_table("arnoldi ablation: package RLC (p=8), err vs order",
                       rlc, automatic_shift(rlc), {16, 24, 32, 48, 64});

  // Moment-count verification on a SISO system: first mismatched moment.
  const MnaSystem siso = build_mna(random_rc({.nodes = 60, .ports = 1,
                                              .seed = 12}));
  csv_begin("first mismatched moment index (theory: 2n for Pade, n for "
            "projection)", {"order", "sympvl_first_miss", "arnoldi_first_miss"});
  for (Index n : {3, 5, 7}) {
    SympvlOptions sopt;
    sopt.order = n;
    const ReducedModel rom = sympvl_reduce(siso, sopt);
    ArnoldiOptions aopt;
    aopt.order = n;
    const ArnoldiModel arn = arnoldi_reduce(siso, aopt);
    const Vec exact = exact_moments_scalar(siso, 2 * n + 2);
    auto first_miss = [&](const std::function<double(Index)>& moment) {
      for (Index k = 0; k < 2 * n + 2; ++k) {
        const double scale = std::abs(exact[static_cast<size_t>(k)]);
        if (std::abs(moment(k) - exact[static_cast<size_t>(k)]) > 1e-6 * scale)
          return k;
      }
      return Index(2 * n + 2);
    };
    csv_row({static_cast<double>(n),
             static_cast<double>(first_miss(
                 [&](Index k) { return rom.moment(k)(0, 0); })),
             static_cast<double>(first_miss(
                 [&](Index k) { return arn.moment(k)(0, 0); }))});
  }
}

void bm_sympvl(benchmark::State& state) {
  const MnaSystem sys = build_mna(random_rc({.nodes = 120, .ports = 2,
                                             .seed = 11}));
  SympvlOptions opt;
  opt.order = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    const ReducedModel rom = sympvl_reduce(sys, opt);
    benchmark::DoNotOptimize(rom.order());
  }
}
BENCHMARK(bm_sympvl)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void bm_arnoldi(benchmark::State& state) {
  const MnaSystem sys = build_mna(random_rc({.nodes = 120, .ports = 2,
                                             .seed = 11}));
  ArnoldiOptions opt;
  opt.order = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    const ArnoldiModel m = arnoldi_reduce(sys, opt);
    benchmark::DoNotOptimize(m.order());
  }
}
BENCHMARK(bm_arnoldi)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
