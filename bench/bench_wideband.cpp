// Experiment E13 (extension) — multi-point (rational Krylov) reduction vs
// the paper's single-expansion-point approach over a wide band.
//
// A single Padé expansion is optimal near its expansion point and decays
// away from it; when the band of interest spans many decades, spreading
// the same basis budget over several expansion points wins. This bench
// quantifies that trade-off, and verifies that congruence projection keeps
// the RC stability/passivity guarantees at every budget.
#include "bench_util.hpp"
#include "gen/rc_interconnect.hpp"
#include "mor/rational.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

const MnaSystem& system_ref() {
  static const MnaSystem sys = build_mna(
      make_interconnect_circuit({.wires = 8, .segments = 160}).netlist,
      MnaForm::kRC);
  return sys;
}

void print_tables() {
  const MnaSystem& sys = system_ref();
  std::printf("8-wire RC bus: MNA size %lld, %lld ports\n",
              static_cast<long long>(sys.size()),
              static_cast<long long>(sys.port_count()));
  const Vec freqs = log_frequency_grid(1e5, 2e10, 25);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});

  auto sweep_err = [&](const ArnoldiModel& m) {
    double err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k)
      err = std::max(err, max_rel_err(
                              m.eval(Complex(0.0, 2.0 * M_PI * freqs[k])),
                              exact[k]));
    return err;
  };

  csv_begin("wideband: single expansion point vs spread (equal total basis "
            "budget)",
            {"points", "iters_per_point", "basis_size", "max_rel_err"});
  const Index budget_iters = 4;  // DC-only baseline: 4 block iterations
  {
    RationalOptions single;
    single.shifts = {0.0};
    single.iterations_per_shift = budget_iters;
    const ArnoldiModel m = rational_reduce(sys, single);
    csv_row({1.0, static_cast<double>(budget_iters),
             static_cast<double>(m.order()), sweep_err(m)});
  }
  for (Index points : {2, 4}) {
    RationalOptions multi;
    multi.shifts = rational_shifts_for_band(sys, 1e5, 2e10, points);
    multi.iterations_per_shift = std::max<Index>(1, budget_iters / points);
    const ArnoldiModel m = rational_reduce(sys, multi);
    csv_row({static_cast<double>(points),
             static_cast<double>(multi.iterations_per_shift),
             static_cast<double>(m.order()), sweep_err(m)});
  }

  // Per-frequency error profile: the single-point model's error grows away
  // from DC, the spread model stays flat.
  RationalOptions single;
  single.shifts = {0.0};
  single.iterations_per_shift = budget_iters;
  const ArnoldiModel m_single = rational_reduce(sys, single);
  RationalOptions multi;
  multi.shifts = rational_shifts_for_band(sys, 1e5, 2e10, 4);
  multi.iterations_per_shift = 1;
  const ArnoldiModel m_multi = rational_reduce(sys, multi);
  csv_begin("wideband: error vs frequency",
            {"f_hz", "err_single_point", "err_4_points"});
  for (size_t k = 0; k < freqs.size(); ++k) {
    const Complex s(0.0, 2.0 * M_PI * freqs[k]);
    csv_row({freqs[k], max_rel_err(m_single.eval(s), exact[k]),
             max_rel_err(m_multi.eval(s), exact[k])});
  }

  // Stability at every budget (congruence keeps the PSD pencil).
  csv_begin("wideband: stability of multi-point RC models",
            {"points", "stable"});
  for (Index points : {1, 2, 4, 8}) {
    RationalOptions opt;
    opt.shifts = points == 1 ? Vec{0.0}
                             : rational_shifts_for_band(sys, 1e5, 2e10, points);
    opt.iterations_per_shift = 2;
    const ArnoldiModel m = rational_reduce(sys, opt);
    csv_row({static_cast<double>(points), m.is_stable() ? 1.0 : 0.0});
  }
}

void bm_rational(benchmark::State& state) {
  const MnaSystem& sys = system_ref();
  RationalOptions opt;
  opt.shifts = rational_shifts_for_band(sys, 1e5, 2e10,
                                        static_cast<Index>(state.range(0)));
  opt.iterations_per_shift = 2;
  for (auto _ : state) {
    const ArnoldiModel m = rational_reduce(sys, opt);
    benchmark::DoNotOptimize(m.order());
  }
}
BENCHMARK(bm_rational)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
