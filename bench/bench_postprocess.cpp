// Experiment E11 — the Section 5/8 post-processing remark, quantified:
// general RLC reduced models are not guaranteed stable; modal
// decomposition + pole flipping/dropping makes them stable at a measured
// accuracy cost.
//
// Tables: fraction of unstable low-order RLC reductions over a seed sweep;
// before/after stability and sweep error for the flip and drop modes.
#include "bench_util.hpp"
#include "gen/random_circuit.hpp"
#include "mor/postprocess.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

double sweep_err(const std::function<CMat(Complex)>& eval, const MnaSystem& sys,
                 const Vec& freqs, const std::vector<CMat>& exact) {
  double err = 0.0;
  (void)sys;
  for (size_t k = 0; k < freqs.size(); ++k)
    err = std::max(err,
                   max_rel_err(eval(Complex(0.0, 2.0 * M_PI * freqs[k])), exact[k]));
  return err;
}

void print_tables() {
  // How often are low-order RLC reductions unstable? (Section 5: no
  // guarantee outside RC/RL/LC.)
  csv_begin("fraction of unstable RLC reductions vs order (100 seeds)",
            {"order", "unstable_fraction"});
  for (Index order : {4, 6, 8, 12}) {
    int unstable = 0, total = 0;
    for (unsigned seed = 1; seed <= 100; ++seed) {
      const Netlist nl = random_rlc({.nodes = 20, .ports = 1, .seed = seed});
      try {
        SympvlOptions opt;
        opt.order = order;
        const ReducedModel rom = sympvl_reduce(build_mna(nl, MnaForm::kGeneral), opt);
        ++total;
        if (!rom.is_stable()) ++unstable;
      } catch (const Error&) {
      }
    }
    csv_row({static_cast<double>(order),
             static_cast<double>(unstable) / std::max(1, total)});
  }

  // Post-processing on the unstable cases: stability restored, error cost.
  csv_begin("post-processing unstable RLC models (order 6)",
            {"seed", "err_before", "err_flip", "err_drop", "stable_flip",
             "stable_drop"});
  int shown = 0;
  for (unsigned seed = 1; seed <= 100 && shown < 8; ++seed) {
    const Netlist nl = random_rlc({.nodes = 20, .ports = 1, .seed = seed});
    const MnaSystem sys = build_mna(nl, MnaForm::kGeneral);
    ReducedModel rom;
    try {
      SympvlOptions opt;
      opt.order = 6;
      rom = sympvl_reduce(sys, opt);
    } catch (const Error&) {
      continue;
    }
    if (rom.is_stable()) continue;
    const Vec freqs = log_frequency_grid(1e6, 1e9, 9);
    const auto exact = sweep(sys, freqs, {.throw_on_failure = true}).values;
    const ModalModel modal = modal_decompose(rom);
    const ModalModel flip = enforce_stability(modal, StabilizeMode::kFlip);
    const ModalModel drop = enforce_stability(modal, StabilizeMode::kDrop);
    csv_row({static_cast<double>(seed),
             sweep_err([&](Complex s) { return rom.eval(s); }, sys, freqs, exact),
             sweep_err([&](Complex s) { return flip.eval(s); }, sys, freqs, exact),
             sweep_err([&](Complex s) { return drop.eval(s); }, sys, freqs, exact),
             flip.is_stable() ? 1.0 : 0.0, drop.is_stable() ? 1.0 : 0.0});
    ++shown;
  }
  if (shown == 0)
    std::printf("(no unstable order-6 reductions found in the seed sweep)\n");
}

void bm_modal_decompose(benchmark::State& state) {
  const Netlist nl = random_rlc({.nodes = 25, .ports = 2, .seed = 3});
  SympvlOptions opt;
  opt.order = static_cast<Index>(state.range(0));
  const ReducedModel rom = sympvl_reduce(build_mna(nl, MnaForm::kGeneral), opt);
  for (auto _ : state) {
    const ModalModel m = modal_decompose(rom);
    benchmark::DoNotOptimize(m.pole_count());
  }
}
BENCHMARK(bm_modal_decompose)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
