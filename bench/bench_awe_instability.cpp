// Experiment E5 — the Section 3.1 claim: computing Padé approximants from
// explicitly generated moments (AWE) is numerically unstable and usable
// only for small orders (n ≲ 10), while the Lanczos route (SyPVL) delivers
// the same mathematical object stably at any order.
//
// Table: max relative error over a frequency sweep vs order, AWE next to
// SyPVL — watch AWE bottom out and then diverge while SyPVL keeps
// converging.
#include "bench_util.hpp"
#include "gen/random_circuit.hpp"
#include "mor/awe.hpp"
#include "mor/sympvl.hpp"
#include "mor/sypvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

const MnaSystem& system_ref() {
  static const MnaSystem sys =
      build_mna(random_rc({.nodes = 200, .ports = 1, .seed = 42}));
  return sys;
}

void print_tables() {
  const MnaSystem& sys = system_ref();
  const Vec freqs = log_frequency_grid(1e5, 1e10, 25);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});

  csv_begin("awe vs sypvl: max relative error over sweep vs order "
            "(paper: AWE unusable beyond n~10)",
            {"order", "awe_err", "sypvl_err", "awe_hankel_scale"});
  for (Index n : {2, 4, 6, 8, 10, 12, 16, 20, 24, 28}) {
    double awe_err = std::nan("");
    double hankel = std::nan("");
    try {
      const AweModel awe = awe_reduce(sys, n);
      hankel = awe.hankel_condition();
      awe_err = 0.0;
      for (size_t k = 0; k < freqs.size(); ++k) {
        const Complex s(0.0, 2.0 * M_PI * freqs[k]);
        const Complex ze = exact[k](0, 0);
        awe_err = std::max(awe_err, std::abs(awe.eval(s) - ze) / std::abs(ze));
      }
    } catch (const Error&) {
      awe_err = std::numeric_limits<double>::infinity();  // singular Hankel
    }
    SympvlOptions opt;
    opt.order = n;
    const ReducedModel rom = sypvl_reduce(sys, opt);
    double pvl_err = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      const Complex s(0.0, 2.0 * M_PI * freqs[k]);
      const Complex ze = exact[k](0, 0);
      pvl_err = std::max(pvl_err, std::abs(rom.eval(s)(0, 0) - ze) / std::abs(ze));
    }
    csv_row({static_cast<double>(n), awe_err, pvl_err, hankel});
  }
}

void bm_awe(benchmark::State& state) {
  const MnaSystem& sys = system_ref();
  const Index n = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    try {
      const AweModel m = awe_reduce(sys, n);
      benchmark::DoNotOptimize(m.order());
    } catch (const Error&) {
    }
  }
}
BENCHMARK(bm_awe)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void bm_sypvl(benchmark::State& state) {
  const MnaSystem& sys = system_ref();
  SympvlOptions opt;
  opt.order = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    const ReducedModel m = sypvl_reduce(sys, opt);
    benchmark::DoNotOptimize(m.order());
  }
}
BENCHMARK(bm_sypvl)->Arg(4)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
