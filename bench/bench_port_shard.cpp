// Experiment E11 — many-terminal port sharding: clustered per-shard
// SyMPVL against monolithic SyMPVL on the power-grid family, at
// matched total order. Emits the time-vs-ports and error-vs-ports
// curves of BENCH_port_shard.json; the "*_s" series are gated
// element-wise against bench/baselines/ by tools/check_perf.py.
#include <chrono>
#include <functional>

#include "bench_util.hpp"
#include "gen/power_grid.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/reduce.hpp"
#include "sim/sweep_api.hpp"

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
  csv_begin("sharded vs monolithic SyMPVL (power grid, order = ports)",
            {"ports", "mna_size", "shards", "mono_s", "shard_s", "speedup",
             "mono_err", "shard_err"});

  std::vector<double> ports_series, mono_series, shard_series;
  std::vector<double> mono_err_series, shard_err_series;
  double speedup_512 = 0.0, err_ratio_512 = 0.0;

  for (Index ports : {128, 256, 512}) {
    const PowerGridOptions gopt{.ports = ports};
    const MnaSystem sys =
        build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);

    ReduceOptions opt;
    opt.order = ports;  // matched total order: shard orders sum to this

    // Each variant pays its own factorization: the global pencil cache
    // is content-fingerprinted, so without the clear the second run
    // would reuse the first run's factor and the comparison would skew.
    FactorCache::global().clear();
    ReduceResult mono;
    const double t_mono = timed([&] { mono = reduce(sys, opt); });

    FactorCache::global().clear();
    opt.method = ReduceMethod::kShardedSympvl;
    ReduceResult sharded;
    const double t_shard = timed([&] { sharded = reduce(sys, opt); });

    const Vec freqs = log_frequency_grid(1e6, 1e9, 7);
    const SweepResult exact = sweep(sys, freqs);
    const double err_mono =
        mono.ok() ? max_rel_err_sweep(sweep(mono.value(), freqs), exact)
                  : 1.0;
    const double err_shard =
        sharded.ok() ? max_rel_err_sweep(sweep(sharded.value(), freqs), exact)
                     : 1.0;

    csv_row({static_cast<double>(ports), static_cast<double>(sys.size()),
             static_cast<double>(sharded.shard.shards), t_mono, t_shard,
             t_mono / t_shard, err_mono, err_shard});

    ports_series.push_back(static_cast<double>(ports));
    mono_series.push_back(t_mono);
    shard_series.push_back(t_shard);
    mono_err_series.push_back(err_mono);
    shard_err_series.push_back(err_shard);
    if (ports == 512) {
      speedup_512 = t_mono / t_shard;
      err_ratio_512 = err_shard / (err_mono + 1e-300);
    }
  }

  json_emit("BENCH_port_shard.json",
            {{"shard_p512_speedup", speedup_512},
             {"shard_p512_err_ratio", err_ratio_512}},
            {{"ports", ports_series},
             {"mono_time_s", mono_series},
             {"shard_time_s", shard_series},
             {"mono_err", mono_err_series},
             {"shard_err", shard_err_series}});
  std::printf("\nwrote BENCH_port_shard.json\n");
}

void bm_sharded_reduce(benchmark::State& state) {
  const PowerGridOptions gopt{.ports = static_cast<Index>(state.range(0))};
  const MnaSystem sys =
      build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = gopt.ports;
  for (auto _ : state) {
    FactorCache::global().clear();
    const ReduceResult r = reduce(sys, opt);
    benchmark::DoNotOptimize(r.model.order());
  }
  state.SetComplexityN(gopt.ports);
}
BENCHMARK(bm_sharded_reduce)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void bm_monolithic_reduce(benchmark::State& state) {
  const PowerGridOptions gopt{.ports = static_cast<Index>(state.range(0))};
  const MnaSystem sys =
      build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.order = gopt.ports;
  for (auto _ : state) {
    FactorCache::global().clear();
    const auto r = reduce(sys, opt);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(gopt.ports);
}
BENCHMARK(bm_monolithic_reduce)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity();

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
