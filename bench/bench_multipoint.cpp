// Experiment E16 (extension) — multipoint expansion engine on the Fig. 5
// interconnect: single-point vs stitched multipoint over a wideband
// sweep, and the factorization economy of the shared FactorCache.
//
// The multipoint session factors each expansion point once and shares
// that factorization between the per-point SyMPVL runs, the union-basis
// stitch and every later (warm) run. Its exact validation grid is swept
// once per session, each AC point factored per call outside the cache,
// so the counts below are pencil factorizations only. The tables and
// BENCH_multipoint.json quantify both axes: model accuracy at equal
// total order, and factorization counts cold vs warm — a warm run
// performs 0 pencil factorizations, and warm_cache_hits counts pencil
// factors served from the cache (no AC points).
#include <chrono>

#include "bench_util.hpp"
#include "gen/rc_interconnect.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/multipoint.hpp"
#include "mor/rational.hpp"
#include "mor/sympvl.hpp"
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

const MnaSystem& system_ref() {
  static const MnaSystem sys = build_mna(
      make_interconnect_circuit({.wires = 8, .segments = 160}).netlist,
      MnaForm::kRC);
  return sys;
}

constexpr double kFMin = 1e5;
constexpr double kFMax = 2e10;
constexpr Index kPoints = 3;
constexpr Index kRuns = 3;

MultipointOptions session_options(const MnaSystem& sys, FactorCache* cache) {
  MultipointOptions opt;
  // One block iteration per point at p ports each: the stitched order
  // stays within the same total the single-point model gets below.
  opt.total_order = kPoints * sys.port_count();
  opt.f_min = kFMin;
  opt.f_max = kFMax;
  opt.s0_points = rational_shifts_for_band(sys, kFMin, kFMax, kPoints);
  opt.cache = cache;
  return opt;
}

void print_tables() {
  const MnaSystem& sys = system_ref();
  std::printf("Fig. 5 interconnect: MNA size %lld, %lld ports\n",
              static_cast<long long>(sys.size()),
              static_cast<long long>(sys.port_count()));
  const Vec freqs = log_frequency_grid(kFMin, kFMax, 25);
  const SweepResult exact = sweep(AcSweepEngine(sys), freqs);

  // ---- accuracy at equal total order: best single point vs stitched ----
  const Index total_order = kPoints * sys.port_count();
  const Vec candidates = rational_shifts_for_band(sys, kFMin, kFMax, kPoints);
  double best_single = 1e300;
  for (double s0 : candidates) {
    SympvlOptions sopt;
    sopt.order = total_order;
    sopt.s0 = s0;
    const ReducedModel rom = sympvl_reduce(sys, sopt);
    best_single =
        std::min(best_single, max_rel_err_sweep(sweep(rom, freqs), exact));
  }

  FactorCache cache(128);
  MultipointSession mp(sys, session_options(sys, &cache));
  const double multi_err = max_rel_err_sweep(sweep(mp.stitched(), freqs), exact);
  csv_begin("multipoint: wideband accuracy at equal total order",
            {"total_order", "stitched_order", "best_single_err", "multi_err"});
  csv_row({static_cast<double>(total_order),
           static_cast<double>(mp.report().stitched_order), best_single,
           multi_err});

  // ---- factorization economy: cold vs warm cache over repeated runs ----
  cache.clear();
  cache.reset_stats();
  double t0 = now_ms();
  std::uint64_t cold_factorizations = 0;
  {
    const MultipointSession cold(sys, session_options(sys, &cache));
    cold_factorizations = cold.report().factorizations;
  }
  const double cold_ms = now_ms() - t0;

  std::uint64_t warm_factorizations = 0;
  std::uint64_t warm_hits = 0;
  t0 = now_ms();
  for (Index run = 0; run < kRuns; ++run) {
    const MultipointSession warm(sys, session_options(sys, &cache));
    warm_factorizations += warm.report().factorizations;
    warm_hits += warm.report().cache_hits;
  }
  const double warm_ms = (now_ms() - t0) / kRuns;

  csv_begin("multipoint: factorizations cold vs warm cache",
            {"points", "runs", "cold_factorizations", "warm_factorizations",
             "points_x_runs", "warm_cache_hits", "cold_build_ms",
             "warm_build_ms"});
  csv_row({static_cast<double>(kPoints), static_cast<double>(kRuns),
           static_cast<double>(cold_factorizations),
           static_cast<double>(warm_factorizations),
           static_cast<double>(kPoints * kRuns),
           static_cast<double>(warm_hits), cold_ms, warm_ms});

  json_emit(
      "BENCH_multipoint.json",
      {{"mna_size", static_cast<double>(sys.size())},
       {"ports", static_cast<double>(sys.port_count())},
       {"points", static_cast<double>(kPoints)},
       {"runs", static_cast<double>(kRuns)},
       {"total_order", static_cast<double>(total_order)},
       {"stitched_order", static_cast<double>(mp.report().stitched_order)},
       {"best_single_err", best_single},
       {"multi_err", multi_err},
       {"cold_factorizations", static_cast<double>(cold_factorizations)},
       {"warm_factorizations", static_cast<double>(warm_factorizations)},
       {"points_x_runs", static_cast<double>(kPoints * kRuns)},
       {"warm_cache_hits", static_cast<double>(warm_hits)},
       {"cold_build_ms", cold_ms},
       {"warm_build_ms", warm_ms}});
}

void bm_multipoint_cold(benchmark::State& state) {
  const MnaSystem& sys = system_ref();
  for (auto _ : state) {
    FactorCache cache(128);
    const MultipointSession mp(sys, session_options(sys, &cache));
    benchmark::DoNotOptimize(mp.point_count());
  }
}
BENCHMARK(bm_multipoint_cold)->Unit(benchmark::kMillisecond);

void bm_multipoint_warm(benchmark::State& state) {
  const MnaSystem& sys = system_ref();
  FactorCache cache(128);
  { const MultipointSession prime(sys, session_options(sys, &cache)); }
  for (auto _ : state) {
    const MultipointSession mp(sys, session_options(sys, &cache));
    benchmark::DoNotOptimize(mp.point_count());
  }
}
BENCHMARK(bm_multipoint_warm)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
