// Experiment E15 (extension) — balanced truncation vs the matrix-Padé
// approach: the classic MOR trade-off the Krylov literature positions
// itself against. BT is near-optimal in worst-case (H∞) error and carries
// the 2·Σσ bound, but costs O(N³) dense algebra; SyMPVL costs one sparse
// factorization plus n operator applications and matches moments instead.
//
// Tables: worst-case sweep error vs order for BT / SyMPVL / Arnoldi on an
// RC network, the Hankel spectrum (how much of the circuit is truncatable),
// the H∞ bound vs the realized error, and wall-clock cost vs N.
#include <chrono>

#include "bench_util.hpp"
#include "gen/random_circuit.hpp"
#include "mor/arnoldi.hpp"
#include "mor/balanced.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

using namespace sympvl;
using namespace sympvl::bench;

double worst_err(const std::function<CMat(Complex)>& eval, const Vec& freqs,
                 const std::vector<CMat>& exact) {
  double err = 0.0;
  for (size_t k = 0; k < freqs.size(); ++k) {
    const CMat z = eval(Complex(0.0, 2.0 * M_PI * freqs[k]));
    for (Index i = 0; i < z.rows(); ++i)
      for (Index j = 0; j < z.cols(); ++j)
        err = std::max(err, std::abs(z(i, j) - exact[k](i, j)));
  }
  return err;
}

void print_tables() {
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 150, .ports = 2, .seed = 61}));
  const Vec freqs = log_frequency_grid(1e4, 1e12, 30);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true}).values;

  csv_begin("balanced truncation vs sympvl vs arnoldi: worst-case error vs "
            "order (150-node RC, p=2)",
            {"order", "bt_err", "bt_bound", "sympvl_err", "arnoldi_err"});
  for (Index order : {2, 4, 8, 16, 32}) {
    BalancedOptions bopt;
    bopt.order = order;
    const BalancedResult bt = balanced_truncation(sys, bopt);
    SympvlOptions sopt;
    sopt.order = order;
    const ReducedModel rom = sympvl_reduce(sys, sopt);
    ArnoldiOptions aopt;
    aopt.order = order;
    const ArnoldiModel arn = arnoldi_reduce(sys, aopt);
    csv_row({static_cast<double>(order),
             worst_err([&](Complex s) { return bt.model.eval(s); }, freqs, exact),
             bt.error_bound,
             worst_err([&](Complex s) { return rom.eval(s); }, freqs, exact),
             worst_err([&](Complex s) { return arn.eval(s); }, freqs, exact)});
  }

  // Hankel spectrum: how compressible the circuit is.
  {
    BalancedOptions opt;
    opt.order = 1;
    const BalancedResult bt = balanced_truncation(sys, opt);
    csv_begin("hankel singular values (first 20, normalized)",
              {"index", "sigma_over_sigma1"});
    const double s1 = bt.hankel_singular_values.front() + 1e-300;
    for (Index k = 0; k < std::min<Index>(20, sys.size()); ++k)
      csv_row({static_cast<double>(k + 1),
               bt.hankel_singular_values[static_cast<size_t>(k)] / s1});
  }

  // Cost scaling: BT's dense O(N³) vs SyMPVL's sparse cost.
  csv_begin("cost vs N at order 12", {"n", "t_bt_s", "t_sympvl_s"});
  for (Index nodes : {50, 100, 200, 400}) {
    const MnaSystem s =
        build_mna(random_rc({.nodes = nodes, .ports = 2,
                             .seed = static_cast<unsigned>(70 + nodes)}));
    const auto t0 = std::chrono::steady_clock::now();
    BalancedOptions bopt;
    bopt.order = 12;
    balanced_truncation(s, bopt);
    const double t_bt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const auto t1 = std::chrono::steady_clock::now();
    SympvlOptions sopt;
    sopt.order = 12;
    sympvl_reduce(s, sopt);
    const double t_pade =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
    csv_row({static_cast<double>(s.size()), t_bt, t_pade});
  }
}

void bm_balanced(benchmark::State& state) {
  const MnaSystem sys = build_mna(
      random_rc({.nodes = static_cast<Index>(state.range(0)), .ports = 2,
                 .seed = 61}));
  BalancedOptions opt;
  opt.order = 12;
  for (auto _ : state) {
    const BalancedResult bt = balanced_truncation(sys, opt);
    benchmark::DoNotOptimize(bt.error_bound);
  }
}
BENCHMARK(bm_balanced)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
