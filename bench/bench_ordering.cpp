// Experiment E12 — ablations of two implementation choices DESIGN.md calls
// out:
//   (a) fill-reducing ordering for the sparse factorizations (natural vs
//       RCM vs minimum-degree), measured as symbolic fill and wall time on
//       the paper-scale circuits;
//   (b) full reorthogonalization in the Lanczos process vs the theoretical
//       band recurrence (accuracy and cost at growing order).
#include <chrono>

#include "bench_util.hpp"
#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/rc_interconnect.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/sympvl.hpp"
#include "sim/ac.hpp"
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

// rows×cols 2D mesh Laplacian pattern — the power-grid/interconnect
// substrate the nested-dissection ordering targets.
SMat mesh_laplacian(Index rows, Index cols) {
  TripletBuilder<double> b(rows * cols, rows * cols);
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c) {
      const Index v = r * cols + c;
      b.add(v, v, 4.0);
      if (c + 1 < cols) b.add_symmetric(v, v + 1, -1.0);
      if (r + 1 < rows) b.add_symmetric(v, v + cols, -1.0);
    }
  return b.compress();
}

void print_tables() {
  // ---- (a) ordering ablation on the two big substrate matrices. ----
  struct Case {
    const char* name;
    SMat g;
  };
  const PackageCircuit pkg = make_package_circuit();
  const InterconnectCircuit bus = make_interconnect_circuit();
  std::vector<Case> cases;
  cases.push_back({"package_G_shifted", [&] {
                     const MnaSystem sys = build_mna(pkg.netlist, MnaForm::kGeneral);
                     return SMat::add(sys.G, 1.0, sys.C, automatic_shift(sys));
                   }()});
  cases.push_back({"interconnect_G", build_mna(bus.netlist, MnaForm::kRC).G});

  csv_begin("ordering ablation: symbolic fill (L nnz) and factor time",
            {"case", "n", "fill_natural", "fill_rcm", "fill_mindeg",
             "fill_nd", "t_rcm_s", "t_mindeg_s", "t_nd_s"});
  int case_id = 0;
  for (const auto& c : cases) {
    const Index fill_nat = symbolic_fill(c.g, natural_ordering(c.g.rows()));
    std::vector<Index> perm_rcm, perm_md, perm_nd;
    const double t_rcm = timed([&] { perm_rcm = rcm_ordering(c.g); });
    const double t_md = timed([&] { perm_md = min_degree_ordering(c.g); });
    const double t_nd = timed([&] { perm_nd = nested_dissection_ordering(c.g); });
    std::printf("case %d = %s\n", case_id, c.name);
    csv_row({static_cast<double>(case_id++), static_cast<double>(c.g.rows()),
             static_cast<double>(fill_nat),
             static_cast<double>(symbolic_fill(c.g, perm_rcm)),
             static_cast<double>(symbolic_fill(c.g, perm_md)),
             static_cast<double>(symbolic_fill(c.g, perm_nd)), t_rcm, t_md,
             t_nd});
  }

  // ---- (a') mesh-size series: fill and elimination-tree height. The
  // etree height is the critical path of the level-set parallel supernodal
  // factorization, so lower is better twice over. Emitted to
  // BENCH_ordering.json for the perf-trajectory gate; min-degree at
  // 256×256 costs several seconds (its selection scan is O(n) per pivot),
  // which is exactly the motivation for nested dissection at scale.
  csv_begin("2D mesh series: symbolic fill and etree height by ordering",
            {"side", "n", "fill_rcm", "fill_mindeg", "fill_nd", "height_rcm",
             "height_mindeg", "height_nd", "t_mindeg_s", "t_nd_s"});
  std::vector<double> mesh_n, nd_fill, md_fill, nd_height, md_height;
  std::vector<double> nd_order_s, md_order_s;
  for (Index side : {64, 128, 256}) {
    const SMat a = mesh_laplacian(side, side);
    std::vector<Index> perm_md, perm_nd;
    const double t_md = timed([&] { perm_md = min_degree_ordering(a); });
    const double t_nd = timed([&] { perm_nd = nested_dissection_ordering(a); });
    const SymbolicStats rcm = symbolic_stats(a, rcm_ordering(a));
    const SymbolicStats md = symbolic_stats(a, perm_md);
    const SymbolicStats nd = symbolic_stats(a, perm_nd);
    csv_row({static_cast<double>(side), static_cast<double>(a.rows()),
             static_cast<double>(rcm.fill), static_cast<double>(md.fill),
             static_cast<double>(nd.fill),
             static_cast<double>(rcm.etree_height),
             static_cast<double>(md.etree_height),
             static_cast<double>(nd.etree_height), t_md, t_nd});
    mesh_n.push_back(static_cast<double>(a.rows()));
    // Fill is emitted as L-value bytes (8·entries) so the "*_bytes" perf
    // gate protects the ordering quality itself, not just its wall time.
    nd_fill.push_back(8.0 * static_cast<double>(nd.fill));
    md_fill.push_back(8.0 * static_cast<double>(md.fill));
    nd_height.push_back(static_cast<double>(nd.etree_height));
    md_height.push_back(static_cast<double>(md.etree_height));
    nd_order_s.push_back(t_nd);
    md_order_s.push_back(t_md);
  }
  json_emit("BENCH_ordering.json", {},
            {{"mesh_n", mesh_n},
             {"nd_fill_bytes", nd_fill},
             {"mindeg_fill_bytes", md_fill},
             {"nd_etree_height", nd_height},
             {"mindeg_etree_height", md_height},
             {"nd_order_s", nd_order_s},
             {"mindeg_order_s", md_order_s}});
  std::printf("\nwrote BENCH_ordering.json\n");

  // ---- (b) reorthogonalization ablation. ----
  const MnaSystem sys = build_mna(bus.netlist, MnaForm::kRC);
  const Vec freqs = log_frequency_grid(1e6, 1e10, 11);
  const auto exact = sweep(sys, freqs, {.throw_on_failure = true});
  csv_begin("reorthogonalization ablation (17-port RC bus)",
            {"order", "err_full_reorth", "err_band_recurrence",
             "t_full_s", "t_band_s"});
  for (Index order : {17, 34, 68}) {
    double err_full = 0.0, err_band = 0.0, t_full = 0.0, t_band = 0.0;
    for (int full = 1; full >= 0; --full) {
      SympvlOptions opt;
      opt.order = order;
      opt.full_reorthogonalization = (full == 1);
      ReducedModel rom;
      const double t = timed([&] { rom = sympvl_reduce(sys, opt); });
      double err = 0.0;
      for (size_t k = 0; k < freqs.size(); ++k)
        err = std::max(err, max_rel_err(
                                rom.eval(Complex(0.0, 2.0 * M_PI * freqs[k])),
                                exact[k]));
      if (full == 1) {
        err_full = err;
        t_full = t;
      } else {
        err_band = err;
        t_band = t;
      }
    }
    csv_row({static_cast<double>(order), err_full, err_band, t_full, t_band});
  }
}

void bm_ldlt_by_ordering(benchmark::State& state) {
  const InterconnectCircuit bus = make_interconnect_circuit({.wires = 4,
                                                             .segments = 100});
  const SMat g = build_mna(bus.netlist, MnaForm::kRC).G;
  const Ordering ord = static_cast<Ordering>(state.range(0));
  for (auto _ : state) {
    const LDLT f(g, ord);
    benchmark::DoNotOptimize(f.l_nnz());
  }
}
BENCHMARK(bm_ldlt_by_ordering)
    ->Arg(static_cast<int>(Ordering::kNatural))
    ->Arg(static_cast<int>(Ordering::kRCM))
    ->Arg(static_cast<int>(Ordering::kMinDegree))
    ->Arg(static_cast<int>(Ordering::kNestedDissection))
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYMPVL_BENCH_MAIN(print_tables)
