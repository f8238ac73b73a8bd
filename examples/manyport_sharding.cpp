// Many-terminal reduction with port sharding: a 256-port power grid
// reduced through the public facade with ReduceMethod::kShardedSympvl.
// The ports are clustered by electrical proximity, each cluster runs
// its own SyMPVL process off one shared factorization, and the shard
// bases are stitched into a single passive macromodel.
//
//   $ ./manyport_sharding
#include <cstdio>

#include "sympvl.hpp"

int main() {
  using namespace sympvl;

  const PowerGridCircuit grid = make_power_grid({.ports = 256});
  const MnaSystem sys = build_mna(grid.netlist, MnaForm::kAuto);
  std::printf("power grid: %lld x %lld mesh, %lld unknowns, %lld ports\n",
              static_cast<long long>(grid.rows),
              static_cast<long long>(grid.cols),
              static_cast<long long>(sys.size()),
              static_cast<long long>(sys.port_count()));

  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = sys.port_count();  // total order, split across the shards
  opt.shard.shards = 0;          // 0 = auto (heuristic / SYMPVL_PORT_SHARDS)
  const ReduceResult res = reduce(sys, opt);
  if (!res.ok()) {
    std::printf("reduction failed: %s\n",
                res.diagnostics.empty() ? "?"
                                        : res.diagnostics.front().message.c_str());
    return 1;
  }

  const PortShardReport& rep = res.shard;
  std::printf("sharded SyMPVL: %lld shards (%s clustering), stitched order "
              "%lld\n",
              static_cast<long long>(rep.shards), rep.clustering.c_str(),
              static_cast<long long>(rep.stitched_order));
  std::printf("  partition %.3fs  reduce %.3fs  stitch %.3fs  total %.3fs\n",
              rep.partition_seconds, rep.reduce_seconds, rep.stitch_seconds,
              res.report.total_seconds);
  std::printf("  factor cache: %lld hits, %lld misses (one factorization "
              "serves every shard)\n",
              static_cast<long long>(rep.factor_cache_hits),
              static_cast<long long>(rep.factor_cache_misses));

  // Validate the stitched model against exact AC analysis.
  const Vec freqs = log_frequency_grid(1e6, 1e9, 5);
  const SweepResult exact = sweep(sys, freqs);
  const SweepResult reduced = sweep(res.value(), freqs);
  std::printf("\n%-12s %-14s %-14s %-10s\n", "f [Hz]", "|Z00| exact",
              "|Z00| stitched", "max rel.err");
  for (size_t k = 0; k < freqs.size(); ++k) {
    double err = 0.0, den = 0.0;
    for (Index i = 0; i < sys.port_count(); ++i)
      for (Index j = 0; j < sys.port_count(); ++j) {
        err = std::max(err, std::abs(reduced.values[k](i, j) -
                                     exact.values[k](i, j)));
        den = std::max(den, std::abs(exact.values[k](i, j)));
      }
    std::printf("%-12.3e %-14.6e %-14.6e %-10.2e\n", freqs[k],
                std::abs(exact.values[k](0, 0)),
                std::abs(reduced.values[k](0, 0)), err / den);
  }
  return 0;
}
