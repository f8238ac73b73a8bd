// Port-sharding parity suite (ctest label "ShardParity"; also the tsan
// target for the parallel shard fan-out): shard-count invariance
// (1 shard runs the monolithic SyMPVL bit for bit; k shards
// stitch to the same transfer function at exhaustion orders), partition
// determinism, thread-count determinism of the sharded path, the one
// factorization every shard runs on, and the stitch's Gram kernels
// against the full-row kernels they replaced.
#include "mor/port_shard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "gen/package.hpp"
#include "gen/peec.hpp"
#include "gen/power_grid.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/port_shard_stitch.hpp"
#include "mor/reduce.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

double max_rel_err(const CMat& a, const CMat& b) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) {
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return num / (den + 1e-300);
}

Vec log_grid(double f0, double f1, Index count) {
  Vec f(static_cast<size_t>(count));
  const double l0 = std::log10(f0), l1 = std::log10(f1);
  for (Index k = 0; k < count; ++k)
    f[static_cast<size_t>(k)] = std::pow(
        10.0, l0 + (l1 - l0) * static_cast<double>(k) /
                       static_cast<double>(std::max<Index>(count - 1, 1)));
  return f;
}

// Small 16-port package (RLC — indefinite J, exercises the MGS-union
// stitch fallback) whose Krylov space a modest order exhausts.
MnaSystem small_package() {
  PackageOptions opt;
  opt.pins = 16;
  opt.segments = 2;
  opt.signal_pins = 8;
  return build_mna(make_package_circuit(opt).netlist, MnaForm::kAuto);
}

TEST(PortShard, ResolveShardCountPrecedence) {
  PortShardOptions opt;
  // Heuristic: small port counts stay monolithic.
  EXPECT_EQ(resolve_shard_count(opt, 8), 1);
  EXPECT_GE(resolve_shard_count(opt, 512), 2);
  // Explicit option wins.
  opt.shards = 3;
  EXPECT_EQ(resolve_shard_count(opt, 512), 3);
  // Clamped to the port count.
  EXPECT_EQ(resolve_shard_count(opt, 2), 2);
}

TEST(PortShard, PartitionCoversAllPortsDeterministically) {
  const PowerGridOptions gopt{.ports = 64};
  const MnaSystem sys = build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  for (const ShardClustering strategy :
       {ShardClustering::kAuto, ShardClustering::kRoundRobin}) {
    const auto a = partition_ports(sys, 4, strategy);
    const auto b = partition_ports(sys, 4, strategy);
    EXPECT_EQ(a, b);  // deterministic
    ASSERT_EQ(static_cast<Index>(a.size()), sys.port_count());
    std::vector<Index> count(4, 0);
    for (Index s : a) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
      ++count[static_cast<size_t>(s)];
    }
    for (Index k = 0; k < 4; ++k)
      EXPECT_GT(count[static_cast<size_t>(k)], 0)
          << "empty shard under strategy " << static_cast<int>(strategy);
  }
}

TEST(PortShard, ElectricalPartitionGroupsGridNeighbors) {
  // Ports are laid out on a row-major stride: with 4 shards on a mesh,
  // electrically adjacent ports should mostly share a shard — count
  // adjacent-port pairs split across shards and require locality beats
  // the round-robin worst case (which splits EVERY adjacent pair).
  const PowerGridOptions gopt{.ports = 64};
  const MnaSystem sys = build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  const auto assign = partition_ports(sys, 4, ShardClustering::kAuto);
  Index split = 0;
  for (Index j = 0; j + 1 < sys.port_count(); ++j)
    if (assign[static_cast<size_t>(j)] != assign[static_cast<size_t>(j) + 1])
      ++split;
  EXPECT_LT(split, sys.port_count() / 2);
}

// A 10×10 RC mesh with eight two-terminal ports, each from a node in the
// upper half to one five rows down and three columns over. A port's two
// ±1 entries in B tie in magnitude, so its anchor is the lower row.
MnaSystem two_terminal_grid() {
  const Index side = 10;
  const auto node = [&](Index r, Index c) { return r * side + c + 1; };
  Netlist nl;
  for (Index r = 0; r < side; ++r)
    for (Index c = 0; c < side; ++c) {
      if (c + 1 < side) nl.add_resistor(node(r, c), node(r, c + 1), 1.0);
      if (r + 1 < side) nl.add_resistor(node(r, c), node(r + 1, c), 1.0);
      nl.add_capacitor(node(r, c), 0, 1e-12);
    }
  nl.add_resistor(node(0, 0), 0, 10.0);
  nl.add_resistor(node(side - 1, side - 1), 0, 10.0);
  const Index upper[][2] = {{0, 1}, {1, 6}, {2, 3}, {3, 8},
                            {4, 0}, {1, 2}, {3, 4}, {0, 9}};
  for (const auto& t : upper)
    nl.add_port(node(t[0], t[1]), node(t[0] + 5, (t[1] + 3) % side));
  return build_mna(nl, MnaForm::kAuto);
}

TEST(PortShard, ElectricalPartitionAnchorsTiesAtTheLowerRow) {
  // The assignments the column-by-column anchor scan returned: the
  // row-major scan must keep its first-max rule. Anchoring a tie at the
  // upper row instead gives {0 1 0 2 2 0 1 0} and {0 1 3 2 2 0 3 0}.
  const MnaSystem sys = two_terminal_grid();
  ASSERT_EQ(sys.port_count(), 8);
  EXPECT_EQ(partition_ports(sys, 3, ShardClustering::kAuto),
            (std::vector<Index>{0, 1, 0, 1, 2, 0, 1, 1}));
  EXPECT_EQ(partition_ports(sys, 4, ShardClustering::kAuto),
            (std::vector<Index>{0, 3, 0, 1, 2, 0, 1, 1}));
}

// ---- The stitch Gram kernels as they were before they learned to skip
// zero rows: every row k of `a` in ascending order. The oracle.

constexpr Index kOraclePanel = 48;

Mat oracle_sym_gram_signed(const Mat& a, const Vec& j) {
  const Index big_n = a.rows();
  const Index n = a.cols();
  Mat c(n, n);
  for (Index j0 = 0; j0 < n; j0 += kOraclePanel) {
    const Index j1 = std::min(n, j0 + kOraclePanel);
    for (Index i0 = j0; i0 < n; i0 += kOraclePanel) {
      const Index i1 = std::min(n, i0 + kOraclePanel);
      for (Index k = 0; k < big_n; ++k) {
        const double* arow = a.data() + k * n;
        const double sign = j[static_cast<size_t>(k)];
        for (Index i = i0; i < i1; ++i) {
          const double aik = arow[i] * sign;
          if (aik == 0.0) continue;
          double* crow = c.data() + i * n;
          const Index jend = std::min(j1, i + 1);
          for (Index jj = j0; jj < jend; ++jj) crow[jj] += aik * arow[jj];
        }
      }
    }
  }
  for (Index i = 0; i < n; ++i)
    for (Index jj = i + 1; jj < n; ++jj) c(i, jj) = c(jj, i);
  return c;
}

template <typename FillPanel>
Mat oracle_sym_gram_streamed(const Mat& a, FillPanel fill) {
  const Index big_n = a.rows();
  const Index n = a.cols();
  Mat c(n, n);
  for (Index j0 = 0; j0 < n; j0 += kOraclePanel) {
    const Index j1 = std::min(n, j0 + kOraclePanel);
    const Mat panel = fill(j0, j1);
    for (Index i0 = j0; i0 < n; i0 += kOraclePanel) {
      const Index i1 = std::min(n, i0 + kOraclePanel);
      for (Index k = 0; k < big_n; ++k) {
        const double* arow = a.data() + k * n;
        const double* prow = panel.data() + k * panel.cols();
        for (Index i = i0; i < i1; ++i) {
          const double aik = arow[i];
          if (aik == 0.0) continue;
          double* crow = c.data() + i * n;
          const Index jend = std::min(j1, i + 1);
          for (Index jj = j0; jj < jend; ++jj)
            crow[jj] += aik * prow[jj - j0];
        }
      }
    }
  }
  for (Index i = 0; i < n; ++i)
    for (Index jj = i + 1; jj < n; ++jj) c(i, jj) = c(jj, i);
  return c;
}

void expect_same_bits(const Mat& a, const Mat& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.rows() * a.cols()) * sizeof(double)),
            0)
      << what;
}

TEST(PortShard, StitchGramsOverNonzeroRowsKeepTheBits) {
  // A 130×100 V (three column panels, the last partial) with all-zero
  // rows — one of them all −0.0 — scattered ±0.0 entries and an all-zero
  // column; a right-hand factor with ±Inf and NaN in V's zero rows, which
  // neither kernel may read.
  const Index big_n = 130, n = 100;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat v(big_n, n), rhs(big_n, n);
  Vec j(static_cast<size_t>(big_n));
  for (Index k = 0; k < big_n; ++k) {
    j[static_cast<size_t>(k)] = u(rng) < 0.0 ? -1.0 : 1.0;
    for (Index c = 0; c < n; ++c) {
      v(k, c) = u(rng);
      rhs(k, c) = u(rng);
    }
  }
  for (Index k = 0; k < big_n; k += 7)
    for (Index c = 0; c < n; c += 3) v(k, c) = (c % 2 == 0) ? 0.0 : -0.0;
  for (Index k = 0; k < big_n; ++k) v(k, 61) = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (Index k : {0, 1, 13, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 88, 129}) {
    for (Index c = 0; c < n; ++c) {
      v(k, c) = k == 88 ? -0.0 : 0.0;
      rhs(k, c) = c % 3 == 0 ? inf : c % 3 == 1 ? -inf : std::nan("");
    }
  }
  std::vector<Index> rows;
  for (Index k = 0; k < big_n; ++k)
    for (Index c = 0; c < n; ++c)
      if (v(k, c) != 0.0) {
        rows.push_back(k);
        break;
      }
  ASSERT_EQ(static_cast<Index>(rows.size()), big_n - 16);

  expect_same_bits(detail::sym_gram_signed(v, j, rows), oracle_sym_gram_signed(v, j),
                   "sym_gram_signed");
  const auto fill = [&](Index j0, Index j1) { return rhs.block(0, big_n, j0, j1); };
  const Mat streamed = detail::sym_gram_streamed(v, rows, fill);
  expect_same_bits(streamed, oracle_sym_gram_streamed(v, fill), "sym_gram_streamed");
  for (Index a = 0; a < n; ++a)
    for (Index b = 0; b < n; ++b)
      ASSERT_TRUE(std::isfinite(streamed(a, b))) << "a zero row of V was read";
}

TEST(PortShard, OneShardDelegatesBitIdenticalToMonolithic) {
  const MnaSystem sys = small_package();
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 48;
  opt.shard.shards = 1;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  EXPECT_NE(sharded.model.as_reduced(), nullptr);
  EXPECT_EQ(sharded.shard.shards, 1);
  EXPECT_EQ(sharded.shard.clustering, "monolithic");

  opt.method = ReduceMethod::kSympvl;
  const auto mono = reduce(sys, opt);
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(sharded.status, mono.status);
  EXPECT_EQ(sharded.diagnostics.size(), mono.diagnostics.size());
  for (double f : log_grid(1e6, 1e10, 5)) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat za = sharded.value().eval(s);
    const CMat zb = mono.value().eval(s);
    for (Index i = 0; i < za.rows(); ++i)
      for (Index j = 0; j < za.cols(); ++j)
        EXPECT_EQ(za(i, j), zb(i, j));  // deterministic: bit-identical
  }
}

TEST(PortShard, KShardStitchMatchesMonolithicOnPackage) {
  const MnaSystem sys = small_package();
  ReduceOptions opt;
  // Order past the reachable space: both processes exhaust, both models
  // are exact, so the stitched union must match the monolithic model to
  // stitch-tolerance accuracy.
  opt.order = sys.size();
  const auto mono = reduce(sys, opt);
  ASSERT_TRUE(mono.ok());

  opt.method = ReduceMethod::kShardedSympvl;
  opt.shard.shards = 4;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  ASSERT_NE(sharded.model.as_arnoldi(), nullptr);
  EXPECT_EQ(sharded.shard.shards, 4);
  EXPECT_EQ(sharded.model.port_count(), sys.port_count());

  const Vec freqs = log_grid(1e6, 1e10, 9);
  const SweepResult exact = sweep(sys, freqs);
  const SweepResult zm = sweep(mono.value(), freqs);
  const SweepResult zs = sweep(*sharded.model.as_arnoldi(), freqs);
  for (size_t k = 0; k < freqs.size(); ++k) {
    EXPECT_LT(max_rel_err(zs.values[k], exact.values[k]), 1e-6);
    EXPECT_LT(max_rel_err(zs.values[k], zm.values[k]), 1e-6);
  }
}

TEST(PortShard, KShardStitchMatchesMonolithicOnPeec) {
  PeecOptions popt;
  popt.grid = 5;
  const MnaSystem sys = make_peec_circuit(popt).system;
  ReduceOptions opt;
  opt.order = sys.size();  // exhaustion: both models exact
  const auto mono = reduce(sys, opt);
  ASSERT_TRUE(mono.ok());

  opt.method = ReduceMethod::kShardedSympvl;
  opt.shard.shards = 2;  // one port per shard
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  EXPECT_NE(sharded.model.as_arnoldi(), nullptr);
  EXPECT_EQ(sharded.shard.shard_ports, (std::vector<Index>{1, 1}));

  for (double f : log_grid(1e7, 5e9, 9)) {
    const Complex s(0.0, 2.0 * M_PI * f);
    EXPECT_LT(max_rel_err(sharded.value().eval(s), mono.value().eval(s)), 1e-6)
        << "f = " << f;
  }

  // G is singular at s₀ = 0, so both paths recover through the automatic
  // shift; the sharded priming factorization reports like kSympvl's.
  EXPECT_TRUE(mono.report.recovered);
  EXPECT_EQ(sharded.report.recovered, mono.report.recovered);
  EXPECT_EQ(sharded.report.factor_attempts.size(),
            mono.report.factor_attempts.size());
  EXPECT_EQ(sharded.report.factor_flops, mono.report.factor_flops);
  EXPECT_EQ(sharded.report.factor_fill_ratio, mono.report.factor_fill_ratio);
  EXPECT_EQ(sharded.report.supernode_count, mono.report.supernode_count);
  EXPECT_EQ(sharded.report.simd_level, mono.report.simd_level);
  bool failed_rung = false;
  for (const ReductionIssue& issue : sharded.diagnostics)
    failed_rung = failed_rung || issue.stage == "factor.ldlt";
  EXPECT_TRUE(failed_rung);
}

TEST(PortShard, StitchedModelAccurateAtPartialOrder) {
  // The realistic regime: order well below exhaustion on a many-port
  // grid. The stitched model must track the exact sweep.
  const PowerGridOptions gopt{.ports = 64};
  const MnaSystem sys = build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 64;
  opt.shard.shards = 4;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  ASSERT_NE(sharded.model.as_arnoldi(), nullptr);

  const Vec freqs = log_grid(1e6, 1e9, 7);
  const SweepResult exact = sweep(sys, freqs);
  const SweepResult zs = sweep(*sharded.model.as_arnoldi(), freqs);
  for (size_t k = 0; k < freqs.size(); ++k)
    EXPECT_LT(max_rel_err(zs.values[k], exact.values[k]), 1e-3)
        << "f = " << freqs[k];
}

TEST(PortShard, ShardedRunsAreThreadCountInvariant) {
  const MnaSystem sys = small_package();
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 48;
  opt.shard.shards = 4;

  const Index saved = num_threads();
  set_num_threads(1);
  const ReduceResult serial = reduce(sys, opt);
  set_num_threads(4);
  const ReduceResult parallel = reduce(sys, opt);
  set_num_threads(saved);

  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial.shard.shard_orders, parallel.shard.shard_orders);
  for (double f : log_grid(1e6, 1e10, 5)) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat za = serial.value().eval(s);
    const CMat zb = parallel.value().eval(s);
    for (Index i = 0; i < za.rows(); ++i)
      for (Index j = 0; j < za.cols(); ++j)
        EXPECT_EQ(za(i, j), zb(i, j));  // bit-identical across thread counts
  }
}

TEST(PortShard, SharedFactorizationServesAllShards) {
  const PowerGridOptions gopt{.ports = 64};
  const MnaSystem sys = build_mna(make_power_grid(gopt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 64;
  opt.shard.shards = 4;

  // Every shard runs on the one factorization made before the shards
  // start, so even with no cache to fall back on the run factors once.
  FactorCache uncached;
  uncached.set_enabled(false);
  opt.factor_cache = &uncached;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded.shard.shards, 4);
  EXPECT_EQ(uncached.stats().factorizations, 1u);

  // With the default cache the run's attempt trail holds one successful
  // rung: the shards add none.
  opt.factor_cache = nullptr;
  const ReduceResult cached = reduce(sys, opt);
  ASSERT_TRUE(cached.ok());
  Index accepted = 0;
  for (const FactorAttemptRecord& rec : cached.report.factor_attempts)
    if (rec.success) ++accepted;
  EXPECT_EQ(accepted, 1);
}

}  // namespace
}  // namespace sympvl
