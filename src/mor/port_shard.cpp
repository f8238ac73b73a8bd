#include "mor/port_shard.hpp"
#include "mor/port_shard_stitch.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "fault.hpp"
#include "mor/lanczos.hpp"
#include "mor/pencil.hpp"
#include "mor/pole_residue.hpp"
#include "mor/rational.hpp"
#include "mor/reduce.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {

namespace {

// Floor of the automatic shard-count heuristic: no shard gets fewer ports.
constexpr Index kMinPortsPerShard = 8;

// ---- Partitioning ----------------------------------------------------------

// Anchor node of every port: the row where its B column injects most,
// the first such row on a tie (a two-terminal port's ±1 goes to the
// lower node). One pass over the row-major B: a walk down one column
// strides a whole row per entry.
std::vector<Index> port_anchors(const Mat& b) {
  const Index p = b.cols();
  std::vector<Index> best(static_cast<size_t>(p), 0);
  std::vector<double> best_abs(static_cast<size_t>(p), -1.0);
  for (Index i = 0; i < b.rows(); ++i) {
    const double* row = b.data() + i * p;
    for (Index j = 0; j < p; ++j) {
      const double a = std::abs(row[j]);
      if (a > best_abs[static_cast<size_t>(j)]) {
        best_abs[static_cast<size_t>(j)] = a;
        best[static_cast<size_t>(j)] = i;
      }
    }
  }
  return best;
}

// Undirected adjacency of the combined G/C sparsity pattern (diagonal
// dropped) — the "electrical proximity" graph of the pencil.
std::vector<std::vector<Index>> pencil_adjacency(const SMat& g, const SMat& c) {
  const Index n = g.rows();
  std::vector<std::vector<Index>> adj(static_cast<size_t>(n));
  const auto absorb = [&](const SMat& m) {
    const auto& colptr = m.colptr();
    const auto& rowind = m.rowind();
    for (Index j = 0; j < m.cols(); ++j)
      for (Index k = colptr[static_cast<size_t>(j)];
           k < colptr[static_cast<size_t>(j) + 1]; ++k) {
        const Index i = rowind[static_cast<size_t>(k)];
        if (i == j) continue;
        adj[static_cast<size_t>(i)].push_back(j);
        adj[static_cast<size_t>(j)].push_back(i);
      }
  };
  absorb(g);
  absorb(c);
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

// Multi-source BFS labelling: every node gets the label of the nearest
// seed (first reach wins; ties break toward the earlier seed because the
// queue is processed in seed order). -1 = unreachable.
std::vector<Index> bfs_label(const std::vector<std::vector<Index>>& adj,
                             const std::vector<Index>& seeds) {
  std::vector<Index> label(adj.size(), -1);
  std::queue<Index> q;
  for (size_t s = 0; s < seeds.size(); ++s) {
    const Index node = seeds[s];
    if (label[static_cast<size_t>(node)] >= 0) continue;  // duplicate seed
    label[static_cast<size_t>(node)] = static_cast<Index>(s);
    q.push(node);
  }
  while (!q.empty()) {
    const Index u = q.front();
    q.pop();
    for (Index v : adj[static_cast<size_t>(u)])
      if (label[static_cast<size_t>(v)] < 0) {
        label[static_cast<size_t>(v)] = label[static_cast<size_t>(u)];
        q.push(v);
      }
  }
  return label;
}

// BFS distances from a seed set (for farthest-point seeding).
std::vector<Index> bfs_distance(const std::vector<std::vector<Index>>& adj,
                                const std::vector<Index>& seeds) {
  std::vector<Index> dist(adj.size(), -1);
  std::queue<Index> q;
  for (Index s : seeds) {
    if (dist[static_cast<size_t>(s)] == 0) continue;
    dist[static_cast<size_t>(s)] = 0;
    q.push(s);
  }
  while (!q.empty()) {
    const Index u = q.front();
    q.pop();
    for (Index v : adj[static_cast<size_t>(u)])
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        q.push(v);
      }
  }
  return dist;
}

std::vector<Index> electrical_partition(const MnaSystem& sys, Index shards) {
  const Index p = sys.port_count();
  const std::vector<Index> anchor = port_anchors(sys.B);
  const auto adj = pencil_adjacency(sys.G, sys.C);

  // Farthest-point seeding over the port anchors: seed 0 is port 0's
  // anchor; each next seed is the anchor farthest from the current seed
  // set (unreachable counts as farthest; ties to the lower port index).
  std::vector<Index> seeds{anchor[0]};
  while (static_cast<Index>(seeds.size()) < shards) {
    const std::vector<Index> dist = bfs_distance(adj, seeds);
    Index best_port = -1;
    Index best_dist = -2;
    for (Index j = 0; j < p; ++j) {
      const Index a = anchor[static_cast<size_t>(j)];
      if (std::find(seeds.begin(), seeds.end(), a) != seeds.end()) continue;
      const Index d = dist[static_cast<size_t>(a)];
      const Index score = d < 0 ? std::numeric_limits<Index>::max() : d;
      if (best_port < 0 || score > best_dist) {
        best_port = j;
        best_dist = score;
      }
    }
    if (best_port < 0) break;  // fewer distinct anchors than shards
    seeds.push_back(anchor[static_cast<size_t>(best_port)]);
  }

  const std::vector<Index> label = bfs_label(adj, seeds);
  std::vector<Index> assign(static_cast<size_t>(p));
  for (Index j = 0; j < p; ++j) {
    const Index l = label[static_cast<size_t>(anchor[static_cast<size_t>(j)])];
    // Unreachable anchors (or a seed shortfall) fall back to round-robin.
    assign[static_cast<size_t>(j)] = l >= 0 ? l % shards : j % shards;
  }
  return assign;
}

// ---- Stitch kernels --------------------------------------------------------

// The symmetric Gram products (Ar = VᵀJV, Cr = VᵀM⁻¹CM⁻ᵀV) accumulate
// only the lower block triangle and then mirror — this halves the flops
// AND is the numerical symmetrization. Blocked so the output tile stays
// in L1 while the k-loop streams contiguous row segments of the
// (row-major) inputs; the naive k-outer kernel walks the full n×n
// accumulator once per row, which thrashes at stitch sizes (n ≈ 512 →
// 2 MB per sweep). Both kernels avoid materializing the N×n right-hand
// factor: the J signs fold into the products, and operator columns are
// streamed through one N×panel scratch. Each skips a zero a(k, i), so a
// row of `a` that is all zero adds nothing to any entry: the k-loop runs
// over `rows` alone, and every entry keeps its ascending-k chain of adds.
constexpr Index kStitchPanel = 48;

}  // namespace

namespace detail {

// AᵀJA without materializing J·A: the J entries are exact ±1 signs, and
// folding the sign into the left factor negates the same products, so the
// result is bit-identical to sym_gram(a, J·a) at zero extra memory.
Mat sym_gram_signed(const Mat& a, const Vec& j, const std::vector<Index>& rows) {
  require(a.rows() == static_cast<Index>(j.size()),
          "sym_gram_signed: shape mismatch");
  const Index n = a.cols();
  Mat c(n, n);
  for (Index j0 = 0; j0 < n; j0 += kStitchPanel) {
    const Index j1 = std::min(n, j0 + kStitchPanel);
    for (Index i0 = j0; i0 < n; i0 += kStitchPanel) {
      const Index i1 = std::min(n, i0 + kStitchPanel);
      for (Index k : rows) {
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

// AᵀB with B's columns produced on demand, one kStitchPanel-wide panel at
// a time — sym_gram's blocking and summation order replayed exactly, so
// the result is bit-identical to sym_gram(a, B) while only an N×panel
// block (not the N×n B) is ever resident.
Mat sym_gram_streamed(const Mat& a, const std::vector<Index>& rows,
                      const std::function<Mat(Index, Index)>& fill) {
  const Index n = a.cols();
  Mat c(n, n);
  for (Index j0 = 0; j0 < n; j0 += kStitchPanel) {
    const Index j1 = std::min(n, j0 + kStitchPanel);
    const Mat panel = fill(j0, j1);
    for (Index i0 = j0; i0 < n; i0 += kStitchPanel) {
      const Index i1 = std::min(n, i0 + kStitchPanel);
      for (Index k : rows) {
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

}  // namespace detail

namespace {

// The columns `cols` of `b`, in order, gathered row by row.
Mat gather_columns(const Mat& b, const std::vector<Index>& cols) {
  const Index w = static_cast<Index>(cols.size());
  Mat out(b.rows(), w);
  for (Index i = 0; i < b.rows(); ++i) {
    const double* src = b.data() + i * b.cols();
    double* dst = out.data() + i * w;
    for (Index c = 0; c < w; ++c) dst[c] = src[cols[static_cast<size_t>(c)]];
  }
  return out;
}

// Per-shard outcome collected under the parallel region; slot k is only
// ever written by the chunk that owns shard k.
struct ShardRun {
  bool ok = false;
  Mat basis;          // N×n_k Lanczos vectors (M-transformed coordinates);
                      // released into the stitch's union matrix, after
                      // which `order` keeps the column count
  Index order = 0;    // n_k, outlives the released basis
  Mat rho;            // n_k×p_k starting-block coefficients
  // Lanczos telemetry the run's report sums (or maxes) over the shards.
  double start_block_seconds = 0.0;
  double lanczos_seconds = 0.0;
  obs::HistogramBins step_bins;  // the process's lanczos.step durations
  Index deflations = 0;
  std::int64_t krylov_peak_bytes = 0;
  bool breakdown = false;
  ReductionIssue issue;  // valid when !ok
  bool failed = false;
};

}  // namespace

Index resolve_shard_count(const PortShardOptions& options, Index ports) {
  Index k = options.shards;
  if (k <= 0)
    k = ports < 2 * kMinPortsPerShard
            ? 1
            : std::clamp<Index>(ports / 32, 2, ports / kMinPortsPerShard);
  return std::clamp<Index>(k, 1, std::max<Index>(ports, 1));
}

std::vector<Index> partition_ports(const MnaSystem& sys, Index shards,
                                   ShardClustering clustering) {
  const Index p = sys.port_count();
  require(shards >= 1 && shards <= p, ErrorCode::kInvalidArgument,
          "partition_ports: shard count out of range");
  if (shards == 1) return std::vector<Index>(static_cast<size_t>(p), 0);
  if (clustering == ShardClustering::kRoundRobin) {
    std::vector<Index> assign(static_cast<size_t>(p));
    for (Index j = 0; j < p; ++j) assign[static_cast<size_t>(j)] = j % shards;
    return assign;
  }
  return electrical_partition(sys, shards);
}

namespace detail {

ReduceResult sharded_sympvl_reduce(const MnaSystem& sys,
                                   const SympvlOptions& options, Index shards) {
  const Index p = sys.port_count();
  require(shards >= 2 && shards <= std::min(p, options.order),
          ErrorCode::kInvalidArgument,
          "sharded_sympvl_reduce: shard count must be in [2, min(ports, "
          "order)]");
  ReduceResult out;

  // ---- Partition B's columns and budget the shard orders. ----
  obs::ScopedTimer partition_span("shard.partition");
  partition_span.arg("ports", p);
  partition_span.arg("shards", shards);
  std::vector<Index> assign =
      partition_ports(sys, shards, options.shard.clustering);
  out.shard.shards = shards;
  out.shard.clustering =
      options.shard.clustering == ShardClustering::kRoundRobin ? "round_robin"
                                                               : "electrical";
  // Global port list per shard (in ascending port order — determinism).
  std::vector<std::vector<Index>> shard_cols(static_cast<size_t>(shards));
  for (Index j = 0; j < p; ++j)
    shard_cols[static_cast<size_t>(assign[static_cast<size_t>(j)])].push_back(j);
  // Electrical clustering can leave a shard empty (fewer distinct anchor
  // regions than shards); rebalance those from round-robin so every
  // shard carries work.
  for (Index k = 0; k < shards; ++k)
    if (shard_cols[static_cast<size_t>(k)].empty()) {
      for (Index j = 0; j < p; ++j)
        if (j % shards == k &&
            shard_cols[static_cast<size_t>(assign[static_cast<size_t>(j)])]
                    .size() > 1) {
          auto& from =
              shard_cols[static_cast<size_t>(assign[static_cast<size_t>(j)])];
          from.erase(std::find(from.begin(), from.end(), j));
          assign[static_cast<size_t>(j)] = k;
          shard_cols[static_cast<size_t>(k)].push_back(j);
          break;
        }
    }
  out.shard.port_to_shard = assign;
  out.shard.shard_ports.resize(static_cast<size_t>(shards));
  for (Index k = 0; k < shards; ++k)
    out.shard.shard_ports[static_cast<size_t>(k)] =
        static_cast<Index>(shard_cols[static_cast<size_t>(k)].size());
  // Per-shard order budget ∝ shard width (largest-remainder rounding,
  // every live shard gets at least 1; deterministic).
  std::vector<Index> shard_order(static_cast<size_t>(shards), 0);
  {
    Index assigned = 0;
    std::vector<std::pair<double, Index>> frac;
    for (Index k = 0; k < shards; ++k) {
      const Index pk = out.shard.shard_ports[static_cast<size_t>(k)];
      if (pk == 0) continue;
      const double share = static_cast<double>(options.order) *
                           static_cast<double>(pk) / static_cast<double>(p);
      Index base = std::max<Index>(static_cast<Index>(share), 1);
      shard_order[static_cast<size_t>(k)] = base;
      assigned += base;
      frac.emplace_back(share - static_cast<double>(base), k);
    }
    std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (size_t i = 0; assigned < options.order && !frac.empty(); ++i) {
      shard_order[static_cast<size_t>(frac[i % frac.size()].second)] += 1;
      ++assigned;
    }
  }
  out.shard.partition_seconds = partition_span.close();

  // ---- Factor the pencil once (the reduction ladder). Every shard runs
  //      its Lanczos process on this one factorization. ----
  obs::ScopedTimer factor_span("shard.factor");
  factor_span.arg("n", sys.size());
  PencilFactorResult primed;
  try {
    primed = factor_pencil(
        sys, factor_request(options, "sharded_sympvl", "shard.factor"));
  } catch (const Error& e) {
    out.status = ReductionStatus::kFailed;
    out.diagnostics.push_back(ReductionIssue::from_error(e));
    return out;
  }
  record_factor_result(primed, factor_span.close(), &out.report);
  const double s0_used = primed.s0_used;

  // ---- Per-shard SyMPVL over the thread pool. ----
  std::vector<ShardRun> runs(static_cast<size_t>(shards));
  {
    obs::ScopedTimer span("shard.reduce");
    span.arg("shards", shards);
    parallel_for_chunks(0, shards, [&](Index /*rank*/, Index kb, Index ke) {
      for (Index k = kb; k < ke; ++k) {
        ShardRun& run = runs[static_cast<size_t>(k)];
        const auto& cols = shard_cols[static_cast<size_t>(k)];
        if (cols.empty()) continue;  // zero-width shard: nothing to do
        try {
          // Injected-fault site for the containment tests: one shard's
          // process dies, the others must finish and the run reports
          // kTruncated with this shard in diagnostics.
          fault::check("sympvl.delta", k);

          Mat start;
          {
            obs::ScopedTimer span("sympvl.start_block");
            span.arg("ports", static_cast<Index>(cols.size()));
            start = starting_block(*primed.pencil, gather_columns(sys.B, cols));
            run.start_block_seconds = span.close();
          }

          const Index order = shard_order[static_cast<size_t>(k)];
          BandLanczos lanczos(*primed.pencil, start,
                              primed.pencil->j_signs(),
                              lanczos_options(options, order));
          {
            obs::ScopedTimer span("sympvl.lanczos");
            span.arg("target_order", order);
            lanczos.run_to(order);
            run.lanczos_seconds = span.close();
          }
          run.step_bins = lanczos.step_bins();
          // Destructive grab: the Lanczos vectors are freed as they stream
          // into run.basis, so a shard never holds two copies. It drops
          // the queued candidates unformed — the stitch reads only the
          // basis, ρ and the counts — so result() is read after it: read
          // first, it would form them to complete a T nobody reads.
          run.basis = lanczos.take_basis();
          run.order = run.basis.cols();
          LanczosResult snap = lanczos.result();
          run.rho = std::move(snap.rho);
          run.deflations = snap.deflations;
          run.breakdown = snap.diagnosis.breakdown;
          run.krylov_peak_bytes = lanczos.krylov_peak_bytes();
          run.ok = run.order > 0;
          if (!run.ok) {
            run.failed = true;
            run.issue.code = ErrorCode::kBreakdown;
            run.issue.stage = "shard." + std::to_string(k);
            run.issue.message = "shard produced no healthy Lanczos vectors";
          }
        } catch (const Error& e) {
          run.failed = true;
          run.issue = ReductionIssue::from_error(e);
          run.issue.stage = "shard." + std::to_string(k) +
                            (run.issue.stage.empty() ? "" : ".") +
                            run.issue.stage;
          if (run.issue.index < 0) run.issue.index = k;
        } catch (const std::exception& e) {
          run.failed = true;
          run.issue.code = ErrorCode::kUnknown;
          run.issue.stage = "shard." + std::to_string(k);
          run.issue.message = e.what();
          run.issue.index = k;
        }
      }
    });
    out.shard.reduce_seconds = span.close();
  }
  obs::counter("shard.runs").add(static_cast<double>(shards));

  out.shard.shard_orders.assign(static_cast<size_t>(shards), 0);
  Index n_total = 0;
  bool any_breakdown = false;
  obs::HistogramBins step_bins;
  for (Index k = 0; k < shards; ++k) {
    const ShardRun& run = runs[static_cast<size_t>(k)];
    if (run.ok) {
      out.shard.shard_orders[static_cast<size_t>(k)] = run.order;
      n_total += run.order;
      out.report.lanczos_seconds += run.lanczos_seconds;
      out.report.start_block_seconds += run.start_block_seconds;
      out.report.deflations += run.deflations;
      out.report.krylov_peak_bytes =
          std::max(out.report.krylov_peak_bytes, run.krylov_peak_bytes);
      step_bins.merge(run.step_bins);
      if (run.breakdown) any_breakdown = true;
    } else if (run.failed) {
      out.shard.failed_shards.push_back(k);
      out.diagnostics.push_back(run.issue);
      obs::counter("shard.failures").add();
    }
  }

  out.report.lanczos_step_stats = obs::latency_stats(step_bins);

  if (n_total == 0) {
    out.status = ReductionStatus::kFailed;
    return out;
  }

  // ---- Stitch: union congruence model in M-transformed coordinates. ----
  obs::ScopedTimer stitch_span("shard.stitch");
  stitch_span.arg("order", n_total);
  {
    const Index big_n = sys.size();
    const Vec& j = primed.pencil->j_signs();
    Mat v(big_n, n_total);
    // The union basis plus one J·Op·V panel is the stitch's working set:
    // the per-shard bases are released once copied into the union, and
    // no full J·V / J·Op·V copy is made.
    obs::MemCharge stitch_charge(
        obs::byte_gauge("mem.stitch_bytes"),
        static_cast<std::int64_t>(big_n) *
            (n_total + std::min<Index>(n_total, kStitchPanel)) *
            static_cast<std::int64_t>(sizeof(double)));
    std::vector<Index> offset(static_cast<size_t>(shards), 0);
    for (Index k = 0, at = 0; k < shards; ++k) {
      const ShardRun& run = runs[static_cast<size_t>(k)];
      offset[static_cast<size_t>(k)] = at;
      if (run.ok) at += run.order;
    }
    // The union basis, copied row by row while listing the rows of V
    // that hold a nonzero. A shard's Krylov vectors are port-local, so
    // most rows of V are zero, and the Gram kernels skip those exactly.
    std::vector<Index> rows;
    for (Index i = 0; i < big_n; ++i) {
      double* dst = v.data() + i * n_total;
      bool nonzero = false;
      for (Index k = 0; k < shards; ++k) {
        const ShardRun& run = runs[static_cast<size_t>(k)];
        if (!run.ok) continue;
        const double* src = run.basis.data() + i * run.order;
        double* out_row = dst + offset[static_cast<size_t>(k)];
        for (Index c = 0; c < run.order; ++c) {
          out_row[c] = src[c];
          nonzero |= src[c] != 0.0;
        }
      }
      if (nonzero) rows.push_back(i);
    }
    for (ShardRun& run : runs)
      run.basis = Mat();  // release: the union matrix owns the data now

    // Ar = VᵀJV  — the union Gram of the shifted pencil: with Q = M⁻ᵀV,
    // Qᵀ(G+s₀C)Q = VᵀM⁻¹(MJMᵀ)M⁻ᵀV = VᵀJV. The J signs are folded into
    // the Gram kernel, so no N×n_total J·V copy is materialized.
    const Mat ar = sym_gram_signed(v, j, rows);

    // Cr = QᵀCQ = VᵀJ·(OpV) with Op = J⁻¹M⁻¹CM⁻ᵀ — one blocked operator
    // apply per kStitchPanel columns of V against the shared
    // factorization, J-scaled in place into the panel the Gram streams,
    // instead of a full N×n_total J·Op·V.
    const Mat cr = sym_gram_streamed(v, rows, [&](Index j0, Index j1) {
      Mat panel = primed.pencil->apply_block(v.block(0, big_n, j0, j1));
      const Index w = panel.cols();
      for (Index i = 0; i < big_n; ++i) {
        double* row = panel.data() + i * w;
        for (Index c = 0; c < w; ++c) row[c] = j[static_cast<size_t>(i)] * row[c];
      }
      return panel;
    });

    // Br = QᵀB = VᵀM⁻¹B. For a healthy shard the Lanczos relation
    // R_k = V_kρ_k gives M⁻¹B_k = J·V_kρ_k, so the block is
    // Ar(:, shard k)·ρ_k — a small GEMM, no N-dimensional work. Failed
    // shards keep exact columns via a fresh starting block.
    Mat br(n_total, p);
    for (Index k = 0; k < shards; ++k) {
      const ShardRun& run = runs[static_cast<size_t>(k)];
      const auto& cols = shard_cols[static_cast<size_t>(k)];
      if (cols.empty()) continue;
      Mat block;
      if (run.ok) {
        const Index off = offset[static_cast<size_t>(k)];
        block = ar.block(0, n_total, off, off + run.order) * run.rho;
      } else {
        Mat jstart =
            starting_block(*primed.pencil, gather_columns(sys.B, cols));
        for (Index i = 0; i < big_n; ++i) {
          double* row = jstart.data() + i * jstart.cols();
          for (Index c = 0; c < jstart.cols(); ++c)
            row[c] *= j[static_cast<size_t>(i)];
        }
        block = matmul_transA(v, jstart);
      }
      for (size_t c = 0; c < cols.size(); ++c)
        for (Index r = 0; r < n_total; ++r)
          br(r, cols[c]) = block(r, static_cast<Index>(c));
    }

    // Fast path: CholQR whitening of the union Gram. Valid when J is
    // definite (Ar is then SPD up to cross-shard rank deficiency, which
    // the pivot guard detects); the whitened model is
    //   ḡ = I, c̄ = L⁻¹CrL⁻ᵀ, b̄ = L⁻¹Br with Ar = LLᵀ,
    // equivalent to (Ar, Cr, Br) but conditioned for evaluation: its
    // pole–residue form is one symmetric eig of c̄, no Cholesky.
    Mat chol;
    const bool definite_j = primed.pencil->negative_j() == 0;
    if (definite_j &&
        guarded_cholesky(ar, options.shard.stitch_tol, &chol)) {
      Mat cw = cr;
      solve_lower_inplace(chol, &cw);
      cw = cw.transpose();
      solve_lower_inplace(chol, &cw);
      for (Index i = 0; i < n_total; ++i)
        for (Index jj = i + 1; jj < n_total; ++jj)
          cw(i, jj) = cw(jj, i) = 0.5 * (cw(i, jj) + cw(jj, i));
      solve_lower_inplace(chol, &br);
      out.model = MacroModel(ArnoldiModel(Mat::identity(n_total),
                                          std::move(cw), std::move(br),
                                          sys.variable, sys.s_prefactor,
                                          s0_used));
      out.shard.stitched_order = n_total;
    } else {
      // Robust path (indefinite J, or near-dependent shard spans): map
      // the union basis back to physical coordinates W = M⁻ᵀV, MGS it
      // down to an orthonormal basis, and congruence-project the
      // original pencil — the machinery shared with rational_reduce.
      out.shard.used_fallback_stitch = true;
      std::vector<Vec> basis;
      for (Index k = 0; k < shards; ++k) {
        const ShardRun& run = runs[static_cast<size_t>(k)];
        if (!run.ok) continue;
        const Index off = offset[static_cast<size_t>(k)];
        const Mat w =
            primed.pencil->solve_mt(v.block(0, big_n, off, off + run.order));
        std::vector<Vec> block;
        for (Index c = 0; c < run.order; ++c) block.push_back(w.col(c));
        mgs_union_append(basis, std::move(block), options.shard.stitch_tol);
      }
      // At exhaustion (as many union vectors as unknowns) the union should
      // span the whole space, where the projected model is exact. A
      // vector deflated there sat at the rounding floor — the sign of a
      // noise-level Gram pivot decided it — so complete the basis from
      // the unit vectors rather than let rounding decide exactness.
      if (n_total >= big_n)
        for (Index i = 0; i < big_n && static_cast<Index>(basis.size()) < big_n;
             ++i) {
          Vec e(static_cast<size_t>(big_n), 0.0);
          e[static_cast<size_t>(i)] = 1.0;
          mgs_union_append(basis, {std::move(e)}, options.shard.stitch_tol);
        }
      if (basis.empty()) {
        out.status = ReductionStatus::kFailed;
        ReductionIssue issue;
        issue.code = ErrorCode::kBreakdown;
        issue.stage = "shard.stitch";
        issue.message =
            "sharded_sympvl_reduce: union basis deflated to nothing";
        out.diagnostics.push_back(issue);
        return out;
      }
      out.shard.stitch_dropped =
          n_total - static_cast<Index>(basis.size());
      out.shard.stitched_order = static_cast<Index>(basis.size());
      out.model = MacroModel(congruence_project(sys, basis));
    }
    out.shard.stitch_bytes = stitch_charge.bytes();
  }
  out.shard.stitch_seconds = stitch_span.close();

  out.report.achieved_order = out.shard.stitched_order;
  out.report.breakdown = any_breakdown;
  out.report.total_seconds = out.report.factor_seconds +
                             out.shard.partition_seconds +
                             out.shard.reduce_seconds +
                             out.shard.stitch_seconds;
  out.status = (!out.shard.failed_shards.empty() || any_breakdown)
                   ? ReductionStatus::kTruncated
                   : ReductionStatus::kOk;
  out.report.peak_rss_bytes = obs::peak_rss_bytes();
  obs::instant("shard.result",
               {obs::arg("shards", shards),
                obs::arg("failed",
                         static_cast<Index>(out.shard.failed_shards.size())),
                obs::arg("order", out.shard.stitched_order),
                obs::arg("status", reduction_status_name(out.status))});
  return out;
}

}  // namespace detail

}  // namespace sympvl
