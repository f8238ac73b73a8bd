#include "mor/port_shard.hpp"
#include "mor/port_shard_stitch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "fault.hpp"
#include "mor/lanczos.hpp"
#include "mor/pencil.hpp"
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

// Anchor node of port j: the row where its B column injects most.
Index port_anchor(const Mat& b, Index j) {
  Index best = 0;
  double best_abs = -1.0;
  for (Index i = 0; i < b.rows(); ++i) {
    const double a = std::abs(b(i, j));
    if (a > best_abs) {
      best_abs = a;
      best = i;
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
  std::vector<Index> anchor(static_cast<size_t>(p));
  for (Index j = 0; j < p; ++j)
    anchor[static_cast<size_t>(j)] = port_anchor(sys.B, j);
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
// streamed through one N×panel scratch.
constexpr Index kStitchPanel = 48;

// AᵀJA without materializing J·A: the J entries are exact ±1 signs, and
// folding the sign into the left factor negates the same products, so the
// result is bit-identical to sym_gram(a, J·a) at zero extra memory.
Mat sym_gram_signed(const Mat& a, const Vec& j) {
  require(a.rows() == static_cast<Index>(j.size()),
          "sym_gram_signed: shape mismatch");
  const Index big_n = a.rows();
  const Index n = a.cols();
  Mat c(n, n);
  for (Index j0 = 0; j0 < n; j0 += kStitchPanel) {
    const Index j1 = std::min(n, j0 + kStitchPanel);
    for (Index i0 = j0; i0 < n; i0 += kStitchPanel) {
      const Index i1 = std::min(n, i0 + kStitchPanel);
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

// AᵀB with B's columns produced on demand, one kStitchPanel-wide panel at
// a time — sym_gram's blocking and summation order replayed exactly, so
// the result is bit-identical to sym_gram(a, B) while only an N×panel
// scratch (not the N×n B) is ever resident.
template <typename FillColumn>
Mat sym_gram_streamed(const Mat& a, FillColumn fill) {
  const Index big_n = a.rows();
  const Index n = a.cols();
  Mat c(n, n);
  Mat panel(big_n, std::min<Index>(n, kStitchPanel));
  Vec col(static_cast<size_t>(big_n));
  for (Index j0 = 0; j0 < n; j0 += kStitchPanel) {
    const Index j1 = std::min(n, j0 + kStitchPanel);
    for (Index jj = j0; jj < j1; ++jj) {
      fill(jj, col);
      for (Index i = 0; i < big_n; ++i)
        panel(i, jj - j0) = col[static_cast<size_t>(i)];
    }
    for (Index i0 = j0; i0 < n; i0 += kStitchPanel) {
      const Index i1 = std::min(n, i0 + kStitchPanel);
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

// Pivot-guarded lower Cholesky of a symmetric matrix. Returns false
// (leaving `l` unspecified) when any pivot falls below tol·max|diag| —
// the union Gram is then numerically rank deficient and the caller must
// take the robust MGS stitch instead of trusting the whitening.
bool guarded_cholesky(const Mat& a, double tol, Mat* l) {
  const Index n = a.rows();
  double max_diag = 0.0;
  for (Index i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  if (max_diag <= 0.0) return false;
  *l = Mat(n, n);
  Mat& ll = *l;
  for (Index j = 0; j < n; ++j) {
    double d = a(j, j);
    for (Index k = 0; k < j; ++k) d -= ll(j, k) * ll(j, k);
    if (!(d > tol * max_diag)) return false;
    const double root = std::sqrt(d);
    ll(j, j) = root;
    for (Index i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (Index k = 0; k < j; ++k) s -= ll(i, k) * ll(j, k);
      ll(i, j) = s / root;
    }
  }
  return true;
}

// X := L⁻¹X (forward substitution, every column).
void solve_lower_inplace(const Mat& l, Mat* x) {
  const Index n = l.rows();
  const Index m = x->cols();
  Mat& xx = *x;
  for (Index i = 0; i < n; ++i) {
    const double d = l(i, i);
    for (Index c = 0; c < m; ++c) {
      double s = xx(i, c);
      for (Index k = 0; k < i; ++k) s -= l(i, k) * xx(k, c);
      xx(i, c) = s / d;
    }
  }
}

// The columns `cols` of `b`, in order.
Mat gather_columns(const Mat& b, const std::vector<Index>& cols) {
  Mat out(b.rows(), static_cast<Index>(cols.size()));
  for (size_t c = 0; c < cols.size(); ++c)
    for (Index i = 0; i < b.rows(); ++i)
      out(i, static_cast<Index>(c)) = b(i, cols[c]);
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
  out.shard.port_to_shard = assign;
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
  Index widest = 1;
  out.shard.shard_ports.resize(static_cast<size_t>(shards));
  for (Index k = 0; k < shards; ++k) {
    const Index pk =
        static_cast<Index>(shard_cols[static_cast<size_t>(k)].size());
    out.shard.shard_ports[static_cast<size_t>(k)] = pk;
    widest = std::max(widest, pk);
  }
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

  // ---- Factor the pencil once (full SyMPVL ladder). Every shard runs
  //      its Lanczos process on this one factorization. ----
  obs::ScopedTimer factor_span("shard.factor");
  factor_span.arg("n", sys.size());
  PencilFactorRequest req;
  req.s0 = options.s0;
  req.auto_shift = options.auto_shift;
  req.ordering = options.ordering;
  req.full_ladder = true;
  req.allow_dense = true;
  req.driver = "sharded_sympvl";
  req.stage = "shard.factor";
  req.cache = options.factor_cache;
  req.kernels = options.kernel;
  // The shards' blocked solves are at most `widest` columns wide.
  req.rhs_width = widest;
  PencilFactorResult primed;
  try {
    primed = factor_pencil(sys, req);
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
    span.arg("widest", widest);
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
          LanczosOptions lopt;
          lopt.max_order = order;
          lopt.deflation_tol = options.deflation_tol;
          lopt.lookahead_tol = options.lookahead_tol;
          lopt.full_reorthogonalization = options.full_reorthogonalization;
          lopt.max_cluster_size = options.max_cluster_size;
          BandLanczos lanczos(*primed.pencil, start,
                              primed.pencil->j_signs(), lopt);
          {
            obs::ScopedTimer span("sympvl.lanczos");
            span.arg("target_order", order);
            lanczos.run_to(order);
            run.lanczos_seconds = span.close();
          }
          LanczosResult snap = lanczos.result();
          run.rho = std::move(snap.rho);
          run.deflations = snap.deflations;
          run.breakdown = snap.diagnosis.breakdown;
          run.krylov_peak_bytes = lanczos.krylov_peak_bytes();
          // Destructive grab: the Lanczos vectors are freed as they stream
          // into run.basis, so a shard never holds two copies.
          run.basis = lanczos.take_basis();
          run.order = run.basis.cols();
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
      if (run.breakdown) any_breakdown = true;
    } else if (run.failed) {
      out.shard.failed_shards.push_back(k);
      out.diagnostics.push_back(run.issue);
      obs::counter("shard.failures").add();
    }
  }

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
    // The union basis plus one J·Op·V panel is the stitch's working set;
    // the per-shard bases are released as they stream in, so the peak is
    // ~one union basis, not two (and no full J·V / J·Op·V copies).
    obs::MemCharge stitch_charge(
        obs::byte_gauge("mem.stitch_bytes"),
        static_cast<std::int64_t>(big_n) *
            (n_total + std::min<Index>(n_total, kStitchPanel)) *
            static_cast<std::int64_t>(sizeof(double)));
    std::vector<Index> offset(static_cast<size_t>(shards), 0);
    {
      Index at = 0;
      for (Index k = 0; k < shards; ++k) {
        ShardRun& run = runs[static_cast<size_t>(k)];
        offset[static_cast<size_t>(k)] = at;
        if (!run.ok) continue;
        for (Index c = 0; c < run.order; ++c)
          for (Index i = 0; i < big_n; ++i) v(i, at + c) = run.basis(i, c);
        at += run.order;
        run.basis = Mat();  // release: the union matrix owns the data now
      }
    }

    // Ar = VᵀJV  — the union Gram of the shifted pencil: with Q = M⁻ᵀV,
    // Qᵀ(G+s₀C)Q = VᵀM⁻¹(MJMᵀ)M⁻ᵀV = VᵀJV. The J signs are folded into
    // the Gram kernel, so no N×n_total J·V copy is materialized.
    const Mat ar = sym_gram_signed(v, j);

    // Cr = QᵀCQ = VᵀJ·(OpV) with Op = J⁻¹M⁻¹CM⁻ᵀ — n_total extra
    // operator applications against the shared factorization, streamed
    // through one N×panel scratch instead of a full N×n_total J·Op·V.
    const Mat cr = sym_gram_streamed(v, [&](Index c, Vec& out_col) {
      const Vec w = primed.pencil->apply(v.col(c));
      for (Index i = 0; i < big_n; ++i)
        out_col[static_cast<size_t>(i)] =
            j[static_cast<size_t>(i)] * w[static_cast<size_t>(i)];
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
    // equivalent to (Ar, Cr, Br) but conditioned for evaluation.
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
        std::vector<Vec> block;
        const Index off = offset[static_cast<size_t>(k)];
        for (Index c = 0; c < run.order; ++c)
          block.push_back(primed.pencil->solve_mt(v.col(off + c)));
        mgs_union_append(basis, std::move(block), options.shard.stitch_tol);
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
