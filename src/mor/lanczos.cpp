#include "mor/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "fault.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// vᵀJw = Σ v[i]·(w[i]·j[i]) in dot()'s sequential order, without forming
// Jw. Each j[i] is ±1, so w[i]·j[i] is exact and the sum carries the bits
// of dot(v, Jw).
double dot_j(const Vec& v, const Vec& w, const Vec& j) {
  double s = 0.0;
  for (size_t i = 0; i < v.size(); ++i) s += v[i] * (w[i] * j[i]);
  return s;
}

}  // namespace

BandLanczos::BandLanczos(const SymmetricOperator& op, const Mat& start,
                         Vec j_signs, const LanczosOptions& options)
    : op_(&op),
      j_signs_(std::move(j_signs)),
      options_(options),
      big_n_(start.rows()),
      p_(start.cols()) {
  require(p_ >= 1, "BandLanczos: empty starting block");
  require(static_cast<Index>(j_signs_.size()) == big_n_,
          "BandLanczos: j_signs size mismatch");
  for (double j : j_signs_)
    require(j == 1.0 || j == -1.0, "BandLanczos: J entries must be ±1");

  t_full_.resize(std::max<Index>(16, 2 * p_), std::max<Index>(16, 2 * p_));
  rho_full_.resize(std::max<Index>(16, 2 * p_), p_);
  clusters_.emplace_back();  // the first (open) cluster

  for (Index i = 0; i < p_; ++i) {
    Candidate c;
    c.v = start.col(i);
    c.src = i - p_;
    c.ref_norm = norm2(c.v);  // deflation is relative to the candidate's
                              // own scale (scale-invariant test)
    cand_.push_back(std::move(c));
  }
  krylov_charge_ = obs::MemCharge(obs::byte_gauge("mem.krylov_bytes"),
                                  krylov_bytes());
  krylov_peak_bytes_ = krylov_charge_.bytes();
}

std::int64_t BandLanczos::krylov_bytes() const {
  auto vec_bytes = [](const Vec& v) {
    return static_cast<std::int64_t>(v.size() * sizeof(double));
  };
  auto mat_bytes = [](const Mat& m) {
    return static_cast<std::int64_t>(m.rows()) *
           static_cast<std::int64_t>(m.cols()) *
           static_cast<std::int64_t>(sizeof(double));
  };
  std::int64_t b = vec_bytes(j_signs_) + mat_bytes(t_full_) +
                   mat_bytes(rho_full_);
  for (const Vec& v : vs_) b += vec_bytes(v);
  for (const Candidate& c : cand_) b += vec_bytes(c.v);
  for (const Cluster& cl : clusters_)
    b += mat_bytes(cl.delta) + mat_bytes(cl.delta_inv);
  return b;
}

void BandLanczos::grow_storage(Index need) {
  if (need < t_full_.rows()) return;
  const Index cap = std::max<Index>(2 * t_full_.rows(), need + 1);
  Mat t_new(cap, cap);
  for (Index i = 0; i < t_full_.rows(); ++i)
    for (Index j = 0; j < t_full_.cols(); ++j) t_new(i, j) = t_full_(i, j);
  t_full_ = std::move(t_new);
  Mat r_new(cap, p_);
  for (Index i = 0; i < rho_full_.rows(); ++i)
    for (Index j = 0; j < p_; ++j) r_new(i, j) = rho_full_(i, j);
  rho_full_ = std::move(r_new);
}

void BandLanczos::write_t(Index row, Index src, double value) {
  grow_storage(std::max(row, src) + 1);
  if (src >= 0)
    t_full_(row, src) += value;
  else
    rho_full_(row, src + p_) += value;
}

// J-orthogonalizes `w` (tagged `src`) against a closed cluster:
// coeff = Δ⁻¹ V^(γ)ᵀ J w;  w -= V^(γ)·coeff;  record into T/ρ column src.
void BandLanczos::orthogonalize_against(Vec& w, Index src, const Cluster& cl) {
  const Index m = static_cast<Index>(cl.members.size());
  Vec proj(static_cast<size_t>(m));
  for (Index a = 0; a < m; ++a)
    proj[static_cast<size_t>(a)] = dot_j(
        vs_[static_cast<size_t>(cl.members[static_cast<size_t>(a)])], w, j_signs_);
  const Vec coeff = cl.delta_inv * proj;
  for (Index a = 0; a < m; ++a) {
    const Index j = cl.members[static_cast<size_t>(a)];
    axpy(-coeff[static_cast<size_t>(a)], vs_[static_cast<size_t>(j)], w);
    write_t(j, src, coeff[static_cast<size_t>(a)]);
  }
}

bool BandLanczos::step() {
  if (diagnosis_.breakdown) return false;  // sticky until a rebuild/reshift
  if (cand_.empty()) return false;

  // ---- Step 1: deflate candidates until one is accepted. ----
  Cluster& open = clusters_.back();
  bool accepted = false;
  Candidate current;
  while (!cand_.empty()) {
    current = std::move(cand_.front());
    cand_.pop_front();
    // 1b: Euclidean orthogonalization against the open cluster members
    // (J-projection is not available while Δ^(γ) is singular).
    for (Index i : open.members) {
      const double tau = dot(vs_[static_cast<size_t>(i)], current.v) /
                         dot(vs_[static_cast<size_t>(i)], vs_[static_cast<size_t>(i)]);
      axpy(-tau, vs_[static_cast<size_t>(i)], current.v);
      write_t(i, current.src, tau);
    }
    const double nrm = norm2(current.v);
    if (current.ref_norm > 0.0 &&
        nrm > options_.deflation_tol * current.ref_norm) {
      accepted = true;
      // 1h: normalize.
      write_t(static_cast<Index>(vs_.size()), current.src, nrm);
      scale(current.v, 1.0 / nrm);
      break;
    }
    // 1c-1g: deflate.
    ++deflations_;
    obs::instant("lanczos.deflation",
                 {obs::arg("norm", nrm), obs::arg("ref_norm", current.ref_norm),
                  obs::arg("deflation_tol", options_.deflation_tol),
                  obs::arg("src", current.src),
                  obs::arg("iteration", static_cast<Index>(vs_.size()))});
    static obs::Counter& c_deflations = obs::counter("lanczos.deflations");
    c_deflations.add();
    if (cand_.empty()) {
      // 1d: the last candidate deflated — Krylov space exhausted, the
      // reduced model is exact.
      exhausted_ = true;
      obs::instant("lanczos.exhausted",
                   {obs::arg("order", static_cast<Index>(vs_.size()))});
      break;
    }
    if (current.src >= 0 && nrm > 0.0)
      inexact_clusters_.insert(vec_cluster_[static_cast<size_t>(current.src)]);
  }
  if (!accepted) return false;

  const Index n_new = static_cast<Index>(vs_.size());
  vs_.push_back(std::move(current.v));
  // 1i: cluster bookkeeping.
  if (open.members.empty())
    obs::instant("lanczos.cluster_open",
                 {obs::arg("cluster", static_cast<Index>(clusters_.size()) - 1),
                  obs::arg("iteration", n_new)});
  if (open.members.empty()) {
    const Index source_idx = std::max<Index>(0, current.src);
    gamma_v_ = vec_cluster_.empty()
                   ? 0
                   : vec_cluster_[static_cast<size_t>(
                         std::min<Index>(source_idx,
                                         static_cast<Index>(vec_cluster_.size()) - 1))];
  }
  open.members.push_back(n_new);
  vec_cluster_.push_back(static_cast<Index>(clusters_.size()) - 1);

  // ---- Step 2: Gram matrix of the open cluster; close if nonsingular. --
  {
    const Index m = static_cast<Index>(open.members.size());
    open.delta.resize(m, m);
    for (Index a = 0; a < m; ++a) {
      const Vec& va = vs_[static_cast<size_t>(open.members[static_cast<size_t>(a)])];
      for (Index b = 0; b < m; ++b)
        open.delta(a, b) = dot_j(
            vs_[static_cast<size_t>(open.members[static_cast<size_t>(b)])], va,
            j_signs_);
    }
    // Symmetrize rounding noise.
    for (Index a = 0; a < m; ++a)
      for (Index b = a + 1; b < m; ++b) {
        const double mid = 0.5 * (open.delta(a, b) + open.delta(b, a));
        open.delta(a, b) = mid;
        open.delta(b, a) = mid;
      }
    const SymmetricEig eig = eig_symmetric(open.delta);
    double min_abs = std::abs(eig.values.front());
    double max_abs = min_abs;
    for (double l : eig.values) {
      min_abs = std::min(min_abs, std::abs(l));
      max_abs = std::max(max_abs, std::abs(l));
    }
    // Fault site "lanczos.delta": pretend the δ-pivot test failed at this
    // iteration, forcing the cluster to stay open (breakdown drill).
    if (fault::active() && fault::triggered("lanczos.delta", n_new))
      min_abs = 0.0;
    if (min_abs > options_.lookahead_tol) {
      // 2c: close the cluster and J-orthogonalize every queued candidate
      // against it.
      open.delta_inv = dense_solve(open.delta, Mat::identity(m));
      open.closed = true;
      if (m > 1) ++lookahead_clusters_;
      // δ-pivot conditioning of the cluster Gram matrix: min/max |λ(Δ^(γ))|.
      obs::instant(
          "lanczos.cluster_close",
          {obs::arg("cluster", static_cast<Index>(clusters_.size()) - 1),
           obs::arg("size", m), obs::arg("min_abs_eig", min_abs),
           obs::arg("delta_cond", max_abs > 0.0 ? min_abs / max_abs : 0.0),
           obs::arg("lookahead", static_cast<Index>(m > 1 ? 1 : 0))});
      for (auto& c : cand_) orthogonalize_against(c.v, c.src, open);
      clusters_.emplace_back();  // 2d: start a fresh cluster
    } else {
      // The cluster stays open: a look-ahead step (Δ^(γ) still singular
      // to working precision, the near-breakdown of Algorithm 1).
      obs::instant(
          "lanczos.lookahead_step",
          {obs::arg("cluster", static_cast<Index>(clusters_.size()) - 1),
           obs::arg("size", m), obs::arg("min_abs_eig", min_abs),
           obs::arg("lookahead_tol", options_.lookahead_tol)});
      static obs::Counter& c_lookahead = obs::counter("lanczos.lookahead_steps");
      c_lookahead.add();
      // Serious breakdown guard: Δ^(γ) has stayed singular for an entire
      // cluster of max_cluster_size vectors — stop at the last healthy
      // order with a diagnosis instead of look-ahead-looping forever.
      if (options_.max_cluster_size > 0 && m >= options_.max_cluster_size) {
        diagnosis_.breakdown = true;
        diagnosis_.cluster = static_cast<Index>(clusters_.size()) - 1;
        diagnosis_.cluster_size = m;
        diagnosis_.min_abs_eig = min_abs;
        diagnosis_.tol = options_.lookahead_tol;
        diagnosis_.message =
            "BandLanczos: serious breakdown — look-ahead cluster " +
            std::to_string(diagnosis_.cluster) + " reached size " +
            std::to_string(m) + " with min|lambda(Delta)| = " +
            std::to_string(min_abs) + " <= lookahead_tol = " +
            std::to_string(options_.lookahead_tol) +
            "; truncating at last healthy order " +
            std::to_string(healthy_order()) +
            " (retry with a different expansion point s0, eq. 26)";
        obs::instant("lanczos.breakdown",
                     {obs::arg("cluster", diagnosis_.cluster),
                      obs::arg("cluster_size", m),
                      obs::arg("min_abs_eig", min_abs),
                      obs::arg("healthy_order", healthy_order()),
                      obs::arg("iteration", n_new)});
        return false;
      }
    }
  }

  // ---- Step 3: generate the next candidate from v_n. ----
  if (static_cast<Index>(vs_.size()) + static_cast<Index>(cand_.size()) <=
      big_n_ + p_) {  // cheap guard; candidates beyond N always deflate
    Candidate next;
    next.v = op_->apply(vs_.back());
    next.src = n_new;
    next.ref_norm = norm2(next.v);
    // 3b-3d: J-orthogonalize against closed clusters. With full
    // reorthogonalization all closed clusters are used; otherwise only
    // those demanded by the band structure (k ≥ γ_v) and by inexact
    // deflations (k ∈ I_v, step 3c).
    for (Index k = 0; k + 1 < static_cast<Index>(clusters_.size()); ++k) {
      if (!clusters_[static_cast<size_t>(k)].closed) continue;
      const bool needed = options_.full_reorthogonalization || k >= gamma_v_ ||
                          inexact_clusters_.count(k) > 0;
      if (!needed) continue;
      orthogonalize_against(next.v, next.src, clusters_[static_cast<size_t>(k)]);
    }
    cand_.push_back(std::move(next));
  }
  return true;
}

Index BandLanczos::run_to(Index target) {
  require(target >= 1, "BandLanczos::run_to: target must be >= 1");
  static obs::Counter& c_steps = obs::counter("lanczos.steps");
  while (static_cast<Index>(vs_.size()) < target) {
    obs::ScopedTimer span("lanczos.step");
    span.arg("iteration", static_cast<Index>(vs_.size()));
    const bool ok = step();
    // The step span's duration feeds SympvlReport::lanczos_step_stats
    // whether or not obs records; then the Krylov bytes are re-stated.
    step_bins_.record(span.close());
    krylov_charge_.set(krylov_bytes());
    krylov_peak_bytes_ = std::max(krylov_peak_bytes_, krylov_charge_.bytes());
    if (!ok) break;
    c_steps.add();
  }
  return static_cast<Index>(vs_.size());
}

Index BandLanczos::healthy_order() const {
  Index n = 0;
  for (const auto& cl : clusters_) {
    if (!cl.closed) break;
    n += static_cast<Index>(cl.members.size());
  }
  return n;
}

LanczosResult BandLanczos::result() const {
  // ---- Truncate at the last complete cluster boundary. ----
  Index n_final = 0;
  std::vector<Index> sizes;
  for (const auto& cl : clusters_) {
    if (!cl.closed) break;
    n_final += static_cast<Index>(cl.members.size());
    sizes.push_back(static_cast<Index>(cl.members.size()));
  }
  if (n_final <= 0) {
    ErrorContext ctx;
    ctx.stage = "lanczos";
    ctx.index = diagnosis_.breakdown ? diagnosis_.cluster : Index{0};
    ctx.value = diagnosis_.min_abs_eig;
    throw Error(ErrorCode::kBreakdown,
                diagnosis_.breakdown
                    ? diagnosis_.message
                    : "BandLanczos: no complete cluster produced (look-ahead "
                      "failed to close; increase the order or loosen "
                      "lookahead_tol)",
                std::move(ctx));
  }
  LanczosResult result;
  result.diagnosis = diagnosis_;
  result.n = n_final;
  result.cluster_sizes = std::move(sizes);
  result.deflations = deflations_;
  result.exhausted = exhausted_;
  result.lookahead_clusters = lookahead_clusters_;

  result.t = t_full_.block(0, n_final, 0, n_final);
  result.rho = rho_full_.block(0, n_final, 0, p_);
  result.delta = Mat(n_final, n_final);
  Index offset = 0;
  for (const auto& cl : clusters_) {
    if (!cl.closed) break;
    const Index m = static_cast<Index>(cl.members.size());
    for (Index a = 0; a < m; ++a)
      for (Index b = 0; b < m; ++b)
        result.delta(offset + a, offset + b) = cl.delta(a, b);
    offset += m;
  }

  // p₁: number of Lanczos vectors drawn from the starting block.
  Index p1 = 0;
  for (Index i = 0; i < std::min<Index>(p_, n_final); ++i) {
    bool nonzero = false;
    for (Index j = 0; j < p_; ++j)
      if (result.rho(i, j) != 0.0) nonzero = true;
    if (nonzero) p1 = i + 1;
  }
  result.p1 = p1;
  return result;
}

Mat BandLanczos::take_basis() {
  const Index n = healthy_order();
  Mat v(big_n_, n);
  for (Index col = 0; col < n; ++col) {
    Vec& w = vs_[static_cast<size_t>(col)];
    for (Index i = 0; i < big_n_; ++i) v(i, col) = w[static_cast<size_t>(i)];
    Vec().swap(w);  // free as we go: never 2× the basis resident
  }
  vs_.clear();
  cand_.clear();
  exhausted_ = true;
  krylov_charge_.set(krylov_bytes());
  return v;
}

LanczosResult band_lanczos(const SymmetricOperator& op, const Mat& start,
                           const Vec& j_signs, const LanczosOptions& options) {
  require(options.max_order >= 1, "band_lanczos: max_order must be >= 1");
  BandLanczos process(op, start, j_signs, options);
  process.run_to(options.max_order);
  return process.result();
}

}  // namespace sympvl
