#include "mor/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "fault.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// out[q] = vᵀJw = Σ v[i]·(w[i]·j[i]) for the pairs (v[q], w[q]), q < K,
// in one pass over i. Each j[i] is ±1, so w[i]·j[i] is exact and every
// chain carries the bits of dot(v, Jw) summed in ascending i; the K
// independent chains hide the add latency a lone chain waits on. Plain
// C++ for the baseline ISA: no FMA contraction can change the bits.
template <int K>
void dot_j_chains(const double* const* v, const double* const* w,
                  const double* j, Index n, double* out) {
  double s[K] = {};
  for (Index i = 0; i < n; ++i) {
    const double ji = j[i];
    for (int q = 0; q < K; ++q) s[q] += v[q][i] * (w[q][i] * ji);
  }
  for (int q = 0; q < K; ++q) out[q] = s[q];
}

// dot_j_chains over `count` pairs, eight chains at a time.
void dot_j_many(Index count, const double* const* v, const double* const* w,
                const Vec& j, double* out) {
  const Index n = static_cast<Index>(j.size());
  Index q = 0;
  for (; q + 8 <= count; q += 8) dot_j_chains<8>(v + q, w + q, j.data(), n, out + q);
  switch (count - q) {
    case 7: dot_j_chains<7>(v + q, w + q, j.data(), n, out + q); break;
    case 6: dot_j_chains<6>(v + q, w + q, j.data(), n, out + q); break;
    case 5: dot_j_chains<5>(v + q, w + q, j.data(), n, out + q); break;
    case 4: dot_j_chains<4>(v + q, w + q, j.data(), n, out + q); break;
    case 3: dot_j_chains<3>(v + q, w + q, j.data(), n, out + q); break;
    case 2: dot_j_chains<2>(v + q, w + q, j.data(), n, out + q); break;
    case 1: dot_j_chains<1>(v + q, w + q, j.data(), n, out + q); break;
    default: break;
  }
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

// J-orthogonalizes every candidate of `batch` against a closed cluster:
// coeff = Δ⁻¹ V^(γ)ᵀ J w;  w -= V^(γ)·coeff;  record into T/ρ column src.
// The dots of all (member, candidate) pairs run as interleaved chains
// first — a candidate's dots read only its own vector — then each
// candidate takes its updates in member order.
void BandLanczos::orthogonalize(const std::vector<Candidate*>& batch,
                                const Cluster& cl) {
  const size_t m = cl.members.size();
  const size_t pairs = m * batch.size();
  std::vector<const double*> v(pairs), w(pairs);
  for (size_t c = 0; c < batch.size(); ++c)
    for (size_t a = 0; a < m; ++a) {
      v[c * m + a] = vs_[static_cast<size_t>(cl.members[a])].data();
      w[c * m + a] = batch[c]->v.data();
    }
  Vec proj(pairs);
  dot_j_many(static_cast<Index>(pairs), v.data(), w.data(), j_signs_, proj.data());
  for (size_t c = 0; c < batch.size(); ++c) {
    Candidate& cand = *batch[c];
    const Vec coeff =
        cl.delta_inv * Vec(proj.data() + c * m, proj.data() + (c + 1) * m);
    for (size_t a = 0; a < m; ++a) {
      const Index j = cl.members[a];
      axpy(-coeff[a], vs_[static_cast<size_t>(j)], cand.v);
      write_t(j, cand.src, coeff[a]);
    }
  }
}

// Forms every pending candidate — always a suffix of the queue — with one
// blocked operator apply, then gives each the J-orthogonalizations its
// eager twin received, in cluster order: the ones step 3 recorded, then
// one per cluster closed since. Per candidate these are the same
// operations in the same order, so the bits are those of forming it at
// creation; only the interleaving across candidates changes.
void BandLanczos::form_pending() {
  const auto first = std::find_if(cand_.begin(), cand_.end(),
                                  [](const Candidate& c) { return c.pending; });
  const Index k = static_cast<Index>(cand_.end() - first);
  if (k == 0) return;
  // The gathered sources (the operator's scratch) and its output are
  // resident together.
  krylov_peak_bytes_ = std::max(
      krylov_peak_bytes_,
      krylov_bytes() + 2 * static_cast<std::int64_t>(big_n_) * k *
                           static_cast<std::int64_t>(sizeof(double)));
  Mat out;
  {
    std::vector<const double*> src(static_cast<size_t>(k));
    for (Index c = 0; c < k; ++c)
      src[static_cast<size_t>(c)] = vs_[static_cast<size_t>(first[c].src)].data();
    Mat block(big_n_, k);
    for (Index i = 0; i < big_n_; ++i) {
      double* row = block.data() + i * k;
      for (Index c = 0; c < k; ++c) row[c] = src[static_cast<size_t>(c)][i];
    }
    out = op_->apply_block(std::move(block));
  }
  // The row-major block goes to the candidates eight columns at a time,
  // one pass over each row's run of k doubles, as take_basis() copies.
  constexpr Index kBlock = 8;
  for (Index c = 0; c < k; ++c) first[c].v.assign(static_cast<size_t>(big_n_), 0.0);
  for (Index c0 = 0; c0 < k; c0 += kBlock) {
    const Index nb = std::min(kBlock, k - c0);
    double* w[kBlock];
    for (Index b = 0; b < nb; ++b) w[b] = first[c0 + b].v.data();
    for (Index i = 0; i < big_n_; ++i) {
      const double* row = out.data() + i * k + c0;
      for (Index b = 0; b < nb; ++b) w[b][i] = row[b];
    }
  }
  out = Mat();
  std::vector<Candidate*> batch;
  for (Index c = 0; c < k; ++c) {
    Candidate& cand = first[c];
    cand.ref_norm = norm2(cand.v);
    batch.push_back(&cand);
  }
  std::vector<Candidate*> owed;
  for (Index cl = 0; cl + 1 < static_cast<Index>(clusters_.size()); ++cl) {
    owed.clear();
    for (Candidate* c : batch)
      if (cl >= c->closed_at || options_.full_reorthogonalization ||
          std::binary_search(c->band.begin(), c->band.end(), cl))
        owed.push_back(c);
    orthogonalize(owed, clusters_[static_cast<size_t>(cl)]);
  }
  for (Candidate* c : batch) {
    c->pending = false;
    std::vector<Index>().swap(c->band);
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
    if (cand_.front().pending) form_pending();
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
    std::vector<const double*> vb, va;  // Δ(a, b) = v_bᵀJv_a
    for (Index a : open.members)
      for (Index b : open.members) {
        vb.push_back(vs_[static_cast<size_t>(b)].data());
        va.push_back(vs_[static_cast<size_t>(a)].data());
      }
    dot_j_many(m * m, vb.data(), va.data(), j_signs_, open.delta.data());
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
      // Pending candidates owe it too; form_pending() replays it.
      std::vector<Candidate*> formed;
      for (Candidate& c : cand_)
        if (!c.pending) formed.push_back(&c);
      orthogonalize(formed, open);
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

  // ---- Step 3: queue the next candidate, Op·v_n. Algorithm 1 reads it
  // only when it reaches the queue front, p_c steps on, so it stays
  // pending until then and form_pending() builds every pending candidate
  // with one blocked apply. ----
  if (static_cast<Index>(vs_.size()) + static_cast<Index>(cand_.size()) <=
      big_n_ + p_) {  // cheap guard; candidates beyond N always deflate
    Candidate next;
    next.src = n_new;
    next.pending = true;
    // 3b-3d: it owes a J-orthogonalization against the closed clusters
    // (every cluster but the open last one). With full
    // reorthogonalization all of them are used; otherwise only those
    // demanded by the band structure (k ≥ γ_v) and by inexact deflations
    // (k ∈ I_v, step 3c), recorded now because γ_v and I_v move on.
    next.closed_at = static_cast<Index>(clusters_.size()) - 1;
    if (!options_.full_reorthogonalization)
      for (Index k = 0; k < next.closed_at; ++k)
        if (k >= gamma_v_ || inexact_clusters_.count(k) > 0) next.band.push_back(k);
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
  // What is still pending stays unformed: result() forms it when T is
  // read, and take_basis() drops it.
  krylov_charge_.set(krylov_bytes());
  krylov_peak_bytes_ = std::max(krylov_peak_bytes_, krylov_charge_.bytes());
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

LanczosResult BandLanczos::result() {
  // The pending candidates' J-orthogonalizations write T's last p_c
  // columns: form them first, whatever follows reads the eager state.
  form_pending();
  krylov_charge_.set(krylov_bytes());
  krylov_peak_bytes_ = std::max(krylov_peak_bytes_, krylov_charge_.bytes());

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

  if (t_full_.rows() > 0) result.t = t_full_.block(0, n_final, 0, n_final);
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
  // Eight columns at a time, so each row write is one 64-byte run; each
  // block's vectors are freed once copied, so the peak stays one basis
  // plus the vectors not yet copied.
  constexpr Index kBlock = 8;
  for (Index c0 = 0; c0 < n; c0 += kBlock) {
    const Index nb = std::min(kBlock, n - c0);
    const double* w[kBlock];
    for (Index b = 0; b < nb; ++b) w[b] = vs_[static_cast<size_t>(c0 + b)].data();
    for (Index i = 0; i < big_n_; ++i) {
      double* row = &v(i, c0);
      for (Index b = 0; b < nb; ++b) row[b] = w[b][i];
    }
    for (Index b = 0; b < nb; ++b) Vec().swap(vs_[static_cast<size_t>(c0 + b)]);
  }
  vs_.clear();
  // The queue goes unformed, and T with it: its last columns would need
  // the dropped candidates' J-orthogonalizations.
  cand_.clear();
  t_full_ = Mat();
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
