#include "mor/sympvl.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "mor/pencil.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"

namespace sympvl {

void record_factor_result(const PencilFactorResult& outcome, double seconds,
                          SympvlReport* report) {
  bool cache_hit = false;  // the accepted rung came from the cache
  for (const FactorAttemptRecord& rec : outcome.attempts) {
    if (rec.success) {
      cache_hit = rec.detail == "cache hit";
      ++(cache_hit ? report->factor_cache_hits : report->factor_cache_misses);
    }
    report->factor_attempts.push_back(rec);
  }
  report->recovered = report->factor_attempts.size() > 1;
  report->s0_used = outcome.s0_used;
  report->used_dense_fallback = outcome.dense;
  const FactorizedPencil& pencil = *outcome.pencil;
  report->negative_j = pencil.negative_j();
  report->factor_nnz_l = pencil.l_nnz();
  report->factor_fill_ratio = pencil.fill_ratio();
  report->factor_flops = pencil.flops();
  report->supernode_count = pencil.supernode_count();
  report->max_panel_width = pencil.max_panel_width();
  report->panel_zeros = pencil.panel_zeros();
  report->simd_level = simd_level_name(pencil.simd_level());
  report->factor_bytes = pencil.bytes();
  report->factor_seconds += seconds;
  // factor_seconds includes ladder retries, so this is a floor on the
  // kernel rate. A cache hit factored nothing: its rate is 0.
  report->factor_gflops =
      report->factor_seconds > 0.0 && !cache_hit
          ? report->factor_flops / report->factor_seconds * 1e-9
          : 0.0;
}

void record_lanczos_result(const LanczosResult& result, SympvlReport* report) {
  report->deflations = result.deflations;
  report->exhausted = result.exhausted;
  report->achieved_order = result.n;
  report->lookahead_clusters = result.lookahead_clusters;
  report->cluster_sizes = result.cluster_sizes;
  report->lanczos_diagnosis = result.diagnosis;
  report->breakdown = result.diagnosis.breakdown;
}

LanczosOptions lanczos_options(const SympvlOptions& options, Index order) {
  LanczosOptions lopt;
  lopt.max_order = order;
  lopt.deflation_tol = options.deflation_tol;
  lopt.lookahead_tol = options.lookahead_tol;
  lopt.full_reorthogonalization = options.full_reorthogonalization;
  lopt.max_cluster_size = options.max_cluster_size;
  return lopt;
}

// ---- SympvlSession ---------------------------------------------------------

struct SympvlSession::Impl {
  // The relevant pieces of the system are copied so the session cannot
  // dangle when the caller's MnaSystem goes out of scope — and so a
  // reshift() can re-factor the pencil without the original system.
  SMat g_matrix;
  SMat c_matrix;
  Mat b_matrix;
  SVariable variable = SVariable::kS;
  int s_prefactor = 0;
  double s0 = 0.0;
  SympvlOptions options;
  Index target_order = 0;  // latest order the caller asked for
  std::shared_ptr<const FactorizedPencil> pencil;  // cache-shared, immutable
  std::unique_ptr<BandLanczos> lanczos;
  Mat exact_moment0;  // p×p exact 0th moment Bᵀ(G+s₀C)⁻¹B = startᵀJ·start
  SympvlReport report;

  void absorb_factor_result(PencilFactorResult outcome, double seconds) {
    record_factor_result(outcome, seconds, &report);
    pencil = std::move(outcome.pencil);
    s0 = outcome.s0_used;
  }

  // Builds the starting block J⁻¹M⁻¹B, the exact 0th moment and a fresh
  // Lanczos process from the current factorization. Used at construction
  // and again by reshift().
  void build_process() {
    const Vec& j = pencil->j_signs();
    const Index n_full = g_matrix.rows();
    Mat start;
    {
      obs::ScopedTimer span("sympvl.start_block");
      span.arg("ports", b_matrix.cols());
      start = starting_block(*pencil, b_matrix);
      // Exact 0th moment about s₀: startᵀJ·start = Bᵀ(G+s₀C)⁻¹B (J² = I),
      // the reference for the report's moment-match residual.
      Mat jstart = start;
      for (Index i = 0; i < n_full; ++i)
        for (Index col = 0; col < jstart.cols(); ++col)
          jstart(i, col) *= j[static_cast<size_t>(i)];
      exact_moment0 = matmul_transA(start, jstart);
      report.start_block_seconds += span.close();
    }

    // The pencil IS the operator J⁻¹M⁻¹CM⁻ᵀ — no per-vector closure.
    lanczos = std::make_unique<BandLanczos>(
        *pencil, start, j, lanczos_options(options, target_order));
  }

  // Reads result() inside the span: that read forms the candidates run_to
  // left pending, whose J-orthogonalizations complete T, so their work
  // counts as Lanczos time.
  LanczosResult run_lanczos_to(Index target) {
    obs::ScopedTimer span("sympvl.lanczos");
    span.arg("target_order", target);
    lanczos->run_to(std::max<Index>(target, 1));
    LanczosResult snap = lanczos->result();
    report.lanczos_seconds += span.close();
    report.total_seconds = report.factor_seconds +
                           report.start_block_seconds + report.lanczos_seconds;
    return snap;
  }

  // `snap` is the result() run_lanczos_to read, so the peak includes the
  // formation of the candidates that read left pending.
  void refresh_report(const LanczosResult& snap) {
    report.krylov_peak_bytes =
        std::max(report.krylov_peak_bytes, lanczos->krylov_peak_bytes());
    report.peak_rss_bytes = obs::peak_rss_bytes();
    report.lanczos_step_stats = obs::latency_stats(lanczos->step_bins());
    record_lanczos_result(snap, &report);
    // Moment-match diagnostic (eq. 20 with k = 0): the model's 0th moment
    // ρₙᵀΔₙρₙ against the exact startᵀJ·start captured at construction.
    // Δₙ is symmetric, so Δₙρₙ = Δₙᵀρₙ and both products reuse the
    // transpose-aware kernel.
    if (snap.n > 0 && exact_moment0.rows() > 0) {
      const Mat model = matmul_transA(snap.rho, matmul_transA(snap.delta, snap.rho));
      double diff = 0.0;
      for (Index i = 0; i < model.rows(); ++i)
        for (Index jc = 0; jc < model.cols(); ++jc)
          diff = std::max(diff, std::abs(model(i, jc) - exact_moment0(i, jc)));
      report.moment0_residual =
          diff / std::max(exact_moment0.max_abs(), 1e-300);
    }
  }
};

SympvlSession::SympvlSession(const MnaSystem& sys, const SympvlOptions& options)
    : impl_(std::make_unique<Impl>()) {
  require(options.order >= 1, ErrorCode::kInvalidArgument,
          "SympvlSession: order must be >= 1");
  require(sys.port_count() >= 1, ErrorCode::kInvalidArgument,
          "SympvlSession: system has no ports");

  impl_->g_matrix = sys.G;
  impl_->c_matrix = sys.C;
  impl_->b_matrix = sys.B;
  impl_->variable = sys.variable;
  impl_->s_prefactor = sys.s_prefactor;
  impl_->options = options;
  impl_->target_order = options.order;

  // ---- Factor G + s₀C = M J Mᵀ (eq. 15 / eq. 26) through the shared
  //      ladder and cache. ----
  obs::ScopedTimer factor_span("sympvl.factor");
  factor_span.arg("n", sys.size());
  PencilFactorResult outcome = factor_pencil(
      sys, factor_request(options, "sympvl", "sympvl.factor"));
  factor_span.arg("dense_fallback", outcome.dense ? 1.0 : 0.0);
  factor_span.arg("s0", outcome.s0_used);
  factor_span.arg("attempts", static_cast<Index>(outcome.attempts.size()));
  impl_->absorb_factor_result(std::move(outcome), factor_span.close());

  // ---- Starting block, operator and the Lanczos run (steps 0-3). ----
  impl_->build_process();
  impl_->refresh_report(impl_->run_lanczos_to(options.order));
}

SympvlSession::~SympvlSession() = default;
SympvlSession::SympvlSession(SympvlSession&&) noexcept = default;
SympvlSession& SympvlSession::operator=(SympvlSession&&) noexcept = default;

ReducedModel SympvlSession::extend(Index additional) {
  require(additional >= 0, ErrorCode::kInvalidArgument,
          "SympvlSession::extend: negative step");
  const Index target = impl_->lanczos->order() + additional;
  impl_->target_order = std::max<Index>(target, 1);
  impl_->refresh_report(impl_->run_lanczos_to(target));
  return current();
}

ReducedModel SympvlSession::reshift(double new_s0) {
  Impl* impl = impl_.get();
  obs::ScopedTimer span("sympvl.reshift");
  span.arg("s0", new_s0);
  span.arg("previous_s0", impl->s0);
  PencilFactorRequest req =
      factor_request(impl->options, "sympvl", "sympvl.factor");
  req.s0 = new_s0;
  // The caller chose the shift: no automatic or jittered rungs, but the
  // dense rung still backstops it.
  req.auto_shift = false;
  PencilFactorResult outcome =
      factor_pencil(impl->g_matrix, impl->c_matrix, req);
  // The trail now holds the constructor's rung(s) and this one, so the
  // report reads recovered.
  impl->absorb_factor_result(std::move(outcome), span.close());
  ++impl->report.shift_retries;

  // Restart the process about the new expansion point and run it back to
  // the last requested order. The Padé model changes (different s₀) but
  // matches the same transfer function to the same moment count.
  impl->build_process();
  impl->refresh_report(impl->run_lanczos_to(impl->target_order));
  return current();
}

bool SympvlSession::breakdown() const { return impl_->lanczos->breakdown(); }

ReducedModel SympvlSession::current() const {
  // run_lanczos_to already read result(), so this read forms nothing.
  return ReducedModel(impl_->lanczos->result(), impl_->variable,
                      impl_->s_prefactor, impl_->s0);
}

Index SympvlSession::order() const { return impl_->lanczos->order(); }

const SympvlReport& SympvlSession::report() const { return impl_->report; }

// ---- One-shot reduction ---------------------------------------------------

ReducedModel sympvl_reduce(const MnaSystem& sys, const SympvlOptions& options,
                           SympvlReport* report) {
  SympvlSession session(sys, options);
  if (report != nullptr) *report = session.report();
  return session.current();
}

}  // namespace sympvl
