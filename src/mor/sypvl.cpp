#include "mor/sypvl.hpp"

#include <cmath>
#include <memory>

#include "fault.hpp"
#include "mor/pencil.hpp"
#include "obs/obs.hpp"

namespace sympvl {

ReducedModel sypvl_reduce(const MnaSystem& sys, const SympvlOptions& options,
                          SympvlReport* report) {
  require(sys.port_count() == 1, ErrorCode::kInvalidArgument,
          "sypvl_reduce: system must have exactly one port",
          {.stage = "sypvl", .value = double(sys.port_count())});
  require(options.order >= 1, ErrorCode::kInvalidArgument,
          "sypvl_reduce: order must be >= 1", {.stage = "sypvl"});

  // Factor G + s₀C = M J Mᵀ through the shared ladder and cache. Attempts
  // land in the report's recovery trail.
  obs::ScopedTimer factor_span("sypvl.factor");
  const PencilFactorResult outcome = factor_pencil(
      sys, factor_request(options, "sypvl_reduce", "sypvl.factor"));
  const double factor_seconds = factor_span.close();
  const std::shared_ptr<const FactorizedPencil> fact = outcome.pencil;
  const double s0 = outcome.s0_used;
  const Vec& j = fact->j_signs();
  const Index big_n = sys.size();

  auto apply_op = [&](const Vec& v) { return fact->apply(v); };

  const Index n_max = std::min(options.order, big_n);
  Mat t(n_max, n_max);
  Mat delta(n_max, n_max);
  Mat rho(n_max, 1);

  obs::ScopedTimer lanczos_span("sypvl.lanczos");
  // v̂₁ = J M⁻¹ b (step 0 of Algorithm 1 with p = 1).
  Vec vh = fact->solve_m(sys.B.col(0));
  for (size_t i = 0; i < vh.size(); ++i) vh[i] *= j[i];
  const double rho1 = norm2(vh);
  require(rho1 > 0.0, ErrorCode::kInvalidArgument,
          "sypvl_reduce: zero starting vector", {.stage = "sypvl.start"});

  std::vector<Vec> vs;
  vs.reserve(static_cast<size_t>(n_max));
  Vec deltas;
  Index n = 0;
  bool exhausted = false;
  LanczosDiagnosis diagnosis;

  scale(vh, 1.0 / rho1);
  rho(0, 0) = rho1;

  while (n < n_max) {
    // Accept v_{n+1} = vh.
    vs.push_back(vh);
    Vec jv(vh);
    for (size_t i = 0; i < jv.size(); ++i) jv[i] *= j[i];
    double dn = dot(vh, jv);
    if (fault::active() && fault::triggered("sypvl.delta", n)) dn = 0.0;
    if (std::abs(dn) <= options.lookahead_tol) {
      // Serious breakdown (δₙ ≈ 0): the unblocked recurrence has no
      // look-ahead, so truncate at the last healthy order and report —
      // except on the very first step, where no model exists at all.
      vs.pop_back();
      diagnosis.breakdown = true;
      diagnosis.cluster = n;
      diagnosis.cluster_size = 1;
      diagnosis.min_abs_eig = std::abs(dn);
      diagnosis.tol = options.lookahead_tol;
      diagnosis.message =
          "sypvl_reduce: serious breakdown — |delta_" + std::to_string(n + 1) +
          "| = " + std::to_string(std::abs(dn)) +
          " <= lookahead_tol = " + std::to_string(options.lookahead_tol) +
          "; truncated at order " + std::to_string(n) +
          " (use sympvl_reduce with look-ahead, or retry with a different "
          "expansion point s0, eq. 26)";
      if (n == 0)
        throw Error(ErrorCode::kBreakdown, diagnosis.message,
                    {.stage = "sypvl.lanczos", .index = 0,
                     .value = std::abs(dn)});
      break;
    }
    deltas.push_back(dn);
    delta(n, n) = dn;
    ++n;

    // Three-term recurrence: w = Op v_n − α v_n − t_{n-1,n} v_{n-1}.
    // The diagonal coefficient is needed even for the final vector.
    Vec w = apply_op(vs.back());
    const double w_ref = norm2(w);  // scale for the relative deflation test
    const double alpha = dot(jv, w) / dn;  // vᵀJ(Op v)/δ
    t(n - 1, n - 1) = alpha;
    axpy(-alpha, vs.back(), w);
    if (n >= 2) {
      // t_{n-1,n} = δ_n t_{n,n-1} / δ_{n-1} (J-symmetry of ΔT).
      const double tupper = dn * t(n - 1, n - 2) / deltas[static_cast<size_t>(n) - 2];
      t(n - 2, n - 1) = tupper;
      axpy(-tupper, vs[static_cast<size_t>(n) - 2], w);
    }
    if (n == n_max) break;
    const double beta = norm2(w);
    if (w_ref == 0.0 || beta <= options.deflation_tol * w_ref) {
      exhausted = true;  // Krylov space exhausted: Zₙ = Z
      break;
    }
    t(n, n - 1) = beta;
    scale(w, 1.0 / beta);
    vh = std::move(w);
  }

  LanczosResult res;
  res.n = n;
  res.p1 = 1;
  res.exhausted = exhausted;
  res.deflations = exhausted ? 1 : 0;
  res.cluster_sizes.assign(static_cast<size_t>(n), 1);
  res.t = t.block(0, n, 0, n);
  res.delta = delta.block(0, n, 0, n);
  res.rho = rho.block(0, n, 0, 1);
  res.diagnosis = diagnosis;
  const double lanczos_seconds = lanczos_span.close();

  if (report != nullptr) {
    *report = SympvlReport{};
    record_factor_result(outcome, factor_seconds, report);
    record_lanczos_result(res, report);
    report->lanczos_seconds = lanczos_seconds;
    report->total_seconds = factor_seconds + lanczos_seconds;
  }
  return ReducedModel(res, sys.variable, sys.s_prefactor, s0);
}

SypvlCoefficients sypvl_coefficients(const ReducedModel& model) {
  require(model.port_count() == 1,
          "sypvl_coefficients: model must be single-port");
  const Index n = model.order();
  SypvlCoefficients c;
  c.rho1 = model.rho()(0, 0);
  c.diag.resize(static_cast<size_t>(n));
  c.deltas.resize(static_cast<size_t>(n));
  if (n > 1) c.sub.resize(static_cast<size_t>(n) - 1);
  for (Index i = 0; i < n; ++i) {
    c.diag[static_cast<size_t>(i)] = model.t()(i, i);
    c.deltas[static_cast<size_t>(i)] = model.delta()(i, i);
    if (i + 1 < n) c.sub[static_cast<size_t>(i)] = model.t()(i + 1, i);
  }
  return c;
}

}  // namespace sympvl
