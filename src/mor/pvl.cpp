#include "mor/pvl.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "fault.hpp"
#include "linalg/dense_factor.hpp"
#include "mor/pencil.hpp"
#include "mor/sympvl.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {

PvlModel::PvlModel(Mat t, double eta, SVariable variable, int s_prefactor,
                   double s0)
    : t_(std::move(t)),
      eta_(eta),
      variable_(variable),
      s_prefactor_(s_prefactor),
      s0_(s0) {}

Complex PvlModel::eval(Complex s) const {
  const Index n = order();
  const Complex sigma = (variable_ == SVariable::kS ? s : s * s) - s0_;
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      lhs(i, j) = (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)) +
                  sigma * t_(i, j);
  CVec e1(static_cast<size_t>(n), Complex(0.0, 0.0));
  e1[0] = Complex(1.0, 0.0);
  const CVec x = DenseLU<Complex>(lhs).solve(e1);
  Complex pref(1.0, 0.0);
  for (int k = 0; k < s_prefactor_; ++k) pref *= s;
  return pref * eta_ * x[0];
}

double PvlModel::moment(Index k) const {
  Vec x(static_cast<size_t>(order()), 0.0);
  x[0] = 1.0;
  for (Index step = 0; step < k; ++step) x = t_ * x;
  return eta_ * x[0];
}

PvlModel pvl_reduce_entry(const MnaSystem& sys, Index row, Index col,
                          const PvlOptions& options, SympvlReport* report) {
  require(options.order >= 1, ErrorCode::kInvalidArgument,
          "pvl_reduce_entry: order must be >= 1", {.stage = "pvl"});
  require(0 <= row && row < sys.port_count() && 0 <= col &&
              col < sys.port_count(),
          ErrorCode::kInvalidArgument,
          "pvl_reduce_entry: port index out of range", {.stage = "pvl"});
  const Index big_n = sys.size();

  obs::ScopedTimer factor_span("pvl.factor");
  const PencilFactorResult outcome = factor_pencil(
      sys, factor_request(options, "pvl_reduce_entry", "pvl.factor"));
  const double factor_seconds = factor_span.close();
  const std::shared_ptr<const FactorizedPencil> fact = outcome.pencil;
  const double s0 = outcome.s0_used;

  // A = G̃⁻¹C applied on the right; Aᵀ = CG̃⁻ᵀ = CG̃⁻¹ (G̃ symmetric) on the
  // left Krylov space.
  auto apply_a = [&](const Vec& v) { return fact->solve(sys.C.multiply(v)); };
  auto apply_at = [&](const Vec& v) { return sys.C.multiply(fact->solve(v)); };

  obs::ScopedTimer lanczos_span("pvl.lanczos");
  // Right start r̂ = G̃⁻¹ b_col, left start l = b_row.
  Vec v = fact->solve(sys.B.col(col));
  Vec w = sys.B.col(row);
  const double beta1 = norm2(v);
  const double gamma1 = norm2(w);
  require(beta1 > 0.0 && gamma1 > 0.0, ErrorCode::kInvalidArgument,
          "pvl_reduce_entry: zero port vector", {.stage = "pvl.start"});
  scale(v, 1.0 / beta1);
  scale(w, 1.0 / gamma1);

  const Index n_max = std::min(options.order, big_n);
  Mat t(n_max, n_max);
  std::vector<Vec> vs, ws;
  Vec deltas;
  Index n = 0;
  bool exhausted = false;
  LanczosDiagnosis diagnosis;

  while (n < n_max) {
    double dn = dot(w, v);
    if (fault::active() && fault::triggered("pvl.delta", n)) dn = 0.0;
    if (std::abs(dn) <= options.breakdown_tol) {
      // Serious breakdown (wᵀv ≈ 0): no look-ahead in the classical
      // two-sided process, so truncate at the last completed order; the
      // very first step has no model to truncate to and throws.
      diagnosis.breakdown = true;
      diagnosis.cluster = n;
      diagnosis.cluster_size = 1;
      diagnosis.min_abs_eig = std::abs(dn);
      diagnosis.tol = options.breakdown_tol;
      diagnosis.message =
          "pvl_reduce_entry: serious Lanczos breakdown — |delta_" +
          std::to_string(n + 1) + "| = " + std::to_string(std::abs(dn)) +
          " <= breakdown_tol = " + std::to_string(options.breakdown_tol) +
          "; truncated at order " + std::to_string(n) +
          " (use sympvl_reduce with look-ahead, or retry with a different "
          "expansion point s0, eq. 26)";
      if (n == 0)
        throw Error(ErrorCode::kBreakdown, diagnosis.message,
                    {.stage = "pvl.lanczos", .index = 0,
                     .value = std::abs(dn)});
      break;
    }
    vs.push_back(v);
    ws.push_back(w);
    deltas.push_back(dn);
    ++n;

    Vec av = apply_a(vs.back());
    Vec atw = apply_at(ws.back());
    const double av_ref = norm2(av);
    const double atw_ref = norm2(atw);
    // Biorthogonalize against the last two pairs (three-term recurrence),
    // recording the T entries t_{j,n} = w_jᵀAv_n/δ_j. The column is needed
    // even for the final vector (it holds the diagonal coefficient).
    for (Index j = std::max<Index>(0, n - 2); j < n; ++j) {
      const double tjn = dot(ws[static_cast<size_t>(j)], av) /
                         deltas[static_cast<size_t>(j)];
      t(j, n - 1) = tjn;
      axpy(-tjn, vs[static_cast<size_t>(j)], av);
      const double sjn = dot(vs[static_cast<size_t>(j)], atw) /
                         deltas[static_cast<size_t>(j)];
      axpy(-sjn, ws[static_cast<size_t>(j)], atw);
    }
    if (n == n_max) break;
    const double beta = norm2(av);
    const double gamma = norm2(atw);
    if (av_ref == 0.0 || atw_ref == 0.0 ||
        beta <= options.breakdown_tol * av_ref ||
        gamma <= options.breakdown_tol * atw_ref) {
      exhausted = true;  // Krylov space exhausted: the scalar model is exact
      break;
    }
    t(n, n - 1) = beta;
    scale(av, 1.0 / beta);
    scale(atw, 1.0 / gamma);
    v = std::move(av);
    w = std::move(atw);
  }

  // η = b_rowᵀ G̃⁻¹ b_col scaled into the e₁ formulation:
  // H_n(σ) = γ₁β₁δ₁ e₁ᵀ(I+σTₙ)⁻¹e₁.
  const double eta = gamma1 * beta1 * deltas[0];
  const double lanczos_seconds = lanczos_span.close();

  if (report != nullptr) {
    *report = SympvlReport{};
    record_factor_result(outcome, factor_seconds, report);
    report->exhausted = exhausted;
    report->achieved_order = n;
    report->lanczos_diagnosis = std::move(diagnosis);
    report->breakdown = report->lanczos_diagnosis.breakdown;
    report->lanczos_seconds = lanczos_seconds;
    report->total_seconds = factor_seconds + lanczos_seconds;
  }
  return PvlModel(t.block(0, n, 0, n), eta, sys.variable, sys.s_prefactor, s0);
}

std::vector<PvlModel> pvl_reduce_all(const MnaSystem& sys,
                                     const PvlOptions& options) {
  const Index p = sys.port_count();

  // Z(s) = Zᵀ(s) for the symmetric pencils of Section 2 (G, C symmetric):
  // the (i,j) and (j,i) Padé approximants match the same moments, so only
  // the p(p+1)/2 upper-triangle entries are reduced — fanned over the
  // thread pool — and the strict lower triangle mirrors them.
  std::vector<std::pair<Index, Index>> pairs;
  pairs.reserve(static_cast<size_t>(p * (p + 1) / 2));
  for (Index i = 0; i < p; ++i)
    for (Index j = i; j < p; ++j) pairs.emplace_back(i, j);

  std::vector<PvlModel> slots(static_cast<size_t>(p * p));
  // Warm the shared factorization cache serially: the first entry pays the
  // one factorization, the parallel fan-out then hits the cache instead of
  // racing p(p+1)/2 duplicate factorizations.
  slots[0] = pvl_reduce_entry(sys, pairs[0].first, pairs[0].second, options);
  parallel_for(Index{1}, static_cast<Index>(pairs.size()), [&](Index k) {
    const auto [i, j] = pairs[static_cast<size_t>(k)];
    slots[static_cast<size_t>(i * p + j)] = pvl_reduce_entry(sys, i, j, options);
  });

  std::vector<PvlModel> models;
  models.reserve(static_cast<size_t>(p * p));
  for (Index i = 0; i < p; ++i)
    for (Index j = 0; j < p; ++j) {
      const size_t upper =
          static_cast<size_t>(std::min(i, j) * p + std::max(i, j));
      models.push_back(slots[upper]);
    }
  return models;
}

}  // namespace sympvl
