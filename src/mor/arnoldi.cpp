#include "mor/arnoldi.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"
#include "mor/pencil.hpp"
#include "mor/rational.hpp"
#include "mor/sympvl.hpp"
#include "obs/obs.hpp"

namespace sympvl {

ArnoldiModel::ArnoldiModel(Mat gr, Mat cr, Mat br, SVariable variable,
                           int s_prefactor, double s0)
    : gr_(std::move(gr)),
      cr_(std::move(cr)),
      br_(std::move(br)),
      variable_(variable),
      s_prefactor_(s_prefactor),
      s0_(s0),
      form_(PoleResidueForm::of_pencil(gr_, cr_, br_)) {}

CMat ArnoldiModel::eval(Complex s) const {
  const Index n = order();
  const Index p = port_count();
  const Complex sigma = (variable_ == SVariable::kS ? s : s * s) - s0_;
  Complex pref(1.0, 0.0);
  for (int k = 0; k < s_prefactor_; ++k) pref *= s;
  if (form_) return form_->eval(sigma, pref);
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) lhs(i, j) = gr_(i, j) + sigma * cr_(i, j);
  CMat rhs(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) rhs(i, j) = Complex(br_(i, j), 0.0);
  const CMat x = dense_solve(lhs, rhs);
  CMat z(p, p);
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) {
      Complex acc(0.0, 0.0);
      for (Index i = 0; i < n; ++i) acc += br_(i, a) * x(i, b);
      z(a, b) = pref * acc;
    }
  return z;
}

Mat ArnoldiModel::moment(Index k) const {
  const LU lu(gr_);
  Mat x = lu.solve(br_);
  for (Index step = 0; step < k; ++step) x = lu.solve(cr_ * x);
  return br_.transpose() * x;
}

CVec ArnoldiModel::poles() const {
  if (form_) return poles_from_eigenvalues(form_->lambda(), s0_, variable_);
  // Pencil poles: det(Gr + σCr) = 0 ⇔ σ = −1/λ for λ eig of Gr⁻¹Cr.
  return poles_from_eigenvalues(eig_general(dense_solve(gr_, cr_)), s0_,
                                variable_);
}

bool ArnoldiModel::is_stable(double tol) const {
  for (const Complex& pole : poles())
    if (pole.real() > tol) return false;
  return true;
}

std::int64_t ArnoldiModel::bytes() const {
  const auto doubles = [](const Mat& m) {
    return static_cast<std::int64_t>(m.rows() * m.cols());
  };
  return (doubles(gr_) + doubles(cr_) + doubles(br_)) *
             static_cast<std::int64_t>(sizeof(double)) +
         (form_ ? form_->bytes() : 0);
}

ArnoldiModel arnoldi_reduce(const MnaSystem& sys, const ArnoldiOptions& options,
                            SympvlReport* report) {
  require(options.order >= 1, ErrorCode::kInvalidArgument,
          "arnoldi_reduce: order must be >= 1", {.stage = "arnoldi"});
  const Index p = sys.port_count();

  obs::ScopedTimer factor_span("arnoldi.factor");
  const PencilFactorResult outcome = factor_pencil(
      sys, factor_request(options, "arnoldi_reduce", "arnoldi.factor"));
  const double factor_seconds = factor_span.close();
  const std::shared_ptr<const FactorizedPencil> fact = outcome.pencil;

  // The Krylov stage: the basis and its congruence projection.
  obs::ScopedTimer krylov_span("arnoldi.krylov");
  // Block Arnoldi: each block joins the basis through the union-basis MGS
  // (applied twice, with deflation), stopping mid-block at the order.
  std::vector<Vec> basis;
  basis.reserve(static_cast<size_t>(options.order));
  std::vector<Vec> block;
  for (Index j = 0; j < p; ++j) block.push_back(fact->solve(sys.B.col(j)));
  while (!block.empty()) {
    const std::vector<Vec> accepted = mgs_union_append(
        basis, std::move(block), options.deflation_tol, options.order);
    if (static_cast<Index>(basis.size()) == options.order) break;
    block.clear();
    for (const auto& q : accepted)
      block.push_back(fact->solve(sys.C.multiply(q)));
  }
  require(!basis.empty(), ErrorCode::kBreakdown,
          "arnoldi_reduce: starting block deflated to nothing",
          {.stage = "arnoldi.basis"});
  // Congruence projection of G̃ = G + s₀C and C.
  ArnoldiModel model = congruence_project(sys, basis, outcome.s0_used);
  const double krylov_seconds = krylov_span.close();

  if (report != nullptr) {
    *report = SympvlReport{};
    record_factor_result(outcome, factor_seconds, report);
    report->achieved_order = model.order();
    // Stopping short means the block Krylov space deflated to nothing
    // more: the projection then spans the full space (exact).
    report->exhausted = model.order() < std::min(options.order, sys.size());
    report->total_seconds = factor_seconds + krylov_seconds;
  }
  return model;
}

}  // namespace sympvl
