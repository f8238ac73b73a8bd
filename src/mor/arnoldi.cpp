#include "mor/arnoldi.hpp"

#include <cmath>
#include <memory>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"
#include "mor/pencil.hpp"
#include "mor/sympvl.hpp"

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

ArnoldiModel arnoldi_reduce(const MnaSystem& sys, const ArnoldiOptions& options) {
  require(options.order >= 1, ErrorCode::kInvalidArgument,
          "arnoldi_reduce: order must be >= 1", {.stage = "arnoldi"});
  const Index p = sys.port_count();

  PencilFactorRequest req;
  req.s0 = options.s0;
  req.auto_shift = options.auto_shift;
  req.ordering = options.ordering;
  req.driver = "arnoldi_reduce";
  req.stage = "arnoldi.factor";
  req.cache = options.factor_cache;
  req.kernels = options.kernel;
  PencilFactorResult outcome = factor_pencil(sys, req);
  const std::shared_ptr<const FactorizedPencil> fact = outcome.pencil;
  const double s0 = outcome.s0_used;

  // Block Arnoldi with modified Gram-Schmidt (applied twice) and deflation.
  std::vector<Vec> basis;
  basis.reserve(static_cast<size_t>(options.order));
  std::vector<Vec> block;
  for (Index j = 0; j < p; ++j) block.push_back(fact->solve(sys.B.col(j)));

  while (static_cast<Index>(basis.size()) < options.order && !block.empty()) {
    std::vector<Vec> next_block;
    for (auto& w : block) {
      const double ref = norm2(w);  // scale-invariant deflation test
      if (ref == 0.0) continue;
      for (int pass = 0; pass < 2; ++pass)
        for (const auto& q : basis) {
          const double h = dot(q, w);
          axpy(-h, q, w);
        }
      const double nrm = norm2(w);
      if (nrm <= options.deflation_tol * ref) continue;  // deflated
      scale(w, 1.0 / nrm);
      basis.push_back(w);
      next_block.push_back(w);
      if (static_cast<Index>(basis.size()) == options.order) break;
    }
    if (static_cast<Index>(basis.size()) == options.order) break;
    block.clear();
    for (const auto& q : next_block) block.push_back(fact->solve(sys.C.multiply(q)));
  }
  const Index n = static_cast<Index>(basis.size());
  require(n >= 1, ErrorCode::kBreakdown,
          "arnoldi_reduce: starting block deflated to nothing",
          {.stage = "arnoldi.basis"});

  // Congruence projection of G̃ = G + s₀C and C.
  const SMat gt = assemble_pencil(sys.G, sys.C, s0);
  Mat gr(n, n), cr(n, n), br(n, p);
  std::vector<Vec> gv(static_cast<size_t>(n)), cv(static_cast<size_t>(n));
  for (Index j = 0; j < n; ++j) {
    gv[static_cast<size_t>(j)] = gt.multiply(basis[static_cast<size_t>(j)]);
    cv[static_cast<size_t>(j)] = sys.C.multiply(basis[static_cast<size_t>(j)]);
  }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      gr(i, j) = dot(basis[static_cast<size_t>(i)], gv[static_cast<size_t>(j)]);
      cr(i, j) = dot(basis[static_cast<size_t>(i)], cv[static_cast<size_t>(j)]);
    }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      br(i, j) = dot(basis[static_cast<size_t>(i)], sys.B.col(j));
  return ArnoldiModel(std::move(gr), std::move(cr), std::move(br), sys.variable,
                      sys.s_prefactor, s0);
}

}  // namespace sympvl
