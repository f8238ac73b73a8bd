#include "mor/pole_residue.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <vector>

#include "linalg/eig.hpp"
#include "linalg/kernels.hpp"

namespace sympvl {

namespace {

// A Cholesky pivot below this fraction of Gr's largest diagonal entry
// marks Gr numerically singular: the pencil stays on the LU path.
constexpr double kPivotTol = 1e-12;
// Gr and Cr count as symmetric when max|A − Aᵀ| ≤ kSymmetryTol·max|A|.
// Congruence projections and a healthy Lanczos TΔ⁻¹ are symmetric to
// rounding; a TΔ⁻¹ whose Lanczos vectors lost J-orthogonality is not, and
// its LU model differs from the symmetrized pencil's.
constexpr double kSymmetryTol = 1e-12;
// Column block of the lower-triangle products in eval().
constexpr Index kTriangleBlock = 32;

bool near_symmetric(const Mat& a) {
  return a.is_square() && a.asymmetry() <= kSymmetryTol * a.max_abs();
}

bool is_identity(const Mat& a) {
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j)
      if (a(i, j) != (i == j ? 1.0 : 0.0)) return false;
  return true;
}

bool all_finite(const double* x, Index n) {
  for (Index i = 0; i < n; ++i)
    if (!std::isfinite(x[i])) return false;
  return true;
}

}  // namespace

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

std::optional<PoleResidueForm> PoleResidueForm::of_pencil(const Mat& gr,
                                                          const Mat& cr,
                                                          const Mat& br) {
  const Index n = gr.rows();
  if (n == 0 || !near_symmetric(gr) || !near_symmetric(cr) ||
      cr.rows() != n || br.rows() != n)
    return std::nullopt;
  try {
    // eig_symmetric symmetrizes S itself (a matrix beyond its symmetry
    // check throws, and the pencil stays on the LU path).
    Mat s = cr;
    Mat b = br;
    if (!is_identity(gr)) {
      // S = L⁻¹CrL⁻ᵀ and b = L⁻¹Br, so that W = Yᵀb = VᵀBr. The two
      // triangular solves read both triangles of Cr: symmetrize it first.
      Mat l;
      if (!guarded_cholesky(symmetrized(gr), kPivotTol, &l)) return std::nullopt;
      s = symmetrized(std::move(s));
      solve_lower_inplace(l, &s);
      s = s.transpose();
      solve_lower_inplace(l, &s);
      solve_lower_inplace(l, &b);
    }
    const SymmetricEig eig = eig_symmetric(s);
    PoleResidueForm form;
    form.lambda_ = eig.values;
    form.w_ = matmul_transA(eig.vectors, b);
    if (!all_finite(form.lambda_.data(), n) ||
        !all_finite(form.w_.data(), n * form.w_.cols()))
      return std::nullopt;
    return form;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

CMat PoleResidueForm::eval(Complex sigma, Complex pref) const {
  const Index n = order();
  const Index p = port_count();
  // One scratch block: d_re, d_im (n each), a_re, a_im (p×n each) and
  // z_re, z_im (p×p each, zeroed for the accumulating products).
  const size_t nn = static_cast<size_t>(n), pn = static_cast<size_t>(p * n),
               pp = static_cast<size_t>(p * p);
  std::vector<double> scratch(2 * (nn + pn + pp));
  double* d_re = scratch.data();
  double* d_im = d_re + nn;
  double* a_re = d_im + nn;
  double* a_im = a_re + pn;
  double* z_re = a_im + pn;
  double* z_im = z_re + pp;
  // d = 1/(1 + σλ), split into real and imaginary parts.
  for (Index k = 0; k < n; ++k) {
    const double lambda = lambda_[static_cast<size_t>(k)];
    const Complex den = 1.0 + sigma * lambda;
    if (den == Complex(0.0, 0.0))
      throw Error(ErrorCode::kSingular,
                  "pole-residue evaluation: frequency point on a pole",
                  {.stage = "model.eval", .index = k, .value = lambda});
    const Complex dk = 1.0 / den;
    d_re[k] = dk.real();
    d_im[k] = dk.imag();
  }
  // Z_re = Wᵀdiag(d_re)W and Z_im = Wᵀdiag(d_im)W. Row-major W (n×p) is
  // Wᵀ column-major with leading dimension p, the panel kernels' layout:
  // scale_cols forms Wᵀdiag(d) and gemm_nt_acc accumulates (Wᵀdiag(d))·W,
  // one column block of the lower triangle at a time.
  const auto& K =
      kernels::panel_kernels<double>(resolve_simd_level(SimdLevel::kAuto));
  K.scale_cols(p, n, w_.data(), p, d_re, a_re, p);
  K.scale_cols(p, n, w_.data(), p, d_im, a_im, p);
  for (Index j0 = 0; j0 < p; j0 += kTriangleBlock) {
    const Index jb = std::min(kTriangleBlock, p - j0);
    const Index off = j0 * p + j0;
    K.gemm_nt_acc(p - j0, jb, n, a_re + j0, p, w_.data() + j0, p, z_re + off, p);
    K.gemm_nt_acc(p - j0, jb, n, a_im + j0, p, w_.data() + j0, p, z_im + off, p);
  }
  // Column-major lower triangle (a ≥ b at b·p + a), mirrored.
  CMat z(p, p);
  for (Index b = 0; b < p; ++b)
    for (Index a = b; a < p; ++a) {
      const Index at = b * p + a;
      z(a, b) = z(b, a) = pref * Complex(z_re[at], z_im[at]);
    }
  return z;
}

std::int64_t PoleResidueForm::bytes() const {
  return static_cast<std::int64_t>(lambda_.size() + w_.rows() * w_.cols()) *
         static_cast<std::int64_t>(sizeof(double));
}

CVec poles_from_eigenvalues(const CVec& lambdas, double s0,
                            SVariable variable) {
  double scale = 0.0;
  for (const Complex& l : lambdas) scale = std::max(scale, std::abs(l));
  CVec poles;
  poles.reserve(lambdas.size() * 2);
  for (const Complex& l : lambdas) {
    if (std::abs(l) <= 1e-13 * scale) continue;  // pole at infinity
    const Complex sigma = Complex(s0, 0.0) - Complex(1.0, 0.0) / l;
    if (variable == SVariable::kS) {
      poles.push_back(sigma);
    } else {
      const Complex root = std::sqrt(sigma);
      poles.push_back(root);
      poles.push_back(-root);
    }
  }
  return poles;
}

CVec poles_from_eigenvalues(const Vec& lambdas, double s0, SVariable variable) {
  return poles_from_eigenvalues(CVec(lambdas.begin(), lambdas.end()), s0,
                                variable);
}

}  // namespace sympvl
