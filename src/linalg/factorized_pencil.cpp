#include "linalg/factorized_pencil.hpp"

#include <utility>

#include "linalg/factor_cache.hpp"
#include "obs/obs.hpp"

namespace sympvl {

Mat SymmetricOperator::apply_block(Mat v) const {
  Mat out(v.rows(), v.cols());
  for (Index col = 0; col < v.cols(); ++col) out.set_col(col, apply(v.col(col)));
  return out;
}

SMat assemble_pencil(const SMat& g, const SMat& c, double shift) {
  return (shift == 0.0) ? g : SMat::add(g, 1.0, c, shift);
}

FactorizedPencil::FactorizedPencil(const SMat& g, const SMat& c,
                                   const PencilFactorOptions& options,
                                   FactorCache* symbolics)
    : n_(g.rows()), options_(options), c_(c) {
  const SMat a = assemble_pencil(g, c, options.shift);
  if (!options.dense) {
    LDLT::require_symmetric(a);
    auto symbolic = symbolics != nullptr
                        ? symbolics->symbolic(a, options.ordering)
                        : std::make_shared<const LdltSymbolic>(a, options.ordering);
    ldlt_ = std::make_unique<LDLT>(a, std::move(symbolic),
                                   kPencilZeroPivotTol, options.kernels);
    j_ = ldlt_->j_signs();
    return;
  }
  const BunchKaufman bk(a.to_dense());
  Mat m;
  bk.symmetric_factor(m, j_);
  m_lu_ = std::make_unique<LU>(m);
  require(!m_lu_->singular(), ErrorCode::kSingular,
          "sympvl: dense symmetric factor is singular",
          ErrorContext{.stage = "sympvl.dense_factor"});
  mt_lu_ = std::make_unique<LU>(m.transpose());
}

Vec FactorizedPencil::solve_m(const Vec& b) const {
  return ldlt_ ? ldlt_->solve_m(b) : m_lu_->solve(b);
}

Vec FactorizedPencil::solve_mt(const Vec& b) const {
  return ldlt_ ? ldlt_->solve_mt(b) : mt_lu_->solve(b);
}

Mat FactorizedPencil::solve_m(const Mat& b) const {
  if (ldlt_) return ldlt_->solve_m(b);
  Mat out(b.rows(), b.cols());
  for (Index col = 0; col < b.cols(); ++col)
    out.set_col(col, m_lu_->solve(b.col(col)));
  return out;
}

Mat FactorizedPencil::solve_mt(const Mat& b) const {
  if (ldlt_) return ldlt_->solve_mt(b);
  Mat out(b.rows(), b.cols());
  for (Index col = 0; col < b.cols(); ++col)
    out.set_col(col, mt_lu_->solve(b.col(col)));
  return out;
}

Vec FactorizedPencil::solve(const Vec& b) const {
  if (ldlt_) return ldlt_->solve(b);
  // A⁻¹ = M⁻ᵀ J M⁻¹ (J² = I).
  Vec x = m_lu_->solve(b);
  for (size_t i = 0; i < x.size(); ++i) x[i] *= j_[i];
  return mt_lu_->solve(x);
}

Mat FactorizedPencil::solve(const Mat& b) const {
  if (ldlt_) return ldlt_->solve(b);
  Mat out(b.rows(), b.cols());
  for (Index col = 0; col < b.cols(); ++col) out.set_col(col, solve(b.col(col)));
  return out;
}

Vec FactorizedPencil::apply(const Vec& v) const {
  // Op v = J⁻¹ M⁻¹ C M⁻ᵀ v, evaluated right to left — the exact operation
  // sequence of the pre-refactor per-driver closures.
  Vec w = solve_mt(v);
  w = c_.multiply(w);
  w = solve_m(w);
  for (size_t i = 0; i < w.size(); ++i) w[i] *= j_[i];
  return w;
}

Mat FactorizedPencil::apply_block(Mat v) const {
  if (!ldlt_) return SymmetricOperator::apply_block(std::move(v));
  require(v.rows() == n_, "FactorizedPencil::apply_block: row count mismatch");
  const Index k = v.cols();
  obs::ScopedTimer span("pencil.apply_block");
  span.arg("n", n_);
  span.arg("nrhs", k);
  // apply()'s four steps on the whole block, in permuted coordinates
  // throughout: x = P·M⁻ᵀV is backward_mt's output before its scatter,
  // and forward_m expects P·(C·M⁻ᵀV), so the C product reads and writes
  // rows through the inverse permutation instead of scattering and
  // gathering copies.
  Mat x = std::move(v);
  ldlt_->backward_mt(x);
  // SparseMatrix::multiply per column of the block: columns j ascending,
  // entries in storage order, zeros of the operand skipped.
  Mat y(n_, k);
  const auto& pinv = ldlt_->inverse_permutation();
  const auto& colptr = c_.colptr();
  const auto& rowind = c_.rowind();
  const auto& cval = c_.values();
  for (Index j = 0; j < n_; ++j) {
    const double* xj = x.data() + pinv[static_cast<size_t>(j)] * k;
    for (Index q = colptr[static_cast<size_t>(j)];
         q < colptr[static_cast<size_t>(j) + 1]; ++q) {
      const double c = cval[static_cast<size_t>(q)];
      double* yi =
          y.data() + pinv[static_cast<size_t>(rowind[static_cast<size_t>(q)])] * k;
      for (Index r = 0; r < k; ++r)
        if (xj[r] != 0.0) yi[r] += c * xj[r];
    }
  }
  x = Mat();
  ldlt_->forward_m(y);
  for (Index i = 0; i < n_; ++i) {
    const double ji = j_[static_cast<size_t>(i)];
    double* yi = y.data() + i * k;
    for (Index r = 0; r < k; ++r) yi[r] *= ji;
  }
  return y;
}

Index FactorizedPencil::negative_j() const {
  Index count = 0;
  for (double jk : j_)
    if (jk < 0.0) ++count;
  return count;
}

}  // namespace sympvl
