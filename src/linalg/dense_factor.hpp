// Dense factorizations: LU with partial pivoting (real & complex),
// Cholesky, Householder QR, and Bunch-Kaufman symmetric-indefinite LDLᵀ.
//
// The Bunch-Kaufman factorization provides the dense fallback path for the
// symmetric factorization G = M J⁻¹ Mᵀ of eq. (15) in the paper when the
// sparse unpivoted LDLᵀ encounters an unstable pivot.
#pragma once

#include <vector>

#include "linalg/dense.hpp"

namespace sympvl {

/// LU factorization with partial pivoting: P·A = L·U.
///
/// L is unit lower triangular and stored together with U inside `lu`.
/// `perm[i]` gives the row of A that ended up in position i.
template <typename T>
class DenseLU {
 public:
  explicit DenseLU(const Matrix<T>& a);

  /// Solves A x = b.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Solves A X = B column-by-column.
  Matrix<T> solve(const Matrix<T>& b) const;

  /// True when a zero (or subnormal) pivot made the matrix numerically
  /// singular; solve() throws in that case.
  bool singular() const { return singular_; }

  Index size() const { return lu_.rows(); }

 private:
  Matrix<T> lu_;
  std::vector<Index> perm_;
  bool singular_ = false;
};

using LU = DenseLU<double>;
using CLU = DenseLU<Complex>;

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
/// Throws sympvl::Error if a non-positive pivot is encountered.
class DenseCholesky {
 public:
  explicit DenseCholesky(const Mat& a);

  const Mat& matrix_l() const { return l_; }
  Vec solve(const Vec& b) const;
  Mat solve(const Mat& b) const;

  /// Solves L y = b (forward substitution).
  Vec solve_l(const Vec& b) const;
  /// Solves Lᵀ x = y (backward substitution).
  Vec solve_lt(const Vec& b) const;

 private:
  Mat l_;
};

/// Householder QR factorization A = Q·R with A m×n, m ≥ n.
/// `q_thin()` returns the m×n orthonormal factor, `r()` the n×n upper
/// triangle.
class DenseQR {
 public:
  explicit DenseQR(const Mat& a);

  Mat q_thin() const;

  /// Full m×m orthogonal factor (columns n..m-1 span the orthogonal
  /// complement of range(A)).
  Mat q_full() const;

  Mat r() const;

  /// Numerical rank with relative tolerance `tol` on |r_kk| / max|r_ii|.
  Index rank(double tol = 1e-12) const;

  /// Least-squares solution of min ‖A x − b‖₂ (requires full column rank).
  Vec solve(const Vec& b) const;

 private:
  Mat qr_;       // Householder vectors below diagonal, R on/above.
  Vec beta_;     // Householder scalars.
  Index m_, n_;
};

/// Bunch-Kaufman factorization of a symmetric (possibly indefinite) matrix:
///   Pᵀ A P = L D Lᵀ
/// with L unit lower triangular and D block diagonal (1×1 / 2×2 blocks).
class BunchKaufman {
 public:
  explicit BunchKaufman(const Mat& a);

  /// Solves A x = b.
  Vec solve(const Vec& b) const;

  /// Produces the paper's symmetric factorization (eq. 15):
  ///   A = M J Mᵀ with J = diag(±1)
  /// via M = P L √|D| and eigendecomposition of the 2×2 blocks.
  /// Zero eigen-blocks are rejected with sympvl::Error (use a frequency
  /// shift, eq. 26, instead).
  void symmetric_factor(Mat& m_out, Vec& j_out) const;

 private:
  Mat ld_;                    // L below diagonal, D blocks on diagonal band.
  std::vector<Index> perm_;   // pivot permutation, position -> original row
  std::vector<int> blocks_;   // block structure
  Index n_;
};

/// Convenience: x = A⁻¹ b through dense partial-pivot LU.
template <typename T>
std::vector<T> dense_solve(const Matrix<T>& a, const std::vector<T>& b) {
  return DenseLU<T>(a).solve(b);
}

/// Convenience: X = A⁻¹ B through dense partial-pivot LU.
template <typename T>
Matrix<T> dense_solve(const Matrix<T>& a, const Matrix<T>& b) {
  return DenseLU<T>(a).solve(b);
}

extern template class DenseLU<double>;
extern template class DenseLU<Complex>;

}  // namespace sympvl
