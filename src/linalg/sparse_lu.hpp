// Sparse LU factorization with partial pivoting (left-looking
// Gilbert-Peierls algorithm), templated over real/complex scalars.
//
// This is the robust counterpart to the unpivoted SparseLDLT: MNA pencils
// G + sC are structurally symmetric but indefinite, and elimination can
// hit exact zero pivots (e.g. series R-L chains cancel node conductances).
// The AC analysis and transient integrator use SparseLU whenever the
// LDLᵀ fast path reports a zero pivot, avoiding the O(N³) dense fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "obs/memstat.hpp"

namespace sympvl {

template <typename T>
class SparseLU {
 public:
  /// Factors P·A·Qᵀ = L·U where Q is a fill-reducing column pre-ordering
  /// of A+Aᵀ (kDefaultOrdering unless given) and P the partial-pivoting
  /// row permutation.
  /// `pivot_threshold` in (0, 1] enables relaxed (threshold) pivoting:
  /// 1.0 is classical partial pivoting; smaller values prefer sparsity.
  /// `zero_pivot_tol` is a relative floor (against the largest |entry| of
  /// `a`) below which the best available pivot is declared zero and the
  /// matrix reported singular; 0 accepts any nonzero pivot.
  explicit SparseLU(const SparseMatrix<T>& a,
                    Ordering ordering = kDefaultOrdering,
                    double pivot_threshold = 1.0, double zero_pivot_tol = 0.0);

  Index size() const { return n_; }

  /// Solves A x = b.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Number of stored entries in L and U.
  Index l_nnz() const { return static_cast<Index>(l_values_.size()); }
  Index u_nnz() const { return static_cast<Index>(u_values_.size()); }

  /// Stored factor entries (nnz(L) + nnz(U)) per nonzero of A.
  double fill_ratio() const { return fill_ratio_; }

  /// Floating-point operations performed by the numeric factorization
  /// (multiply-add pairs counted as 2).
  double flops() const { return flops_; }

  /// Smallest |pivot| / largest |pivot| — conditioning indicator.
  double pivot_ratio() const { return pivot_ratio_; }

  /// Resident bytes of the numeric factors (L/U value + index storage
  /// plus the permutations) — the amount charged against the
  /// "mem.factor_bytes" gauge for this object's lifetime.
  std::int64_t factor_bytes() const {
    return bytes_of(l_colptr_) + bytes_of(l_rowind_) + bytes_of(l_values_) +
           bytes_of(u_colptr_) + bytes_of(u_rowind_) + bytes_of(u_values_) +
           bytes_of(row_perm_) + bytes_of(col_perm_);
  }

 private:
  template <typename V>
  static std::int64_t bytes_of(const V& v) {
    return static_cast<std::int64_t>(v.size() *
                                     sizeof(typename V::value_type));
  }

  Index n_ = 0;
  // L: unit lower triangular in pivot order, CSC; diagonal implied.
  std::vector<Index> l_colptr_, l_rowind_;
  std::vector<T> l_values_;
  // U: upper triangular in pivot order, CSC, diagonal stored last per col.
  std::vector<Index> u_colptr_, u_rowind_;
  std::vector<T> u_values_;
  std::vector<Index> row_perm_;  // pivot position -> original row
  std::vector<Index> col_perm_;  // elimination step -> original column
  double pivot_ratio_ = 0.0;
  double fill_ratio_ = 0.0;
  double flops_ = 0.0;
  // Charges factor_bytes() against "mem.factor_bytes" while this
  // factorization is alive; copies duplicate the charge.
  obs::MemCharge mem_charge_;
};

using LUSparse = SparseLU<double>;
using CLUSparse = SparseLU<Complex>;

extern template class SparseLU<double>;
extern template class SparseLU<Complex>;

}  // namespace sympvl
