// Sparse LDLᵀ factorization (unpivoted, 1×1 pivots) with a fill-reducing
// pre-ordering, templated over real/complex scalars.
//
// This is the workhorse behind
//   * the paper's symmetric factorization G = M J⁻¹ Mᵀ (eq. 15) with
//     M = Pᵀ L √|D| and J = diag(sign D),
//   * exact AC reference sweeps: (G + sC) x = b with complex symmetric
//     (not Hermitian) pencils, and
//   * transient simulation system solves.
//
// Unpivoted LDLᵀ is well defined for the quasi-definite matrices arising
// from shifted RLC MNA systems (G + s₀C has a positive-definite nodal block
// and a negative-definite inductor-current block). The factorization throws
// on an exactly-zero pivot and records the worst pivot ratio so callers can
// fall back to the pivoted SparseLU if required.
//
// For repeated factorizations of matrices sharing one sparsity pattern
// (an AC sweep factors G + sC at hundreds of frequencies; a reduction and
// the exact check of its model factor the same pencil pattern), the
// symbolic analysis — ordering, elimination tree, column counts, and the
// full L pattern — is computed once as an LdltSymbolic and shared (see
// FactorCache::symbolic); only the numeric phase runs per factor.
//
// Two numeric kernels share that symbolic analysis (see KernelOptions in
// linalg/kernels.hpp):
//   * simplicial — the original up-looking column-at-a-time elimination;
//   * supernodal — columns with (near-)identical lower structure are
//     amalgamated into dense panels factored with blocked rank-k updates
//     and solved with blocked multi-RHS panel sweeps.
// The two paths agree entrywise to rounding (≈1e-12 relative on the
// paper's meshes; structural zeros stay exact zeros), produce identical
// pivot-failure behavior (same fault::check sites, same Error), and each
// path's single-RHS and multi-RHS solves run per-column bit-identical
// arithmetic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "obs/memstat.hpp"

namespace sympvl {

/// Pattern-only symbolic analysis shared by repeated numeric
/// factorizations. Depends only on the sparsity structure, not on values
/// or the scalar type.
class LdltSymbolic {
 public:
  /// Analyzes the pattern of a square symmetric matrix (instantiated for
  /// SMat and CSMat).
  template <typename T>
  explicit LdltSymbolic(const SparseMatrix<T>& a,
                        Ordering ordering = kDefaultOrdering);

  Index size() const { return n_; }
  Index l_nnz() const { return l_colptr_.empty() ? 0 : l_colptr_.back(); }
  Ordering ordering() const { return ordering_; }
  const std::vector<Index>& permutation() const { return perm_; }

  /// Resident bytes of the analysis (permutations, permuted pattern,
  /// elimination tree, L pattern) — charged once against the
  /// "mem.factor_bytes" gauge for this object's lifetime, however many
  /// numeric factors share it.
  std::int64_t bytes() const {
    std::int64_t b = 0;
    for (const std::vector<Index>* v :
         {&perm_, &perm_inv_, &p_colptr_, &p_rowind_, &source_, &parent_,
          &l_colptr_, &l_rowind_})
      b += static_cast<std::int64_t>(v->size() * sizeof(Index));
    return b;
  }

  /// Elimination tree over the permuted pattern (-1 marks roots).
  const std::vector<Index>& etree_parent() const { return parent_; }
  /// Off-diagonal entry count of each L column (the lnz vector feeding
  /// supernode detection).
  std::vector<Index> column_counts() const;

 private:
  // Everything after the ordering: permuted pattern, etree, L pattern.
  void analyze(const std::vector<Index>& colptr,
               const std::vector<Index>& rowind);

  template <typename U>
  friend class SparseLDLT;

  Index n_ = 0;
  Ordering ordering_ = kDefaultOrdering;
  std::vector<Index> perm_;      // new -> old
  std::vector<Index> perm_inv_;  // old -> new
  // Permuted pattern and the map from permuted entries to original entry
  // indices (so numeric values can be scattered without re-sorting).
  std::vector<Index> p_colptr_;
  std::vector<Index> p_rowind_;
  std::vector<Index> source_;
  // Elimination tree, L column pointers, and the full L row pattern
  // (each column's rows ascending — exactly the fill order the
  // up-looking numeric phase produces). The supernodal kernel reads
  // per-supernode below-row lists straight out of l_rowind_.
  std::vector<Index> parent_;
  std::vector<Index> l_colptr_;
  std::vector<Index> l_rowind_;
  obs::MemCharge mem_charge_;
};

template <typename T>
class SparseLDLT {
 public:
  /// One-shot: symbolic + numeric. Throws on a zero pivot or
  /// non-square/asymmetric input. `zero_pivot_tol` is a relative threshold
  /// (against the largest |entry| of `a`) below which a pivot is declared
  /// zero: pass 0 to accept any nonzero pivot (AC sweeps near resonances
  /// legitimately produce tiny pivots), or ~1e-12 to detect structurally
  /// singular matrices such as an ungrounded G (the trigger for the
  /// paper's eq. 26 frequency shift). `kernels` selects the numeric path
  /// (default: auto — supernodal for large systems).
  explicit SparseLDLT(const SparseMatrix<T>& a,
                      Ordering ordering = kDefaultOrdering,
                      double zero_pivot_tol = 0.0,
                      const KernelOptions& kernels = {});

  /// Numeric-only factorization reusing a symbolic analysis. `a` must have
  /// exactly the pattern the symbolic was computed from (same colptr and
  /// rowind); its values are not checked for symmetry.
  SparseLDLT(const SparseMatrix<T>& a,
             std::shared_ptr<const LdltSymbolic> symbolic,
             double zero_pivot_tol = 0.0, const KernelOptions& kernels = {});

  /// The one-shot constructor's input check, for callers that bring a
  /// shared analysis: throws unless `a` is square and symmetric to 1e-10
  /// relative to its largest entry.
  static void require_symmetric(const SparseMatrix<T>& a);

  Index size() const { return n_; }

  /// Solves A x = b.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Blocked multi-right-hand-side solve: A X = B for an n×p B. The
  /// forward, diagonal, and backward phases each make ONE pass over the
  /// factor with the p right-hand sides as the contiguous inner
  /// dimension, instead of p independent passes — the natural shape for
  /// solving against all port columns of an MNA system at once. On the
  /// supernodal path this rides the same dense panels as the
  /// factorization; per column it is bit-identical to solve(vector).
  Matrix<T> solve(const Matrix<T>& b) const;

  /// Diagonal D entries (in permuted order).
  const std::vector<T>& d() const { return d_; }

  /// Fill-in: number of stored off-diagonal entries of L (the symbolic
  /// pattern count — relaxed supernodal panels may store explicit zeros
  /// beyond it; see panel_zeros()).
  Index l_nnz() const { return symbolic_->l_nnz(); }

  /// Stored factor entries (nnz(L) + diagonal) per lower-triangle nonzero
  /// of A — 1.0 means no fill-in at all.
  double fill_ratio() const { return fill_ratio_; }

  /// Floating-point operations performed by the numeric factorization
  /// (multiply-add pairs counted as 2).
  double flops() const { return flops_; }

  /// Ratio min|d| / max|d| — a quasi-definiteness health indicator; tiny
  /// values signal that the unpivoted factorization is untrustworthy.
  double pivot_ratio() const { return pivot_ratio_; }

  /// Signs of D as ±1 (the paper's J matrix). Real scalar only.
  Vec j_signs() const;

  /// Number of negative pivots (matrix inertia; equals the number of
  /// negative eigenvalues for the unpivoted real factorization).
  Index negative_pivots() const;

  // --- Kernel-path telemetry. ---
  /// The resolved numeric path this factorization ran.
  KernelPath kernel_path() const { return path_; }
  bool supernodal() const { return path_ == KernelPath::kSupernodal; }
  /// The resolved SIMD dispatch level of the panel kernels (never kAuto).
  SimdLevel simd_level() const { return simd_; }
  /// Number of supernodes (0 on the simplicial path).
  Index supernode_count() const {
    return super_start_.empty() ? 0
                                : static_cast<Index>(super_start_.size()) - 1;
  }
  /// Widest amalgamated panel (0 on the simplicial path).
  Index max_panel_width() const { return max_panel_width_; }
  /// Explicit zeros stored by relaxed amalgamation (0 on the simplicial
  /// path).
  Index panel_zeros() const { return panel_zeros_; }

  /// Resident bytes of the numeric factor: value + index storage of
  /// whichever kernel path ran, the level schedule, and the diagonal.
  /// This is the amount charged against the "mem.factor_bytes" gauge for
  /// this object's lifetime.
  std::int64_t factor_bytes() const {
    return bytes_of(l_colptr_) + bytes_of(l_rowind_) + bytes_of(l_values_) +
           bytes_of(super_start_) + bytes_of(super_of_col_) +
           bytes_of(panel_offset_) + bytes_of(panel_data_) +
           bytes_of(level_ptr_) + bytes_of(level_order_) +
           bytes_of(level_work_) + bytes_of(upd_ptr_) + bytes_of(upd_src_) +
           bytes_of(upd_p1_) + bytes_of(upd_p2_) + bytes_of(d_) +
           bytes_of(sqrt_abs_d_);
  }

  /// The strictly-lower factor L as a CSC matrix over the PERMUTED
  /// indices (unit diagonal implied) — the common currency for comparing
  /// the simplicial and supernodal paths in tests. Gathered from the
  /// panels on demand on the supernodal path.
  SparseMatrix<T> l_matrix() const;

  // --- The M-operator interface used by the Lanczos process (real only). --
  // With A = M J Mᵀ, M = Pᵀ L √|D|:

  /// x = M⁻¹ b  (gather by P, forward-solve L, scale by 1/√|d|).
  std::vector<T> solve_m(const std::vector<T>& b) const;

  /// x = M⁻ᵀ b  (scale by 1/√|d|, back-solve Lᵀ, scatter by Pᵀ).
  std::vector<T> solve_mt(const std::vector<T>& b) const;

  const std::vector<Index>& permutation() const { return symbolic_->perm_; }

 private:
  template <typename V>
  static std::int64_t bytes_of(const V& v) {
    return static_cast<std::int64_t>(v.size() *
                                     sizeof(typename V::value_type));
  }

  static std::shared_ptr<const LdltSymbolic> analyze(const SparseMatrix<T>& a,
                                                     Ordering ordering);
  void factorize(const SparseMatrix<T>& a, double zero_pivot_tol);
  void factorize_simplicial(const std::vector<T>& values, double pivot_floor,
                            double& dmin, double& dmax);
  void factorize_supernodal(const std::vector<T>& values, double pivot_floor,
                            double& dmin, double& dmax);
  void forward_solve(std::vector<T>& x) const;   // L x = b (unit lower)
  void backward_solve(std::vector<T>& x) const;  // Lᵀ x = b
  // Panel sweeps of the supernodal path; x is the permuted workspace laid
  // out row-major n×nrhs. Both solve() overloads funnel through these
  // with nrhs = 1 / p respectively.
  void panel_forward(T* x, Index nrhs) const;
  void panel_backward(T* x, Index nrhs) const;

  Index n_ = 0;
  std::shared_ptr<const LdltSymbolic> symbolic_;
  KernelOptions kernel_options_;
  KernelPath path_ = KernelPath::kSimplicial;
  // Simplicial storage: L in CSC (columns = elimination order), strictly
  // lower, unit diagonal implied.
  std::vector<Index> l_colptr_;
  std::vector<Index> l_rowind_;
  std::vector<T> l_values_;
  // Supernodal storage: column-major dense panels, one per supernode.
  // Panel s covers columns [super_start_[s], super_start_[s+1]) with
  // height w + r: the top w rows are the in-panel triangle (pivots on
  // the diagonal, unit-lower L below it), the bottom r rows are the
  // below-panel L rows whose global indices are the symbolic pattern of
  // the panel's last column.
  std::vector<Index> super_start_;
  std::vector<Index> super_of_col_;
  std::vector<Index> panel_offset_;  // size supernode_count()+1
  std::vector<T> panel_data_;
  Index panel_zeros_ = 0;
  Index max_panel_width_ = 0;
  // Elimination-tree level schedule over supernodes: level_order_ holds
  // supernode indices grouped by tree level (ascending within a level),
  // level_ptr_ delimits the groups. Supernodes within one level have no
  // ancestor/descendant relation, so the panel solves run them in
  // parallel without ordering constraints (the factorization itself is
  // one serial sweep). level_work_ is the dense-entry count per level,
  // the grain gate deciding whether fanning a level out across the thread
  // pool beats running it inline.
  std::vector<Index> level_ptr_;
  std::vector<Index> level_order_;
  std::vector<double> level_work_;
  // Descendant update segments in CSR form keyed by TARGET supernode:
  // segment k of target s (k in [upd_ptr_[s], upd_ptr_[s+1])) says rows
  // [upd_p1_[k], upd_p2_[k]) of descendant upd_src_[k]'s below-panel block
  // land in s's columns. Built once per factorization, d-ascending within
  // each target — the left-looking pull order is deterministic and
  // independent of thread count. Only the numeric factor and the
  // level-parallel forward solve read it; the serial forward solve pushes
  // each supernode's whole below block instead.
  std::vector<Index> upd_ptr_;
  std::vector<Index> upd_src_;
  std::vector<Index> upd_p1_;
  std::vector<Index> upd_p2_;
  SimdLevel simd_ = SimdLevel::kScalar;
  std::vector<T> d_;
  std::vector<typename ScalarTraits<T>::Real> sqrt_abs_d_;
  double pivot_ratio_ = 0.0;
  double fill_ratio_ = 0.0;
  double flops_ = 0.0;
  // Charges factor_bytes() against "mem.factor_bytes" while this
  // factorization is alive; copies duplicate the charge (a copied factor
  // really holds a second copy of the storage).
  obs::MemCharge mem_charge_;
};

using LDLT = SparseLDLT<double>;
using CLDLT = SparseLDLT<Complex>;

extern template class SparseLDLT<double>;
extern template class SparseLDLT<Complex>;

}  // namespace sympvl
