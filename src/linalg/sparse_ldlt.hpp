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
// symbolic analysis is computed once as an LdltSymbolic and shared (see
// FactorCache::symbolic); only the numeric phase runs per factor. The
// analysis owns every pattern-only structure: the ordering, the supernode
// partition (columns with (near-)identical lower structure amalgamated
// into dense panels), each supernode's below-row list, the descendant
// update segments and the elimination-tree level schedule. A numeric
// factor holds values only — the dense panels and the diagonal — so the
// real and complex factors of one pattern share one copy of the
// structure.
//
// The numeric factor runs blocked rank-k descendant updates and a dense
// in-panel LDLᵀ per supernode; the solves run blocked multi-RHS panel
// sweeps. Single-RHS and multi-RHS solves run per-column bit-identical
// arithmetic, and a zero pivot raises the same fault::check site and
// Error whatever the SIMD level.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "obs/memstat.hpp"

namespace sympvl {

class LdltSymbolic;

/// A row set resolved against one symbolic analysis for the
/// row-restricted solve (SparseLDLT::solve_rows): the rows whose solution
/// the caller wants, in its own order and original numbering, and the
/// supernodes on their elimination-tree ancestor paths, descending. Only
/// those supernodes feed the wanted rows in the diagonal and backward
/// phases. It depends on the pattern alone, so one reach serves every
/// numeric factor of its analysis.
struct LdltRowReach {
  std::vector<Index> rows;
  std::vector<Index> supernodes;
  /// The analysis that resolved it (null for a rows-only reach).
  const LdltSymbolic* analysis = nullptr;
};

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
  /// Off-diagonal entries of L in the symbolic pattern (relaxed panels
  /// store explicit zeros beyond it; see panel_zeros()).
  Index l_nnz() const { return l_nnz_; }
  Ordering ordering() const { return ordering_; }
  const std::vector<Index>& permutation() const { return perm_; }

  Index supernode_count() const {
    return static_cast<Index>(super_start_.size()) - 1;
  }
  /// Widest amalgamated panel.
  Index max_panel_width() const { return max_panel_width_; }
  /// Explicit zeros stored by relaxed amalgamation.
  Index panel_zeros() const { return panel_zeros_; }
  /// Dense entries of all panels: the value count of every numeric factor.
  Index panel_entries() const { return panel_offset_.back(); }

  /// Resolves `rows` (original numbering) for SparseLDLT::solve_rows: the
  /// supernodes owning them and all their supernodal ancestors. Walks the
  /// elimination tree once; a caller solving the same rows at many
  /// factors of this analysis (an AC sweep) keeps the result.
  LdltRowReach row_reach(std::vector<Index> rows) const;

  /// Resident bytes of the analysis (permutations, permuted pattern,
  /// supernode partition, per-supernode row lists, update segments, level
  /// schedule) — charged once against the "mem.factor_bytes" gauge for
  /// this object's lifetime, however many numeric factors share it.
  std::int64_t bytes() const {
    std::int64_t b = static_cast<std::int64_t>(level_work_.size() *
                                               sizeof(double));
    for (const std::vector<Index>* v :
         {&perm_, &perm_inv_, &p_colptr_, &p_rowind_, &source_,
          &super_start_, &panel_offset_, &row_ptr_, &rows_, &upd_ptr_,
          &upd_src_, &upd_p1_, &upd_p2_, &super_parent_, &level_ptr_,
          &level_order_})
      b += static_cast<std::int64_t>(v->size() * sizeof(Index));
    return b;
  }

 private:
  // Everything after the ordering: permuted pattern, etree, supernodes,
  // row lists, update segments, level schedule.
  void analyze(const std::vector<Index>& colptr,
               const std::vector<Index>& rowind);

  template <typename U>
  friend class SparseLDLT;

  // Panel geometry of supernode s: first column, width w, below rows r,
  // and the r ascending global indices of those rows.
  Index first_col(Index s) const { return super_start_[static_cast<size_t>(s)]; }
  Index width(Index s) const {
    return super_start_[static_cast<size_t>(s) + 1] -
           super_start_[static_cast<size_t>(s)];
  }
  Index below(Index s) const {
    return row_ptr_[static_cast<size_t>(s) + 1] - row_ptr_[static_cast<size_t>(s)];
  }
  const Index* rows(Index s) const {
    return rows_.data() + row_ptr_[static_cast<size_t>(s)];
  }

  Index n_ = 0;
  Index l_nnz_ = 0;
  Ordering ordering_ = kDefaultOrdering;
  std::vector<Index> perm_;      // new -> old
  std::vector<Index> perm_inv_;  // old -> new
  // Permuted pattern and the map from permuted entries to original entry
  // indices (so numeric values can be scattered without re-sorting).
  std::vector<Index> p_colptr_;
  std::vector<Index> p_rowind_;
  std::vector<Index> source_;
  // Supernode partition (detect_supernodes at the fixed slack): supernode
  // s covers columns [super_start_[s], super_start_[s+1]); its dense
  // column-major panel has height w + r and starts at panel_offset_[s] in
  // a factor's value array. The top w rows are the in-panel triangle
  // (pivots on the diagonal, unit-lower L below it), the bottom r rows
  // are the below-panel L rows whose global indices are
  // rows_[row_ptr_[s] .. row_ptr_[s+1]) — the pattern of the panel's last
  // column, ascending.
  std::vector<Index> super_start_;
  std::vector<Index> panel_offset_;
  std::vector<Index> row_ptr_;
  std::vector<Index> rows_;
  Index panel_zeros_ = 0;
  Index max_panel_width_ = 0;
  // Descendant update segments in CSR form keyed by TARGET supernode:
  // segment k of target s (k in [upd_ptr_[s], upd_ptr_[s+1])) says rows
  // [upd_p1_[k], upd_p2_[k]) of descendant upd_src_[k]'s below-panel block
  // land in s's columns, d-ascending within each target — the
  // left-looking pull order of the numeric factor is deterministic and
  // independent of thread count.
  std::vector<Index> upd_ptr_;
  std::vector<Index> upd_src_;
  std::vector<Index> upd_p1_;
  std::vector<Index> upd_p2_;
  // Supernodal elimination tree: the parent of s is the supernode owning
  // s's first below row (-1 for a root). Every below row of s lies on
  // s's ancestor path, and a parent always comes after its children.
  std::vector<Index> super_parent_;
  // Elimination-tree level schedule over supernodes: level_order_ holds
  // supernode indices grouped by tree level (ascending within a level),
  // level_ptr_ delimits the groups. Supernodes within one level have no
  // ancestor/descendant relation, so the backward panel solve runs them
  // in parallel without ordering constraints. level_work_ is the
  // dense-entry count per level, the grain gate deciding whether fanning
  // a level out across the thread pool beats running it inline.
  std::vector<Index> level_ptr_;
  std::vector<Index> level_order_;
  std::vector<double> level_work_;
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
  /// paper's eq. 26 frequency shift). `kernels` selects the SIMD level of
  /// the panel kernels.
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
  /// solving against all port columns of an MNA system at once. It rides
  /// the same dense panels as the factorization; per column it is
  /// bit-identical to solve(vector).
  ///
  /// Every forward sweep (these solves, the M-solves, forward_m) skips a
  /// supernode whose right-hand-side rows are all +0.0 when the sweep
  /// reaches it, so a sparse B pays only for the elimination-tree
  /// ancestors of its nonzero rows. The skip keeps every bit while L is
  /// finite (DESIGN.md §5.6); a non-finite L entry in a skipped panel no
  /// longer turns the rows below it into NaN.
  Matrix<T> solve(const Matrix<T>& b) const;

  /// The row-restricted solve: X(rows, :) for A X = B, with B the n×p
  /// real sparse right-hand side and `reach` this factor's analysis's
  /// row_reach(rows). Row k of the result is X(reach.rows[k], :), bit
  /// for bit the same row of solve(Matrix) on the dense B. B's nonzeros
  /// go straight into the permuted workspace; the forward sweep skips
  /// what they never reach, and the diagonal and backward phases run
  /// over the reach's supernodes only. Runs on the calling thread.
  Matrix<T> solve_rows(const SMat& b, const LdltRowReach& reach) const;

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

  // --- Kernel telemetry. ---
  /// The resolved SIMD dispatch level of the panel kernels (never kAuto).
  SimdLevel simd_level() const { return simd_; }
  Index supernode_count() const { return symbolic_->supernode_count(); }
  Index max_panel_width() const { return symbolic_->max_panel_width(); }
  Index panel_zeros() const { return symbolic_->panel_zeros(); }

  /// Resident bytes of the numeric factor: the panel values and the
  /// diagonal (the structure lives in the shared LdltSymbolic). This is
  /// the amount charged against the "mem.factor_bytes" gauge for this
  /// object's lifetime.
  std::int64_t factor_bytes() const {
    return bytes_of(panel_data_) + bytes_of(d_) + bytes_of(sqrt_abs_d_);
  }

  /// Test hook: the strictly-lower factor L as a CSC matrix over the
  /// PERMUTED indices (unit diagonal implied), gathered from the stored
  /// panel entries with exact zeros dropped.
  SparseMatrix<T> l_matrix() const;

  // --- The M-operator interface used by the Lanczos process (real only). --
  // With A = M J Mᵀ, M = Pᵀ L √|D|:

  /// x = M⁻¹ b  (gather by P, forward-solve L, scale by 1/√|d|).
  std::vector<T> solve_m(const std::vector<T>& b) const;

  /// x = M⁻ᵀ b  (scale by 1/√|d|, back-solve Lᵀ, scatter by Pᵀ).
  std::vector<T> solve_mt(const std::vector<T>& b) const;

  /// X = M⁻¹B for an n×p B: one forward panel pass over all p columns;
  /// per column bit-identical to solve_m(vector).
  Matrix<T> solve_m(const Matrix<T>& b) const;

  /// X = M⁻ᵀB for an n×p B: one backward panel pass over all p columns;
  /// per column bit-identical to solve_mt(vector).
  Matrix<T> solve_mt(const Matrix<T>& b) const;

  /// The halves of the blocked M-solves that run in the factor's permuted
  /// coordinates, in place on an n×p block: forward_m is solve_m without
  /// its gather by P, backward_mt is solve_mt without its scatter by Pᵀ.
  /// A caller that maps its own data through the permutation (the
  /// pencil's blocked operator) chains them without a permuted copy.
  void forward_m(Matrix<T>& x) const;
  void backward_mt(Matrix<T>& x) const;

  /// The shared symbolic analysis this factor was computed on.
  const LdltSymbolic& symbolic() const { return *symbolic_; }

  /// P as new -> old indices, and its inverse (old -> new).
  const std::vector<Index>& permutation() const { return symbolic_->perm_; }
  const std::vector<Index>& inverse_permutation() const {
    return symbolic_->perm_inv_;
  }

 private:
  template <typename V>
  static std::int64_t bytes_of(const V& v) {
    return static_cast<std::int64_t>(v.size() *
                                     sizeof(typename V::value_type));
  }

  static std::shared_ptr<const LdltSymbolic> analyze(const SparseMatrix<T>& a,
                                                     Ordering ordering);
  void factorize(const SparseMatrix<T>& a, double zero_pivot_tol);
  // Panel sweeps; x is the permuted workspace laid out row-major
  // n×nrhs. Every solve funnels through these (nrhs = 1 for the vector
  // solves). L x = b (unit lower) forward, Lᵀ x = b backward.
  void panel_forward(T* x, Index nrhs) const;
  void panel_backward(T* x, Index nrhs) const;
  // The backward step of supernode s alone: its below-panel update, then
  // its in-panel solve.
  void backward_supernode(Index s, T* x, Index nrhs) const;
  // M⁻¹ and M⁻ᵀ in permuted coordinates on the same layout: the forward
  // sweep then the 1/√|d| scaling, and the scaling then the backward
  // sweep. The vector and blocked M-solves share them.
  void scaled_forward(T* x, Index nrhs) const;
  void scaled_backward(T* x, Index nrhs) const;

  Index n_ = 0;
  std::shared_ptr<const LdltSymbolic> symbolic_;
  // Column-major dense panels, one per supernode, laid out by the
  // symbolic analysis (LdltSymbolic::panel_offset_).
  std::vector<T> panel_data_;
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
