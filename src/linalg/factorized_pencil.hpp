// First-class factorized shifted pencils.
//
// Every reduction driver and sweep engine in this library ultimately
// works with the same object: the symmetric pencil A = G + s₀C factored
// as A = M J Mᵀ with J = diag(±1) (eq. 15 / eq. 26 of the paper). This
// header makes that object concrete:
//
//   * SymmetricOperator — the abstract operator interface the Lanczos
//     process iterates with (replacing the former per-vector
//     std::function closure), with a blocked multi-column apply;
//   * FactorizedPencil — a factorization of G + s₀C that owns its
//     backend (sparse unpivoted LDLᵀ, or the dense Bunch-Kaufman
//     fallback), exposes the split M/J interface, plain and blocked
//     A- and M-solves (the blocked paths route through SparseLDLT's
//     one-pass multi-RHS sweeps), and the Krylov operator J⁻¹M⁻¹CM⁻ᵀ,
//     single-vector and blocked.
//
// FactorizedPencil instances are immutable after construction and safe
// to share across threads — the property FactorCache relies on. Given a
// cache, the sparse backend takes its symbolic analysis from it, so every
// factor of one pencil pattern (each shift of a recovery ladder, a
// reshift, the exact AC check of the same system) shares one analysis.
#pragma once

#include <memory>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_ldlt.hpp"

namespace sympvl {

class FactorCache;

/// Abstract symmetric operator applied by the Lanczos process
/// (Op = J⁻¹M⁻¹CM⁻ᵀ for the paper's drivers; tests may supply anything
/// symmetric w.r.t. the J-inner-product).
class SymmetricOperator {
 public:
  virtual ~SymmetricOperator() = default;

  /// y = Op·v.
  virtual Vec apply(const Vec& v) const = 0;

  /// Blocked form: applies Op to every column. Takes the block by value
  /// so an implementation may work in it: a caller that moves its block
  /// in pays no copy. The default loops over columns (bit-identical to
  /// repeated apply()) for operators without a blocked path;
  /// FactorizedPencil overrides it with one.
  virtual Mat apply_block(Mat v) const;
};

/// Adapts an arbitrary callable Vec(const Vec&) to the operator
/// interface — for tests and ad-hoc operators; the library's own hot
/// paths pass a FactorizedPencil directly.
template <typename F>
class CallableOperator final : public SymmetricOperator {
 public:
  explicit CallableOperator(F fn) : fn_(std::move(fn)) {}
  Vec apply(const Vec& v) const override { return fn_(v); }

 private:
  F fn_;
};

template <typename F>
CallableOperator(F) -> CallableOperator<F>;

/// Assembles the shifted pencil G + shift·C (returns G itself for
/// shift = 0 — no-copy semantics matter for fingerprint stability, so a
/// copy is made regardless, but the sparsity pattern of G is preserved).
SMat assemble_pencil(const SMat& g, const SMat& c, double shift);

/// Relative zero-pivot threshold of the pencil's sparse LDLᵀ backend (the
/// canonical reduction setting; the exact AC, transient and sensitivity
/// solves use 0 through FactorChain instead of FactorizedPencil).
inline constexpr double kPencilZeroPivotTol = 1e-12;

/// How to factor a pencil.
struct PencilFactorOptions {
  double shift = 0.0;                  ///< s₀ of the pencil G + s₀C
  Ordering ordering = kDefaultOrdering;  ///< sparse pre-ordering
  /// Use the dense Bunch-Kaufman backend instead of the sparse LDLᵀ
  /// (the last rung of the SyMPVL recovery ladder).
  bool dense = false;
  /// SIMD level of the sparse backend's panel kernels; ignored by the
  /// dense backend.
  KernelOptions kernels;
};

/// A factored symmetric pencil A = G + s₀C = M J Mᵀ.
///
/// Backends:
///   * sparse (default): unpivoted SparseLDLT with M = PᵀL√|D| and
///     J = sign(D);
///   * dense: Bunch-Kaufman, M from its symmetric_factor() split, with
///     two dense LU factorizations serving M⁻¹ and M⁻ᵀ.
///
/// As a SymmetricOperator it applies the paper's Krylov operator
/// J⁻¹M⁻¹CM⁻ᵀ (step 3a of Algorithm 1).
class FactorizedPencil final : public SymmetricOperator {
 public:
  /// Factors G + shift·C. Throws Error(kSingular) when the backend hits a
  /// zero pivot (sparse) or a singular M (dense). The sparse backend takes
  /// its symbolic analysis from `symbolics` (FactorCache::symbolic), or
  /// computes a private one when it is null.
  FactorizedPencil(const SMat& g, const SMat& c,
                   const PencilFactorOptions& options,
                   FactorCache* symbolics = nullptr);

  Index size() const { return n_; }
  double shift() const { return options_.shift; }
  bool dense() const { return options_.dense; }
  const PencilFactorOptions& options() const { return options_; }
  const SMat& c_matrix() const { return c_; }

  // ---- The split M/J interface (Lanczos starting block, eq. 16). ----
  /// Diagonal of J as ±1 entries.
  const Vec& j_signs() const { return j_; }
  /// x = M⁻¹ b.
  Vec solve_m(const Vec& b) const;
  /// x = M⁻ᵀ b.
  Vec solve_mt(const Vec& b) const;
  /// X = M⁻¹B and X = M⁻ᵀB for an n×p B: one panel pass over all columns
  /// on the sparse backend (per column bit-identical to the vector
  /// solves), the dense backend's LU one column at a time.
  Mat solve_m(const Mat& b) const;
  Mat solve_mt(const Mat& b) const;

  // ---- Plain A-solves (PVL / Arnoldi / moment drivers). ----
  /// x = A⁻¹ b. On the sparse backend this is the LDLᵀ solve verbatim
  /// (same rounding as the pre-refactor drivers).
  Vec solve(const Vec& b) const;
  /// Blocked multi-RHS solve A X = B: one pass over the factor for all
  /// columns on the sparse backend (SparseLDLT::solve(Matrix)).
  Mat solve(const Mat& b) const;

  // ---- The Krylov operator Op = J⁻¹M⁻¹CM⁻ᵀ. ----
  Vec apply(const Vec& v) const override;
  /// Op applied to every column of V at once. On the sparse backend: one
  /// backward panel pass, C·X, one forward panel pass and the J scaling,
  /// all on the whole block in the factor's permuted coordinates; V
  /// itself is the scratch of the backward pass, so the only other N×p
  /// block is the result. Per column bit-identical to apply(). The dense
  /// backend loops over apply().
  Mat apply_block(Mat v) const override;

  // ---- Telemetry. ----
  /// Sparse-factor telemetry (zeros on the dense backend).
  Index l_nnz() const { return ldlt_ ? ldlt_->l_nnz() : 0; }
  double fill_ratio() const { return ldlt_ ? ldlt_->fill_ratio() : 0.0; }
  double flops() const { return ldlt_ ? ldlt_->flops() : 0.0; }
  Index negative_j() const;

  // ---- Kernel-layer telemetry (sparse backend; defaults elsewhere). ----
  Index supernode_count() const { return ldlt_ ? ldlt_->supernode_count() : 0; }
  Index max_panel_width() const { return ldlt_ ? ldlt_->max_panel_width() : 0; }
  Index panel_zeros() const { return ldlt_ ? ldlt_->panel_zeros() : 0; }
  /// Resolved SIMD dispatch level of the panel kernels (kScalar on the
  /// dense backend, where no panel kernels run).
  SimdLevel simd_level() const {
    return ldlt_ ? ldlt_->simd_level() : SimdLevel::kScalar;
  }

  /// Resident bytes of this pencil: the retained C matrix, J, and the
  /// backend factor storage (exact for the sparse LDLᵀ backend; the
  /// dense backend is counted as its two n×n LU factors).
  std::int64_t bytes() const {
    std::int64_t b = static_cast<std::int64_t>(
        c_.nnz() * static_cast<Index>(sizeof(double) + sizeof(Index)) +
        (c_.cols() + 1) * static_cast<Index>(sizeof(Index)) +
        static_cast<Index>(j_.size() * sizeof(double)));
    if (ldlt_) b += ldlt_->factor_bytes();
    if (m_lu_ || mt_lu_)
      b += 2 * static_cast<std::int64_t>(n_) * static_cast<std::int64_t>(n_) *
           static_cast<std::int64_t>(sizeof(double));
    return b;
  }

 private:
  Index n_ = 0;
  PencilFactorOptions options_;
  SMat c_;  // the C term, needed by the operator (and kept so the pencil
            // cannot dangle when the caller's system dies)
  // Sparse backend.
  std::unique_ptr<LDLT> ldlt_;
  // Dense backend: M from Bunch-Kaufman, LU factors of M and Mᵀ.
  std::unique_ptr<LU> m_lu_, mt_lu_;
  Vec j_;
};

}  // namespace sympvl
