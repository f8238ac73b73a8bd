// Factorization fallback chain: the robustness layer every solve-based
// pipeline stage goes through instead of committing to a single
// factorization algorithm.
//
// Chain (each rung attempted only when the previous one failed or was
// rejected by the acceptance gates):
//   1. unpivoted sparse LDLᵀ — the fast path for quasi-definite MNA
//      pencils (optionally reusing a shared LdltSymbolic for AC sweeps);
//   2. sparse LU with partial pivoting — survives the exact zero pivots
//      unpivoted elimination hits on e.g. series R-L chains;
//   3. shifted retries — re-assemble G + s₀'C at jittered expansion
//      points (the paper's eq. 26 treatment of singular G) and walk rungs
//      1-2 again. Only available when the chain owns the (G, C) pair.
//
// Acceptance gates, applied to every rung that factors successfully:
//   * condition estimate — when the LDLᵀ pivot ratio looks suspicious the
//     1-norm condition number is estimated (Hager's method; symmetric
//     matrices only need A-solves) and the rung is rejected above
//     `max_condition`;
//   * residual probe — one solve against A·1 with iterative refinement;
//     the rung is rejected when the refined residual stays above
//     `probe_tol`.
//
// Every attempt (success or failure, with its shift, condition estimate
// and failure reason) is recorded so drivers can surface the recovery
// path in their diagnostics, and emitted as obs instants
// ("factor_chain.attempt") so recovery decisions show up in traces.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_lu.hpp"

namespace sympvl {

/// One rung of the chain, as attempted: which method, at which shift,
/// whether it was accepted, and why not when it wasn't.
struct FactorAttemptRecord {
  std::string method;      ///< "ldlt", "lu", "dense_bk", …
  double shift = 0.0;      ///< s₀ the pencil was assembled at
  bool success = false;    ///< accepted as the active factorization
  double condest = 0.0;    ///< 1-norm condition estimate (0 = not measured)
  ErrorCode code = ErrorCode::kUnknown;  ///< failure taxonomy when !success
  std::string detail;      ///< failure message / rejection reason
};

struct FactorChainOptions {
  Ordering ordering = kDefaultOrdering;
  /// Relative zero-pivot threshold handed to the LDLᵀ rung (0 accepts any
  /// nonzero pivot — the right setting for per-frequency AC pencils).
  double zero_pivot_tol = 1e-12;
  /// LDLᵀ pivot-ratio floor below which the condition estimate runs; the
  /// estimate itself costs a handful of extra solves, so it is only
  /// computed when the cheap indicator is suspicious. 0 disables.
  double min_pivot_ratio = 1e-13;
  /// Condition-estimate acceptance gate; a rung whose estimated 1-norm
  /// condition number exceeds this is rejected. 0 disables the gate.
  double max_condition = 1e14;
  /// Residual probe: solve A·x = A·1 once, iteratively refine up to
  /// `probe_refine_iters` times, reject the rung when the relative
  /// residual stays above `probe_tol`. 0 iterations disables the probe.
  double probe_tol = 1e-6;
  Index probe_refine_iters = 2;
  /// Whether the pivoted sparse LU rung is available.
  bool allow_lu = true;
  /// Iterative-refinement steps applied inside solve() (0 = raw solves;
  /// the per-point AC hot path sets 0 and relies on the probe instead).
  Index solve_refine_iters = 0;
  /// Relative residual target for solve() refinement.
  double refine_tol = 1e-9;
  /// Numeric-kernel selection handed to the LDLᵀ rung (the LU rung is
  /// simplicial-only and ignores it).
  KernelOptions kernels;
};

/// Jittered shift ladder for rung 3 (eq. 26 retries): deterministic
/// multiples of `base` spread over ~3 decades so a retry lands away from
/// whatever made the previous shift singular.
std::vector<double> shift_ladder(double base, Index count);

/// Exact 1-norm of a sparse matrix (max column sum).
template <typename T>
double sparse_onenorm(const SparseMatrix<T>& a);

/// Hager-style estimate of ‖A⁻¹‖₁ using only solves with A. Exact
/// transposes are required, so this is valid for (complex-)symmetric A —
/// which every SyMPVL pencil is. `solve` maps b ↦ A⁻¹b.
template <typename T>
double inverse_onenorm_estimate(
    Index n, const std::function<std::vector<T>(const std::vector<T>&)>& solve,
    Index max_iter = 5);

template <typename T>
class FactorChain {
 public:
  /// Owns the (G, C) pencil: factors A = G + shift·C, walking
  /// LDLᵀ → LU at `shift`, then the same rungs at each entry of
  /// `retry_shifts` (pass shift_ladder(...) to enable eq. 26 retries;
  /// empty disables rung 3). Throws Error(kSingular) with the full
  /// attempt history in the message when every rung fails.
  FactorChain(const SparseMatrix<T>& g, const SparseMatrix<T>& c, T shift,
              const std::vector<T>& retry_shifts,
              const FactorChainOptions& options = {});

  /// Single assembled matrix (no shift retries).
  explicit FactorChain(const SparseMatrix<T>& a,
                       const FactorChainOptions& options = {});

  /// Assembled matrix with a shared symbolic analysis for the LDLᵀ rung
  /// (the repeated-factorization AC-sweep path).
  FactorChain(const SparseMatrix<T>& a,
              std::shared_ptr<const LdltSymbolic> symbolic,
              const FactorChainOptions& options = {});

  Index size() const { return a_.rows(); }

  /// Solves A x = b through the accepted rung, with
  /// `solve_refine_iters` steps of iterative refinement when configured.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Blocked multi-RHS solve (one factor pass for all columns on the
  /// LDLᵀ rung; column-by-column on LU). Refinement is applied per
  /// column, only to columns whose residual exceeds the target.
  Matrix<T> solve(const Matrix<T>& b) const;

  /// The shift the accepted pencil was assembled at.
  T shift_used() const { return shift_used_; }

  /// "ldlt" or "lu".
  const char* method() const { return ldlt_ ? "ldlt" : "lu"; }

  /// True when the accepted rung is anything but first-try LDLᵀ.
  bool used_fallback() const { return attempts_.size() > 1; }

  /// Condition estimate of the accepted rung (0 = not measured).
  double condest() const { return condest_; }

  /// Full attempt history, in order.
  const std::vector<FactorAttemptRecord>& attempts() const {
    return attempts_;
  }

  /// Access to the accepted LDLᵀ factor (nullptr when LU won), for
  /// telemetry (fill ratio, flops, pivot ratio).
  const SparseLDLT<T>* ldlt() const { return ldlt_ ? &*ldlt_ : nullptr; }
  const SparseLU<T>* lu() const { return lu_ ? &*lu_ : nullptr; }

  /// Resident bytes of the chain: the retained pencil matrix plus the
  /// accepted factor's storage — what one FactorCache entry costs.
  std::int64_t bytes() const {
    std::int64_t b = static_cast<std::int64_t>(
        a_.nnz() * static_cast<Index>(sizeof(T) + sizeof(Index)) +
        (a_.cols() + 1) * static_cast<Index>(sizeof(Index)));
    if (ldlt_) b += ldlt_->factor_bytes();
    if (lu_) b += lu_->factor_bytes();
    return b;
  }

 private:
  void run_chain(const SparseMatrix<T>* g, const SparseMatrix<T>* c, T shift,
                 const std::vector<T>& retry_shifts,
                 std::shared_ptr<const LdltSymbolic> symbolic);
  bool try_rung(const SparseMatrix<T>& a, T shift, bool use_ldlt,
                const std::shared_ptr<const LdltSymbolic>& symbolic);
  bool accept_rung(const SparseMatrix<T>& a, FactorAttemptRecord& rec);
  std::vector<T> raw_solve(const std::vector<T>& b) const;

  SparseMatrix<T> a_;  // the pencil actually factored (kept for residuals)
  std::optional<SparseLDLT<T>> ldlt_;
  std::optional<SparseLU<T>> lu_;
  T shift_used_{};
  double condest_ = 0.0;
  double a_norm1_ = 0.0;
  std::vector<FactorAttemptRecord> attempts_;
  FactorChainOptions options_;
};

using FactorChainD = FactorChain<double>;
using FactorChainZ = FactorChain<Complex>;

extern template class FactorChain<double>;
extern template class FactorChain<Complex>;

extern template double sparse_onenorm<double>(const SparseMatrix<double>&);
extern template double sparse_onenorm<Complex>(const SparseMatrix<Complex>&);
extern template double inverse_onenorm_estimate<double>(
    Index, const std::function<std::vector<double>(const std::vector<double>&)>&,
    Index);
extern template double inverse_onenorm_estimate<Complex>(
    Index,
    const std::function<std::vector<Complex>(const std::vector<Complex>&)>&,
    Index);

}  // namespace sympvl
