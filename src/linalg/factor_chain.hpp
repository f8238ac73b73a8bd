// Two-rung factorization fallback of the exact solves: the AC sweep
// points (G + sC), the transient step matrix (C/h + G/2 or C/h + G) and
// the sensitivity pencil.
//
//   1. unpivoted sparse LDLᵀ — the fast path for these symmetric MNA
//      matrices: kDefaultOrdering (or the caller's shared LdltSymbolic),
//      zero-pivot tolerance 0 and default kernels;
//   2. when the LDLᵀ throws, sparse LU with partial pivoting (threshold
//      1.0, tolerance 0) — it survives the exact zero pivots unpivoted
//      elimination hits on e.g. series R-L chains.
//
// The eq. 26 shift recovery belongs to the reductions (mor/pencil.hpp),
// not to this chain. Each rung runs under its fault site ("factor.ldlt"
// at index 0, "factor.lu" at index 1) and emits a "factor_chain.attempt"
// obs instant; when both fail the chain throws kSingular (stage
// "factor_chain") carrying both rungs' reasons.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_lu.hpp"

namespace sympvl {

template <typename T>
class FactorChain {
 public:
  /// Factors `a`, through `symbolic` on the LDLᵀ rung when given.
  explicit FactorChain(const SparseMatrix<T>& a,
                       std::shared_ptr<const LdltSymbolic> symbolic = nullptr);

  std::vector<T> solve(const std::vector<T>& b) const;

  /// Blocked multi-RHS solve (one factor pass for all columns on the
  /// LDLᵀ rung; column by column on LU).
  Matrix<T> solve(const Matrix<T>& b) const;

  /// Resolves `rows` for solve_rows on the rung that holds the
  /// factorization: through the LDLᵀ rung's analysis, or as the rows
  /// alone on LU.
  LdltRowReach row_reach(std::vector<Index> rows) const;

  /// X(reach.rows, :) for A X = B with a real sparse n×p B:
  /// SparseLDLT::solve_rows on the LDLᵀ rung, where `reach` must come from
  /// its analysis; the LU rung solves full columns and gathers the rows.
  Matrix<T> solve_rows(const SMat& b, const LdltRowReach& reach) const;

  /// True when the LU rung holds the factorization.
  bool used_fallback() const { return !ldlt_; }

 private:
  std::optional<SparseLDLT<T>> ldlt_;
  std::optional<SparseLU<T>> lu_;
};

using FactorChainD = FactorChain<double>;
using FactorChainZ = FactorChain<Complex>;

extern template class FactorChain<double>;
extern template class FactorChain<Complex>;

}  // namespace sympvl
