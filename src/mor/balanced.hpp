// Balanced truncation for symmetric RC-form systems — the "gold standard"
// model-order-reduction baseline the Krylov literature (this paper
// included) positions itself against: near-optimal H∞ accuracy with a
// provable error bound, at O(N³) cost that Krylov methods avoid.
//
// For an RC system  C·ẋ = −G·x + B·u,  y = Bᵀx  with C symmetric positive
// definite and G symmetric PSD, the Cholesky change of coordinates
// x̃ = Rᵀx (C = RRᵀ) gives a SYMMETRIC state matrix Ã = −R⁻¹GR⁻ᵀ, so the
// controllability and observability Gramians coincide and the system is
// already balanced in Ã's eigenbasis: the Hankel singular values are the
// eigenvalues of the (single) Gramian
//   P = Q·diag(pᵢ)·Qᵀ,  pᵢⱼ = (Q ᵀB̃B̃ᵀQ)ᵢⱼ/(−λᵢ−λⱼ)  … diagonal entries.
// Truncating to the k dominant Hankel directions yields a reduced model
// with the classical guarantee ‖Z − Z_k‖_{H∞} ≤ 2·Σ_{i>k} σᵢ.
#pragma once

#include "circuit/mna.hpp"
#include "mor/arnoldi.hpp"

namespace sympvl {

/// Balanced-truncation options. The method is dense and direct, so no
/// shift, tolerance or factoring field applies.
struct BalancedOptions {
  /// Retained Hankel directions k.
  Index order = 0;
};

struct BalancedResult {
  ArnoldiModel model;        ///< reduced (Gr, Cr, Br) model (s-domain)
  Vec hankel_singular_values;  ///< all N values, descending
  double error_bound = 0.0;  ///< 2·Σ of the truncated values (H∞ bound)
};

/// Balanced truncation of an RC-form system (variable kS, prefactor 0,
/// C positive definite). Dense O(N³): intended as an accuracy baseline on
/// moderate N, not as a production path.
BalancedResult balanced_truncation(const MnaSystem& sys,
                                   const BalancedOptions& options);

}  // namespace sympvl
