// SyPVL: the single-input single-output (p = 1) predecessor of SyMPVL
// (reference [8] of the paper).
//
// A dedicated three-term symmetric Lanczos recurrence — no blocks, no
// deflation — producing a tridiagonal Tₙ, diagonal Δₙ and scalar ρ₁ with
//   Zₙ(s) = ρ₁² e₁ᵀ Δₙ (I + σ'Tₙ)⁻¹ e₁.
// Kept separate from Algorithm 1 both as the paper's lineage and as an
// independent cross-check of the block code path.
#pragma once

#include "circuit/mna.hpp"
#include "mor/reduced_model.hpp"
#include "mor/sympvl.hpp"

namespace sympvl {

/// Runs SyPVL on a one-port system. Throws if the system has p ≠ 1 ports
/// or if the indefinite recurrence breaks down (δₙ ≈ 0) — use SyMPVL with
/// look-ahead in that case.
///
/// It takes SympvlOptions although it reads neither `shard`,
/// `full_reorthogonalization` nor `max_cluster_size`: it is SyMPVL's
/// p = 1 predecessor, configured as SyMPVL is, and reduce() hands it the
/// same struct.
ReducedModel sypvl_reduce(const MnaSystem& sys, const SympvlOptions& options,
                          SympvlReport* report = nullptr);

/// Recurrence coefficients of the tridiagonal Lanczos matrix, exposed for
/// the Cauer/Foster synthesis path and for tests:
/// diag = t₁₁…tₙₙ, sub = t₂₁…tₙ,ₙ₋₁, deltas = δ₁…δₙ, rho1 = ‖starting vec‖.
struct SypvlCoefficients {
  Vec diag;
  Vec sub;
  Vec deltas;
  double rho1 = 0.0;
};

/// The coefficients of the most recent model (recomputed from the model's
/// tridiagonal matrices).
SypvlCoefficients sypvl_coefficients(const ReducedModel& model);

}  // namespace sympvl
