// Multi-point (rational Krylov) reduction — the natural extension of the
// paper's single-expansion-point matrix-Padé approach when a single shift
// cannot cover a wide frequency band.
//
// For each real expansion point s₀ᵢ the block Krylov space
// K((G+s₀ᵢC)⁻¹C, (G+s₀ᵢC)⁻¹B) is generated; the union of all spaces is
// orthonormalized and the original pencil congruence-projected
// (Gr = VᵀGV, Cr = VᵀCV, Br = VᵀB). On the symmetric pencils this library
// targets, the projection matches moments at EVERY expansion point
// simultaneously (same argument as the single-point case — the transfer
// function depends only on the span), trading per-point depth for band
// coverage. Congruence preserves the PSD structure of RC/RL/LC pencils, so
// the multi-point models inherit the Section 5 stability/passivity
// guarantees.
#pragma once

#include <limits>
#include <vector>

#include "circuit/mna.hpp"
#include "mor/arnoldi.hpp"

namespace sympvl {

/// Multi-point options. Each shift factors at the default ordering through
/// `factor_cache` (pivoted-LU fallback), not through the reduction ladder.
struct RationalOptions {
  /// Expansion points in the pencil variable σ (real, ≥ 0; 0 = DC).
  /// At least one required. Points where G + s₀C cannot be factored are
  /// rejected with sympvl::Error.
  Vec shifts;
  /// Block Krylov iterations per expansion point (each contributes up to
  /// `iterations_per_shift · p` basis vectors before deflation).
  Index iterations_per_shift = 2;
  /// Relative deflation threshold of the union-basis MGS (the Arnoldi
  /// default).
  double deflation_tol = 1e-10;
  /// Cache the shifted LDLᵀ factors are acquired through (nullptr = the
  /// process-global FactorCache).
  FactorCache* factor_cache = nullptr;
};

/// Multi-point congruence reduction. The returned model projects the
/// ORIGINAL pencil (no shift folded in), so it evaluates anywhere.
ArnoldiModel rational_reduce(const MnaSystem& sys, const RationalOptions& options);

/// Convenience: logarithmically spaced expansion points covering
/// [f_min, f_max] (mapped into the pencil variable: σ = 2πf for kS,
/// (2πf)² for kSSquared).
Vec rational_shifts_for_band(const MnaSystem& sys, double f_min, double f_max,
                             Index count);

// ---- Union-basis building blocks --------------------------------------
// The two halves of the congruence machinery above, exposed so other
// basis builders (block Arnoldi, multipoint sessions, the port-sharding
// stitch fallback) share one implementation instead of re-deriving it.

/// Appends `block` to `basis` with doubly-applied modified Gram-Schmidt
/// and norm-relative deflation (vectors whose norm collapses below
/// `deflation_tol` times their incoming norm are dropped), stopping once
/// the basis holds `max_size` vectors. Returns the accepted (normalized)
/// vectors, in order.
std::vector<Vec> mgs_union_append(
    std::vector<Vec>& basis, std::vector<Vec> block, double deflation_tol,
    Index max_size = std::numeric_limits<Index>::max());

/// Congruence projection of the pencil shifted to `s0` onto span(basis):
/// Gr = Vᵀ(G + s₀C)V, Cr = VᵀCV, Br = VᵀB, packaged as an ArnoldiModel
/// expanded about s₀. With s₀ = 0 (the default) it projects the ORIGINAL
/// pencil, so the model evaluates anywhere.
ArnoldiModel congruence_project(const MnaSystem& sys,
                                const std::vector<Vec>& basis,
                                double s0 = 0.0);

}  // namespace sympvl
