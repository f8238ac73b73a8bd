// Pole–residue form of a reduced pencil (Section 5). For RC, RL and LC
// circuits the reduced pencil (Gr, Cr) is symmetric with Gr positive
// definite, so one Cholesky Gr = LLᵀ and one symmetric eigendecomposition
// L⁻¹CrL⁻ᵀ = YΛYᵀ give V = L⁻ᵀY with VᵀGrV = I and VᵀCrV = Λ, and
//   Brᵀ(Gr + σCr)⁻¹Br = Wᵀ·diag(1/(1 + σλₖ))·W,   W = VᵀBr.
// The model then stores λ (n values) and W (n×p) and evaluates each point
// with two real p×p×n products instead of an n×n complex LU with p
// right-hand sides. The poles σ = −1/λₖ are real.
#pragma once

#include <cstdint>
#include <optional>

#include "circuit/mna.hpp"
#include "linalg/dense.hpp"

namespace sympvl {

/// Pivot-guarded lower Cholesky of a symmetric matrix. Returns false
/// (leaving `l` unspecified) when any pivot falls below tol·max|diag|:
/// the matrix is then indefinite or numerically rank deficient.
bool guarded_cholesky(const Mat& a, double tol, Mat* l);

/// X := L⁻¹X (forward substitution, every column).
void solve_lower_inplace(const Mat& l, Mat* x);

class PoleResidueForm {
 public:
  /// The form of Brᵀ(Gr + σCr)⁻¹Br, or nullopt when Gr or Cr is not
  /// symmetric, Gr fails the pivot-guarded Cholesky, or the result is not
  /// finite. An exact identity Gr (a whitened pencil) skips the Cholesky
  /// and its back-transform. Never throws.
  static std::optional<PoleResidueForm> of_pencil(const Mat& gr, const Mat& cr,
                                                  const Mat& br);

  Index order() const { return static_cast<Index>(lambda_.size()); }
  Index port_count() const { return w_.cols(); }
  /// λₖ, the eigenvalues of Gr⁻¹Cr, ascending.
  const Vec& lambda() const { return lambda_; }
  /// W = VᵀBr (n×p).
  const Mat& w() const { return w_; }

  /// pref·Wᵀ·diag(1/(1 + σλₖ))·W, exactly symmetric. Throws
  /// Error(kSingular) when σ lands on a pole (1 + σλₖ = 0).
  CMat eval(Complex sigma, Complex pref) const;

  /// Heap bytes held: λ and W.
  std::int64_t bytes() const;

 private:
  Vec lambda_;
  Mat w_;
};

/// Physical poles from the eigenvalues λ of the reduced operator (Tₙ or
/// Gr⁻¹Cr): σ = s₀ − 1/λ in the pencil variable, mapped back through
/// s = ±√σ for the LC form. Eigenvalues with |λ| ≤ 1e-13·max|λ| are poles
/// at infinity and are omitted; the cutoff is relative because λ is a
/// time constant in the circuit's units.
CVec poles_from_eigenvalues(const CVec& lambdas, double s0,
                            SVariable variable);

/// Same, for the real eigenvalues of a pole–residue form.
CVec poles_from_eigenvalues(const Vec& lambdas, double s0, SVariable variable);

}  // namespace sympvl
