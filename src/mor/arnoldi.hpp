// Block-Arnoldi / congruence-projection baseline (reference [16] of the
// paper; the approach later known as PRIMA).
//
// An orthonormal basis V of the block Krylov space K(G̃⁻¹C, G̃⁻¹B) is built
// with a block Arnoldi process and the original matrices are congruence-
// projected: Gr = VᵀG̃V, Cr = VᵀCV, Br = VᵀB. The projected model matches
// only ⌊n/p⌋ moments — half the 2⌊n/p⌋ of the matrix-Padé approach — which
// is exactly the trade-off bench_arnoldi_ablation quantifies.
#pragma once

#include <cstdint>
#include <optional>

#include "circuit/mna.hpp"
#include "linalg/dense.hpp"
#include "mor/options.hpp"
#include "mor/pole_residue.hpp"

namespace sympvl {

struct SympvlReport;

class ArnoldiModel {
 public:
  ArnoldiModel() = default;
  /// Builds the model; when Gr and Cr are symmetric and Gr is positive
  /// definite it also builds the pole–residue form eval() and poles() use.
  ArnoldiModel(Mat gr, Mat cr, Mat br, SVariable variable, int s_prefactor,
               double s0);

  Index order() const { return gr_.rows(); }
  Index port_count() const { return br_.cols(); }
  double shift() const { return s0_; }
  const Mat& gr() const { return gr_; }
  const Mat& cr() const { return cr_; }
  const Mat& br() const { return br_; }

  /// The pole–residue form eval() and poles() use, or nullptr when the
  /// model evaluates through the dense LU (Gr indefinite, singular or
  /// nonsymmetric, e.g. balanced truncation).
  const PoleResidueForm* pole_residue() const {
    return form_ ? &*form_ : nullptr;
  }

  /// Physical Z_r(s) = s^prefactor · Brᵀ(Gr + (f(s)−s₀)Cr)⁻¹Br, through
  /// the pole–residue form when there is one, else a dense complex LU.
  /// Throws when s is a pole.
  CMat eval(Complex s) const;

  /// kth moment Brᵀ(Gr⁻¹Cr)ᵏGr⁻¹Br about the expansion point.
  Mat moment(Index k) const;

  /// Poles in the physical s-plane: σ = s₀ − 1/λ for the eigenvalues λ
  /// of Gr⁻¹Cr (real when the pole–residue form exists), omitting
  /// |λ| ≤ 1e-13·max|λ| (poles at infinity).
  CVec poles() const;
  bool is_stable(double tol = 1e-9) const;

  /// Heap bytes the model holds: Gr, Cr, Br and the pole–residue form.
  std::int64_t bytes() const;

 private:
  Mat gr_, cr_, br_;
  SVariable variable_ = SVariable::kS;
  int s_prefactor_ = 0;
  double s0_ = 0.0;
  std::optional<PoleResidueForm> form_;
};

/// Block-Arnoldi options: the shared factoring surface plus the basis
/// deflation threshold.
struct ArnoldiOptions : CommonReductionOptions {
  /// Relative deflation threshold of the union-basis MGS. Tighter than
  /// SyMPVL's default: orthonormal bases tolerate — and benefit from — a
  /// smaller threshold than the indefinite Lanczos process.
  double deflation_tol = 1e-10;
};

/// Runs the block Arnoldi reduction. A non-null `report` receives the
/// factor trail and telemetry, the achieved order, whether the block
/// Krylov space was exhausted, and the stage times.
ArnoldiModel arnoldi_reduce(const MnaSystem& sys, const ArnoldiOptions& options,
                            SympvlReport* report = nullptr);

}  // namespace sympvl
