// Post-processing of reduced-order models (Sections 5 and 8 of the paper):
// for general RLC circuits the matrix-Padé models are *not* guaranteed
// stable or passive, but "can be made stable and passive by a suitable
// post-processing of Zₙ". This module implements that post-processing:
//
//   1. modal decomposition — diagonalize Tₙ and rewrite
//        Ẑ(σ) = D + Σₖ Rₖ / (σ − σₖ)
//      as a pole/residue form (exactly equivalent to eq. 19);
//   2. stability enforcement — mirror unstable poles into the left half
//      plane (kFlip) or delete them while preserving the value at the
//      expansion point (kDrop);
//   3. passivity improvement for reciprocal models with real poles —
//      project each residue matrix onto the symmetric PSD cone.
#pragma once

#include <vector>

#include "mor/reduced_model.hpp"

namespace sympvl {

/// Pole/residue form of a reduced model (in the pencil variable σ = f(s)):
///   Ẑ(σ) = D + Σₖ Rₖ/(σ − σₖ),  Z(s) = s^prefactor·Ẑ(f(s)).
class ModalModel {
 public:
  ModalModel(CVec poles, std::vector<CMat> residues, Mat direct,
             SVariable variable, int s_prefactor);

  Index pole_count() const { return static_cast<Index>(poles_.size()); }
  Index port_count() const { return direct_.rows(); }
  const CVec& pencil_poles() const { return poles_; }
  const std::vector<CMat>& residues() const { return residues_; }
  const Mat& direct() const { return direct_; }
  SVariable variable() const { return variable_; }
  int s_prefactor() const { return s_prefactor_; }

  /// Physical Z(s).
  CMat eval(Complex s) const;

  /// Poles mapped to the physical s-plane (σ for kS; ±√σ for kSSquared).
  CVec physical_poles() const;
  bool is_stable(double tol = 1e-9) const;

 private:
  CVec poles_;
  std::vector<CMat> residues_;
  Mat direct_;
  SVariable variable_;
  int s_prefactor_;
};

/// Exact modal decomposition of a reduced model (throws if Tₙ is
/// numerically defective).
ModalModel modal_decompose(const ReducedModel& model);

enum class StabilizeMode {
  kFlip,  ///< mirror unstable poles across the imaginary axis
  kDrop,  ///< delete unstable terms; their value at the expansion point is
          ///< folded into the direct term, so Ẑ(s₀) is preserved exactly
};

struct StabilizeReport {
  Index unstable_poles = 0;
  Index flipped = 0;
  Index dropped = 0;
};

/// Returns a stable model per Section 5's post-processing remark.
ModalModel enforce_stability(const ModalModel& model, StabilizeMode mode,
                             StabilizeReport* report = nullptr);

/// For reciprocal models with (numerically) real poles and residues:
/// symmetrizes each residue and clips its negative eigenvalues, making
/// every term a parallel-RC-realizable PSD contribution (a sufficient
/// condition for passivity of RC-type responses). Throws when poles or
/// residues are markedly complex.
ModalModel enforce_residue_psd(const ModalModel& model, double tol = 1e-6);

}  // namespace sympvl
