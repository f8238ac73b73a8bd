// PVL baseline (references [4, 5] of the paper): scalar Padé via the
// classical two-sided (nonsymmetric) Lanczos process.
//
// Used for the Section 3.2 comparison: approximating a p-port transfer
// matrix entry-by-entry requires p² PVL runs (or p(p+1)/2 by symmetry),
// each with its own Krylov spaces, against a single SyMPVL run.
#pragma once

#include <cstdint>

#include "circuit/mna.hpp"
#include "linalg/dense.hpp"
#include "mor/options.hpp"

namespace sympvl {

struct SympvlReport;

/// Scalar reduced model H_n(s) ≈ Z(i,j)(s) from one PVL run.
class PvlModel {
 public:
  PvlModel() = default;
  PvlModel(Mat t, double eta, SVariable variable, int s_prefactor, double s0);

  Index order() const { return t_.rows(); }
  double shift() const { return s0_; }

  /// Evaluates the physical scalar transfer function at s.
  Complex eval(Complex s) const;

  /// kth scalar moment η·e₁ᵀTₙᵏe₁ of the expansion Σₖ(−σ')ᵏ μₖ.
  double moment(Index k) const;

  /// Heap bytes the model holds (the dense Tₙ).
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(t_.rows() * t_.cols()) *
           static_cast<std::int64_t>(sizeof(double));
  }

 private:
  Mat t_;
  double eta_ = 0.0;
  SVariable variable_ = SVariable::kS;
  int s_prefactor_ = 0;
  double s0_ = 0.0;
};

/// PVL options: the shared factoring surface plus the two-sided
/// recurrence's breakdown threshold.
struct PvlOptions : CommonReductionOptions {
  double breakdown_tol = 1e-12;
};

/// Runs PVL on entry (row, col) of the system's Z matrix. A non-null
/// `report` receives the factor trail and telemetry, the achieved order,
/// whether the Krylov space was exhausted, and the stage times.
///
/// Serious breakdown (δₙ ≈ 0) after at least one completed step truncates
/// the model at the last healthy order and puts the post-mortem in the
/// report's lanczos_diagnosis; breakdown on the very first step throws
/// Error(ErrorCode::kBreakdown).
PvlModel pvl_reduce_entry(const MnaSystem& sys, Index row, Index col,
                          const PvlOptions& options,
                          SympvlReport* report = nullptr);

/// Reduces every Z entry. Z = Zᵀ for the symmetric pencils of Section 2,
/// so only the p(p+1)/2 upper-triangle entries run (fanned over the
/// thread pool, sharing one cached pencil factorization); the lower
/// triangle mirrors them. Returns p² models in row-major order; entry
/// (i, j) at index i*p+j.
std::vector<PvlModel> pvl_reduce_all(const MnaSystem& sys,
                                     const PvlOptions& options);

}  // namespace sympvl
