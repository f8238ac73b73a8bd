// Shared pencil plumbing for every reduction driver.
//
// Before this module, SyMPVL, SyPVL, PVL, Arnoldi and AWE each carried
// their own copy of the same three fragments: assemble G + s₀C, pick an
// automatic shift when G is singular (eq. 26), and factor with some
// retry policy. This header is the single implementation, layered on the
// linalg FactorizedPencil/FactorCache pair:
//
//   circuit (G, C, B)
//      └─ factor_pencil()  — shift policy + recovery ladder
//           └─ FactorCache — bounded LRU of factorizations
//                └─ FactorizedPencil — M J Mᵀ + operator + solves
//
// Every driver that factors G + s₀C (SyMPVL, SympvlSession::reshift, the
// sharded priming factor, SyPVL, PVL, Arnoldi, exact_moments) walks the
// one recovery ladder: the requested shift, the automatic shift (for a
// requested s₀ = 0), jittered shift_ladder retries, then the dense
// Bunch-Kaufman rung for pencils up to kDenseRungMaxSize. Every attempt
// is recorded; when all rungs fail, kSingular carries the whole history.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/factorized_pencil.hpp"
#include "mor/options.hpp"

namespace sympvl {

/// Largest pencil the dense Bunch-Kaufman rung factors. The rung copies
/// the N×N pencil densely (8·N² bytes per copy) and factors it in O(N³)
/// time, so a larger pencil that no sparse rung can factor fails at once
/// instead.
inline constexpr Index kDenseRungMaxSize = 1024;

/// One rung of the reduction ladder, as attempted: which backend, at which
/// shift, whether it was accepted, and why not when it wasn't.
struct FactorAttemptRecord {
  std::string method;      ///< "ldlt" or "dense_bk"
  double shift = 0.0;      ///< s₀ the pencil was assembled at
  bool success = false;    ///< accepted as the active factorization
  ErrorCode code = ErrorCode::kUnknown;  ///< failure taxonomy when !success
  std::string detail;      ///< failure message, or "cache hit"
};

/// Jittered shifts of the ladder's eq. 26 retries: deterministic
/// multiples of `base` spread over ~3 decades so a retry lands away from
/// whatever made the previous shift singular.
std::vector<double> shift_ladder(double base, Index count);

/// Picks the automatic shift used when G is singular: the ratio of the
/// diagonal scales of G and C (a frequency inside the band where both
/// terms of the pencil matter). Throws kInvalidArgument when C has an
/// empty diagonal (a resistor-only circuit has no useful shift).
double automatic_shift(const SMat& g, const SMat& c);

/// automatic_shift(sys.G, sys.C).
double automatic_shift(const MnaSystem& sys);

/// How factor_pencil should obtain the factorization.
struct PencilFactorRequest {
  double s0 = 0.0;
  /// Whether the ladder may move the expansion point: the automatic
  /// shift (for s₀ = 0) and the jittered retries.
  bool auto_shift = true;
  Ordering ordering = kDefaultOrdering;
  /// Unused: every request walks the one ladder. Kept only because the
  /// repository benchmark still assigns it.
  bool full_ladder = false;
  /// Unused: the dense rung backstops every request up to
  /// kDenseRungMaxSize. Kept only because the repository benchmark still
  /// assigns it.
  bool allow_dense = false;
  /// Driver name used as the failure-message prefix (e.g. "sympvl",
  /// "pvl_reduce_entry").
  const char* driver = "pencil";
  /// Error-context stage on failure (e.g. "sympvl.factor").
  const char* stage = "pencil.factor";
  /// Cache to acquire through (nullptr = FactorCache::global()).
  FactorCache* cache = nullptr;
  /// Unused: the LDLᵀ has one numeric path, so the RHS block width no
  /// longer selects anything. Kept only because the repository benchmark
  /// still assigns it.
  Index rhs_width = 0;
};

/// The request a reduction driver factors its pencil with: the options'
/// s₀, shift policy, ordering and cache, with `driver` as the
/// failure-message prefix and `stage` as the error context. Every sparse
/// rung runs the panel kernels at the level SYMPVL_SIMD and the host
/// probe resolve.
PencilFactorRequest factor_request(const CommonReductionOptions& options,
                                   const char* driver, const char* stage);

struct PencilFactorResult {
  std::shared_ptr<const FactorizedPencil> pencil;
  double s0_used = 0.0;
  bool dense = false;
  /// Every rung attempted, in order (successes marked; cache hits carry
  /// "cache hit" in the detail field).
  std::vector<FactorAttemptRecord> attempts;
};

/// Factors G + s₀C through the cache, walking the recovery ladder (eq. 26):
///   1. sparse LDLᵀ at req.s0;
///   2. with auto_shift and s₀ = 0: sparse LDLᵀ at automatic_shift(g, c);
///   3. with auto_shift: sparse LDLᵀ at shift_ladder(base, 4), base being
///      the automatic shift, else |s₀|, else 1;
///   4. for N ≤ kDenseRungMaxSize: dense Bunch-Kaufman at the shift rungs
///      1–2 settled on (the automatic one when rung 2 applies, else s₀).
/// The automatic shift is computed only once rung 1 has failed; without
/// one (C's diagonal is empty) rung 2 is skipped. Throws kSingular with
/// every attempt in the message when all rungs fail.
PencilFactorResult factor_pencil(const SMat& g, const SMat& c,
                                 const PencilFactorRequest& req);

/// factor_pencil(sys.G, sys.C, req).
PencilFactorResult factor_pencil(const MnaSystem& sys,
                                 const PencilFactorRequest& req);

/// Builds the Lanczos starting block J⁻¹M⁻¹B (step 0 of Algorithm 1):
/// one blocked M⁻¹ solve of all of B's columns, then the J row scaling.
/// On the sparse backend the solve's forward sweep visits only the
/// supernodes B's nonzero rows reach.
Mat starting_block(const FactorizedPencil& pencil, const Mat& b);

}  // namespace sympvl
