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
// Two retry policies exist, matching the historical drivers exactly:
//   * single-attempt with automatic-shift retry (SyPVL, PVL, Arnoldi):
//     try s₀; on failure, when auto_shift is enabled and s₀ = 0, retry
//     once at automatic_shift(sys); otherwise throw kSingular with the
//     driver's message;
//   * the full SyMPVL ladder: requested shift, automatic shift, jittered
//     shift_ladder retries, then (when allowed) the dense Bunch-Kaufman
//     rung — every attempt recorded, kSingular with the whole history
//     when all rungs fail.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/factorized_pencil.hpp"

namespace sympvl {

/// One rung of the reduction ladder, as attempted: which backend, at which
/// shift, whether it was accepted, and why not when it wasn't.
struct FactorAttemptRecord {
  std::string method;      ///< "ldlt" or "dense_bk"
  double shift = 0.0;      ///< s₀ the pencil was assembled at
  bool success = false;    ///< accepted as the active factorization
  ErrorCode code = ErrorCode::kUnknown;  ///< failure taxonomy when !success
  std::string detail;      ///< failure message, or "cache hit"
};

/// Jittered shifts of the full ladder's eq. 26 retries: deterministic
/// multiples of `base` spread over ~3 decades so a retry lands away from
/// whatever made the previous shift singular.
std::vector<double> shift_ladder(double base, Index count);

/// Picks the automatic shift used when G is singular: the ratio of the
/// diagonal scales of G and C (a frequency inside the band where both
/// terms of the pencil matter). Throws kInvalidArgument when C has an
/// empty diagonal (a resistor-only circuit has no useful shift).
double automatic_shift(const MnaSystem& sys);

/// How factor_pencil should obtain the factorization.
struct PencilFactorRequest {
  double s0 = 0.0;
  bool auto_shift = true;
  /// Precomputed automatic shift (0 = none/unavailable). The MnaSystem
  /// overload fills this itself; pass explicitly when factoring a raw
  /// (G, C) pair (e.g. SympvlSession::reshift, which disables it).
  double auto_s0 = 0.0;
  Ordering ordering = kDefaultOrdering;
  /// false: single attempt + one automatic-shift retry (SyPVL/PVL/
  /// Arnoldi/AWE policy). true: the full SyMPVL recovery ladder.
  bool full_ladder = false;
  /// Whether the dense Bunch-Kaufman rung backstops the ladder.
  bool allow_dense = false;
  /// Driver name used as the failure-message prefix (e.g. "sympvl",
  /// "pvl_reduce_entry").
  const char* driver = "pencil";
  /// Error-context stage on failure (e.g. "sympvl.factor").
  const char* stage = "pencil.factor";
  /// Cache to acquire through (nullptr = FactorCache::global()).
  FactorCache* cache = nullptr;
  /// Panel-kernel SIMD level forwarded to every sparse LDLᵀ rung.
  KernelOptions kernels;
  /// Unused: the LDLᵀ has one numeric path, so the RHS block width no
  /// longer selects anything. Kept only because the repository benchmark
  /// still assigns it.
  Index rhs_width = 0;
};

struct PencilFactorResult {
  std::shared_ptr<const FactorizedPencil> pencil;
  double s0_used = 0.0;
  bool dense = false;
  /// Every rung attempted, in order (successes marked; cache hits carry
  /// "cache hit" in the detail field).
  std::vector<FactorAttemptRecord> attempts;
};

/// Factors G + s₀C through the cache with the requested retry policy.
/// The automatic-shift retry of the single-attempt policy uses
/// `req.auto_s0` (no retry when 0).
PencilFactorResult factor_pencil(const SMat& g, const SMat& c,
                                 const PencilFactorRequest& req);

/// System form: resolves the automatic shift from `sys` — eagerly (and
/// forgivingly) for the full ladder, lazily on first failure for the
/// single-attempt policy, matching the historical drivers.
PencilFactorResult factor_pencil(const MnaSystem& sys,
                                 const PencilFactorRequest& req);

/// Builds the Lanczos starting block J⁻¹M⁻¹B (step 0 of Algorithm 1):
/// one blocked M⁻¹ solve of all of B's columns, then the J row scaling.
Mat starting_block(const FactorizedPencil& pencil, const Mat& b);

}  // namespace sympvl
