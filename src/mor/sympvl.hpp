// SyMPVL: the paper's top-level algorithm.
//
// Pipeline (Sections 2-4):
//   1. assemble the symmetric MNA pencil (G, C, B);
//   2. factor G (or the shifted G + s₀C of eq. 26) as M J Mᵀ with
//      J = diag(±1) — sparse LDLᵀ on a nested-dissection ordering
//      (kDefaultOrdering) unless the options name another, dense
//      Bunch-Kaufman fallback;
//   3. run the symmetric block-Lanczos process (Algorithm 1) on the
//      operator J⁻¹M⁻¹CM⁻ᵀ with starting block J⁻¹M⁻¹B;
//   4. package (Tₙ, Δₙ, ρₙ) as a ReducedModel evaluating eq. (19).
#pragma once

#include <cstdint>
#include <memory>

#include "circuit/mna.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/options.hpp"
#include "mor/pencil.hpp"
#include "mor/reduced_model.hpp"
#include "obs/histogram.hpp"

namespace sympvl {

/// SyMPVL options: the shared reduction surface (order, s₀, auto_shift,
/// deflation_tol, lookahead_tol, ordering) plus the block-Lanczos knobs.
struct SympvlOptions : CommonReductionOptions {
  /// Full reorthogonalization against all closed clusters (robust default).
  bool full_reorthogonalization = true;
  /// Serious-breakdown guard forwarded to the Lanczos process: a
  /// look-ahead cluster growing past this size stops the iteration at the
  /// last healthy order (0 = unlimited).
  Index max_cluster_size = 8;
};

/// Diagnostics describing how the reduction ran.
struct SympvlReport {
  double s0_used = 0.0;        ///< shift actually applied
  bool used_dense_fallback = false;  ///< Bunch-Kaufman instead of sparse LDLᵀ
  Index negative_j = 0;        ///< negative entries of J (0 for RC/RL/LC)
  Index deflations = 0;
  bool exhausted = false;
  Index achieved_order = 0;
  Index lookahead_clusters = 0;
  std::vector<Index> cluster_sizes;  ///< look-ahead cluster structure

  // -- Recovery trail (the robustness layer's audit log). --
  /// Every factorization rung attempted, in order, with its outcome.
  std::vector<FactorAttemptRecord> factor_attempts;
  /// Shift changes performed after the initial factorization (eq. 26
  /// retries and explicit SympvlSession::reshift calls).
  Index shift_retries = 0;
  /// True when anything beyond the first-choice factorization was needed.
  bool recovered = false;
  /// Breakdown post-mortem from the Lanczos process; `breakdown` mirrors
  /// lanczos_diagnosis.breakdown for quick checking.
  LanczosDiagnosis lanczos_diagnosis;
  bool breakdown = false;

  // -- Per-stage wall times (seconds): each is the duration its obs span
  //    measured, recorded or not. lanczos/total accumulate across
  //    extend() calls. --
  double factor_seconds = 0.0;       ///< sympvl.factor (+ sympvl.reshift)
  double start_block_seconds = 0.0;  ///< sympvl.start_block: J⁻¹M⁻¹B and
                                     ///< the exact 0th moment
  double lanczos_seconds = 0.0;      ///< sympvl.lanczos: Algorithm 1
  double total_seconds = 0.0;

  // -- Memory accounting (bytes; always measured, see DESIGN.md §5.7). --
  /// Resident bytes of the accepted pencil factorization (C matrix, J
  /// and the backend factor storage).
  std::int64_t factor_bytes = 0;
  /// High-water mark of the Krylov state (basis + candidates + T/ρ +
  /// cluster Gram matrices) across all extend() calls so far.
  std::int64_t krylov_peak_bytes = 0;
  /// Process peak RSS (getrusage) at the last report refresh; 0 when the
  /// platform cannot report it.
  std::int64_t peak_rss_bytes = 0;

  // -- Per-step Lanczos latency digest: the durations of the
  //    lanczos.step spans, recorded or not. --
  obs::LatencyStats lanczos_step_stats;

  // -- Sparse-factorization telemetry (zeros on the dense fallback). --
  Index factor_nnz_l = 0;          ///< off-diagonal entries of L
  double factor_fill_ratio = 0.0;  ///< stored factor per lower-tri nnz of A
  double factor_flops = 0.0;       ///< numeric factorization flop count

  // -- Kernel-layer telemetry (see KernelOptions; defaults on the dense
  //    fallback). --
  std::string kernel_path = "simplicial";  ///< numeric kernel actually run
  Index supernode_count = 0;   ///< panels of the supernodal factor (0 =
                               ///< simplicial)
  Index max_panel_width = 0;   ///< widest amalgamated panel
  Index panel_zeros = 0;       ///< explicit zeros stored by relaxation
  std::string simd_level = "scalar";  ///< resolved SIMD dispatch level
  /// Numeric-factorization flop rate (GFLOP/s over factor_seconds; 0 when
  /// unmeasurable or when the accepted factor was a cache hit).
  double factor_gflops = 0.0;

  // -- FactorCache outcome for this reduction's successful rungs (failed
  //    rungs are neither; bypassed acquires count as misses). --
  Index factor_cache_hits = 0;
  Index factor_cache_misses = 0;

  // -- Moment-match diagnostic: the 0th moment of the Padé model,
  //    ρₙᵀΔₙρₙ, against the exact Bᵀ(G+s₀C)⁻¹B (computed from the
  //    factorization, so it costs O(N·p²)). Near machine epsilon whenever
  //    the starting block was captured (matrix-Padé property, eq. 20). --
  double moment0_residual = 0.0;
};

/// Records one factor_pencil() outcome that took `seconds` into `report`:
/// the attempt trail with its cache hit/miss counts and `recovered`, the
/// shift and dense flag, the factor and kernel telemetry, and
/// factor_seconds with the factor_gflops rule. Shared by SympvlSession
/// and the sharded path's priming factorization.
void record_factor_result(const PencilFactorResult& outcome, double seconds,
                          SympvlReport* report);

/// Runs SyMPVL on an assembled MNA system.
ReducedModel sympvl_reduce(const MnaSystem& sys, const SympvlOptions& options,
                           SympvlReport* report = nullptr);

/// Resumable SyMPVL: the Section 7.1 workflow ("running the algorithm 6
/// more iterations results in a perfect match"). The session owns the
/// G = M J Mᵀ factorization and the Lanczos state, so extending an
/// order-n model by k vectors costs k operator applications instead of a
/// full restart — and produces exactly the matrices a fresh order-(n+k)
/// run would (the process is deterministic).
class SympvlSession {
 public:
  /// Factors the system and runs the Lanczos process to options.order.
  SympvlSession(const MnaSystem& sys, const SympvlOptions& options);
  ~SympvlSession();
  SympvlSession(SympvlSession&&) noexcept;
  SympvlSession& operator=(SympvlSession&&) noexcept;
  SympvlSession(const SympvlSession&) = delete;
  SympvlSession& operator=(const SympvlSession&) = delete;

  /// Runs `additional` more Lanczos steps (stops early on exhaustion) and
  /// returns the model at the new order.
  ReducedModel extend(Index additional);

  /// Breakdown recovery (eq. 26): re-factors the pencil at `new_s0`,
  /// restarts the Lanczos process about the new expansion point and runs
  /// it back to the previously requested order. The session keeps its
  /// system copy, so this costs one factorization plus the iteration —
  /// no re-assembly. Returns the model at the recovered order.
  ReducedModel reshift(double new_s0);

  /// True when the last run stopped on a serious breakdown (the model is
  /// truncated at the last healthy order; consider reshift()).
  bool breakdown() const;

  /// The model at the current order.
  ReducedModel current() const;

  /// Accepted Lanczos vectors so far.
  Index order() const;

  /// Diagnostics, refreshed after every extend().
  const SympvlReport& report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Picks the automatic shift used when G is singular: the ratio of the
/// diagonal scales of G and C (a frequency inside the band where both
/// terms of the pencil matter).
double automatic_shift(const MnaSystem& sys);

}  // namespace sympvl
