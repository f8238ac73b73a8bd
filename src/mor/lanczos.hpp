// Symmetric block-Lanczos process with deflation and look-ahead
// (Algorithm 1 of the paper).
//
// Given the operator Op = J⁻¹·A = J⁻¹·M⁻¹CM⁻ᵀ (step 3a) and the starting
// block R = J⁻¹M⁻¹B (step 0), the process builds J-orthogonal Lanczos
// vectors v₁, v₂, … (cluster-wise J-orthogonal when look-ahead occurs) and
// the quantities of eq. (18):
//   Δₙ = VₙᵀJVₙ (block diagonal),  Tₙ = Δₙ⁻¹ Vₙᵀ J (Op Vₙ),  R = V·ρ,
// from which the nth matrix-Padé approximant is
//   Zₙ(s) = ρₙᵀ (Δₙ⁻¹ + sTₙΔₙ⁻¹)⁻¹ ρₙ = ρₙᵀ Δₙ (I + sTₙ)⁻¹ ρₙ   (eq. 19).
//
// Deflation: a candidate whose norm collapses after orthogonalization is
// linearly dependent on the previous vectors and is removed (step 1c-1g);
// the current block size p_c decreases by one. Look-ahead: vectors are
// grouped into clusters; a cluster stays open while its Gram matrix
// Δ^(γ) = V^(γ)ᵀJV^(γ) is numerically singular (step 2b), avoiding the
// breakdowns of the classical indefinite Lanczos process.
//
// The process is resumable: BandLanczos keeps all state, so a model of
// order n can be extended to order n+k without restarting — the usage
// pattern of the paper's Section 7.1 ("running the algorithm 6 more
// iterations results in a perfect match").
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/factorized_pencil.hpp"
#include "mor/options.hpp"
#include "obs/histogram.hpp"
#include "obs/memstat.hpp"

namespace sympvl {

/// Options of the raw Lanczos process. `deflation_tol` (step 1c) and
/// `lookahead_tol` (cluster closes when min|λ(Δ^(γ))| exceeds it, step
/// 2b) come from the shared base; the driver-facing `order`/`s0` fields
/// are unused at this level.
struct LanczosOptions : CommonReductionOptions {
  /// Target number of Lanczos vectors n (the reduced order). Ignored by
  /// the resumable BandLanczos interface (run_to sets the target).
  Index max_order = 0;
  /// When true (default), candidates are J-orthogonalized against every
  /// closed cluster, not only those required by the theoretical band
  /// structure (steps 3b-3d). Costs O(n·N) extra per step and buys
  /// robustness against the gradual loss of J-orthogonality.
  bool full_reorthogonalization = true;
  /// Breakdown guard: a look-ahead cluster that grows past this size
  /// without its Δ^(γ) becoming nonsingular is declared a serious
  /// breakdown — the process stops at the last closed cluster and reports
  /// a LanczosDiagnosis instead of looping forever. 0 = unlimited.
  Index max_cluster_size = 8;
};

/// Structured post-mortem of a stopped process: why the iteration ended
/// early and at which state, so a driver can decide to accept the
/// truncated model, retry at a different shift (eq. 26), or give up.
struct LanczosDiagnosis {
  bool breakdown = false;    ///< serious breakdown detected
  Index cluster = -1;        ///< index of the offending look-ahead cluster
  Index cluster_size = 0;    ///< its size when the guard tripped
  double min_abs_eig = 0.0;  ///< min|λ(Δ^(γ))| of the stuck Gram matrix
  double tol = 0.0;          ///< lookahead_tol the eigenvalue failed to clear
  std::string message;       ///< human-readable summary
};

/// Output of the process (quantities of eq. 18, truncated at the last
/// complete cluster boundary).
struct LanczosResult {
  Mat t;      ///< n×n block-tridiagonal-with-band matrix Tₙ
  Mat delta;  ///< n×n block-diagonal Δₙ
  Mat rho;    ///< n×p matrix ρₙ (rows ≥ p₁ are zero; eq. 19's [ρ; 0])
  Index n = 0;           ///< achieved order
  Index p1 = 0;          ///< starting-block rank after deflation
  Index deflations = 0;  ///< total deflations performed
  bool exhausted = false;  ///< Krylov space exhausted: Zₙ = Z exactly
  std::vector<Index> cluster_sizes;  ///< look-ahead cluster structure
  Index lookahead_clusters = 0;      ///< number of clusters of size > 1
  /// Set when the process stopped on a serious breakdown; the matrices
  /// above are then the last healthy order, not the requested one.
  LanczosDiagnosis diagnosis;
};

/// Resumable Algorithm 1. Construct once, then `run_to(n)` repeatedly with
/// growing targets; `result()` snapshots the eq. (18) quantities at any
/// point. Determinism: run_to(50) followed by run_to(56) produces exactly
/// the matrices a fresh run_to(56) would.
class BandLanczos {
 public:
  /// `op` applies J⁻¹M⁻¹CM⁻ᵀ — a concrete SymmetricOperator (typically a
  /// FactorizedPencil; wrap ad-hoc callables in CallableOperator), held by
  /// reference: the caller keeps it alive for the process lifetime. No
  /// per-vector std::function indirection remains on the step hot path.
  /// `start` holds the p columns of J⁻¹M⁻¹B; `j_signs` is the diagonal of
  /// J (entries ±1; all ones for the positive-semi-definite RC/RL/LC
  /// cases of Section 5).
  BandLanczos(const SymmetricOperator& op, const Mat& start, Vec j_signs,
              const LanczosOptions& options);

  /// Runs until `target` Lanczos vectors have been accepted (or the
  /// Krylov space is exhausted). Returns the accepted count.
  Index run_to(Index target);

  Index order() const { return static_cast<Index>(vs_.size()); }
  bool exhausted() const { return exhausted_; }
  bool breakdown() const { return diagnosis_.breakdown; }
  const LanczosDiagnosis& diagnosis() const { return diagnosis_; }

  /// Number of Lanczos vectors inside closed clusters — the order
  /// result() will deliver (the "last healthy order" after a breakdown).
  Index healthy_order() const;

  /// Snapshot truncated at the last complete look-ahead cluster. After a
  /// breakdown this returns the last healthy order with `diagnosis` set;
  /// it throws Error(kBreakdown) only when not even one cluster closed.
  LanczosResult result() const;

  /// Moves the accepted Lanczos vectors into an N×healthy_order() matrix
  /// (columns v₁ … vₙ, truncated at the last closed cluster, matching
  /// result()), freeing each source vector as its column is written, so
  /// peak memory is ~one basis instead of two. The columns span the
  /// Krylov space in M-transformed coordinates; the physical congruence
  /// basis is M⁻ᵀ·V. Used by the port-sharding stitch. The process is
  /// exhausted afterwards — no further steps possible — and the
  /// "mem.krylov_bytes" charge is re-stated to what remains.
  Mat take_basis();

  /// Bytes of Krylov state resident right now: basis vectors, queued
  /// candidates, the growing T/ρ storage and the cluster Gram matrices.
  /// Mirrored into the "mem.krylov_bytes" gauge after every step.
  std::int64_t krylov_bytes() const;
  /// High-water mark of krylov_bytes() over the process lifetime.
  std::int64_t krylov_peak_bytes() const { return krylov_peak_bytes_; }
  /// Durations of the lanczos.step spans, whether or not obs records
  /// (the SympvlReport latency digest is computed from this).
  const obs::HistogramBins& step_bins() const { return step_bins_; }

 private:
  struct Candidate {
    Vec v;
    Index src = 0;          // ≥ 0: from Op·v_src; < 0: start column src+p
    double ref_norm = 0.0;  // creation norm for the relative deflation test
  };
  struct Cluster {
    std::vector<Index> members;
    Mat delta;
    Mat delta_inv;
    bool closed = false;
  };

  void write_t(Index row, Index src, double value);
  void grow_storage(Index need);
  void orthogonalize_against(Vec& w, Index src, const Cluster& cl);
  bool step();  // one accepted vector; false when exhausted

  const SymmetricOperator* op_;  // non-owning; caller keeps it alive
  Vec j_signs_;
  LanczosOptions options_;
  Index big_n_ = 0;
  Index p_ = 0;

  Mat t_full_;
  Mat rho_full_;
  std::vector<Vec> vs_;
  std::vector<Index> vec_cluster_;
  std::vector<Cluster> clusters_;
  std::set<Index> inexact_clusters_;
  Index gamma_v_ = 0;
  std::deque<Candidate> cand_;
  Index deflations_ = 0;
  bool exhausted_ = false;
  Index lookahead_clusters_ = 0;
  LanczosDiagnosis diagnosis_;

  // Metrics v2: Krylov storage accounting + per-step latency bins.
  obs::MemCharge krylov_charge_;
  std::int64_t krylov_peak_bytes_ = 0;
  obs::HistogramBins step_bins_;
};

/// One-shot convenience wrapper (runs to options.max_order).
LanczosResult band_lanczos(const SymmetricOperator& op, const Mat& start,
                           const Vec& j_signs, const LanczosOptions& options);

}  // namespace sympvl
