// Shared option surface for every reduction driver (SyMPVL, SyPVL, PVL,
// block Arnoldi, rational Krylov, balanced truncation, and the raw
// Lanczos process): one base struct holding the fields that used to be
// re-declared — and drift — per driver, with each driver adding only its
// genuinely specific knobs on top.
#pragma once

#include "common.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ordering.hpp"

namespace sympvl {

class FactorCache;

/// How the port-sharding layer assigns B's columns to shards.
enum class ShardClustering {
  /// Electrical clustering (the default): a multi-source BFS on the
  /// pattern of G + s₀C seeded at farthest-point port anchors, so ports
  /// that are electrically close land in the same shard and each shard's
  /// Krylov space stays coherent. Ports whose anchor no seed reaches go
  /// round-robin.
  kAuto,
  /// Column j goes to shard j mod K. Deterministic and topology-free.
  kRoundRobin,
};

/// Port-sharding knobs (see mor/port_shard.hpp). Folded into the common
/// surface, like KernelOptions, so every driver accepts them uniformly
/// and the facade can dispatch on them.
struct PortShardOptions {
  /// Number of shards. 0 = the automatic heuristic (1 shard below 16
  /// ports; ~32 ports per shard beyond, at least 8 per shard).
  Index shards = 0;
  /// Column-to-shard assignment strategy.
  ShardClustering clustering = ShardClustering::kAuto;
  /// Stitch-stage rank tolerance: relative pivot threshold of the union
  /// Gram Cholesky (fast path) and the deflation threshold of the
  /// MGS-union fallback.
  double stitch_tol = 1e-10;
};

/// Options shared by all reduction drivers. Field names are stable API:
/// existing call sites assign `opt.order`, `opt.s0`, … unchanged whether
/// they hold a SympvlOptions, ArnoldiOptions, etc.
struct CommonReductionOptions {
  /// Requested reduced order n (basis vectors / retained directions).
  Index order = 0;
  /// Expansion shift s₀ in the pencil variable (eq. 26). 0 expands about
  /// DC; required nonzero when G is singular (e.g. the LC PEEC circuit).
  double s0 = 0.0;
  /// Shift policy: when G (or G + s₀C) cannot be factored, pick s₀
  /// automatically from the matrix scales and retry (the paper's PEEC
  /// treatment). Drivers that never factor a pencil ignore this.
  bool auto_shift = true;
  /// Relative deflation threshold (paper's dtol, Algorithm 1 step 1c).
  /// Note: Arnoldi/rational default this to 1e-10 in their constructors.
  double deflation_tol = 1e-8;
  /// Look-ahead cluster closure tolerance (Algorithm 1 step 2b); also the
  /// serious-breakdown threshold of the unblocked recurrences.
  double lookahead_tol = 1e-8;
  /// Sparse factorization ordering for the pencil factor.
  Ordering ordering = kDefaultOrdering;
  /// Factorization cache the driver acquires its pencil factors through
  /// (nullptr = the process-global FactorCache, which
  /// SYMPVL_FACTOR_CACHE=0|off disables and SYMPVL_FACTOR_CACHE_CAP
  /// sizes). It holds real pencil factors only. Pass a disabled
  /// FactorCache to factor fresh every time.
  FactorCache* factor_cache = nullptr;
  /// Numeric LDLᵀ kernel selection (simplicial vs supernodal panels, SIMD
  /// level); kAuto resolves per system size and RHS width.
  KernelOptions kernel;
  /// Port-sharding behavior (only consulted by the sharded SyMPVL path;
  /// shards=0 defers to the heuristic).
  PortShardOptions shard;
};

}  // namespace sympvl
