// The option surface the pencil-factoring reduction drivers share
// (SyMPVL, SyPVL, PVL, block Arnoldi): what factor_request reads plus the
// order. Each driver's struct adds only the fields that driver reads
// (sypvl_reduce, see mor/sypvl.hpp, is the one exception). The Lanczos
// process, rational Krylov and balanced truncation have structs of their
// own.
#pragma once

#include "common.hpp"
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

/// Port-sharding knobs (see mor/port_shard.hpp), read only by the sharded
/// SyMPVL path through SympvlOptions::shard.
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

/// Options shared by the drivers that factor G + s₀C through
/// factor_request. No SIMD level: SYMPVL_SIMD and the host probe pick it.
struct CommonReductionOptions {
  /// Requested reduced order n (basis vectors / retained directions).
  Index order = 0;
  /// Expansion shift s₀ in the pencil variable (eq. 26). 0 expands about
  /// DC; required nonzero when G is singular (e.g. the LC PEEC circuit).
  double s0 = 0.0;
  /// Shift policy: when G (or G + s₀C) cannot be factored, pick s₀
  /// automatically from the matrix scales and retry (the paper's PEEC
  /// treatment), then at jittered shifts around it (the reduction ladder,
  /// mor/pencil.hpp).
  bool auto_shift = true;
  /// Sparse factorization ordering for the pencil factor.
  Ordering ordering = kDefaultOrdering;
  /// Factorization cache the driver acquires its pencil factors through
  /// (nullptr = the process-global FactorCache, which
  /// SYMPVL_FACTOR_CACHE=0|off disables and SYMPVL_FACTOR_CACHE_CAP
  /// sizes). It holds real pencil factors only. Pass a disabled
  /// FactorCache to factor fresh every time.
  FactorCache* factor_cache = nullptr;
};

}  // namespace sympvl
