// Port-sharded SyMPVL for many-terminal systems (DESIGN.md §5.8).
//
// SyMPVL's block size equals the terminal count p, so on the many-port
// systems real post-layout nets produce (power grids, PEEC extractions
// with hundreds of ports) the monolithic process drowns in block
// orthogonalization: every candidate is J-orthogonalized against every
// closed cluster, an O(n·(n+p)·N) pile of allocation-heavy vector ops.
// Sharding splits B's columns into K clusters, runs one small SyMPVL per
// shard (block size p/K — the pair count drops by ~K), and stitches the
// shard Krylov bases into one congruence-projected model that carries
// the cross-shard coupling blocks the per-shard models individually lack.
//
// Key economies:
//   * One factorization serves all shards: the pencil G + s₀C is factored
//     once (the full SyMPVL ladder, through the FactorCache), and every
//     shard runs its starting block and Lanczos process on that one
//     factor by reference.
//   * The stitch works in M-transformed coordinates. With Q = M⁻ᵀV the
//     congruence projections collapse to small dense kernels on the
//     Lanczos vectors themselves — Ar = VᵀJV, Cr = VᵀJ(OpV), and
//     Br = Ar·blockdiag(ρ_k) by the Lanczos relation R_k = V_kρ_k — no
//     N-dimensional re-orthogonalization on the fast path.
//   * Cross-shard rank deficiency is detected by a pivot-guarded
//     Cholesky of Ar (the union Gram); when it trips — or when J is
//     indefinite — the stitch falls back to the explicit MGS-union +
//     congruence machinery shared with rational_reduce.
//
// Shard failures are contained: a shard that throws (factorization,
// breakdown, injected fault at "sympvl.delta" with index = shard id)
// is excluded from the union basis, its ports keep exact Br columns
// recovered from the starting block, and the run reports kTruncated
// with the failure recorded against stage "shard.<k>".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "mor/options.hpp"

namespace sympvl {

/// Per-run telemetry of the sharding layer.
struct PortShardReport {
  Index shards = 0;                  ///< shard count actually used
  std::string clustering;            ///< "electrical" / "round_robin" / "monolithic"
  std::vector<Index> port_to_shard;  ///< shard of B column j
  std::vector<Index> shard_ports;    ///< ports per shard
  std::vector<Index> shard_orders;   ///< achieved Lanczos order per shard
  std::vector<Index> failed_shards;  ///< shards excluded from the union
  Index stitched_order = 0;          ///< rows of the stitched model
  Index stitch_dropped = 0;          ///< union-basis vectors deflated away
  bool used_fallback_stitch = false; ///< MGS-union path instead of CholQR

  // Stage wall times (seconds), each the duration of its obs span; the
  // run's total is the SympvlReport total in ReduceResult::report.
  double partition_seconds = 0.0;  ///< shard.partition (+ order budget)
  double reduce_seconds = 0.0;     ///< shard.reduce: all shard Lanczos
                                   ///< runs (wall, not CPU-sum)
  double stitch_seconds = 0.0;     ///< shard.stitch

  /// Bytes of the stitch working set (union basis + streamed Gram panel;
  /// charged to the "mem.stitch_bytes" gauge while resident).
  std::int64_t stitch_bytes = 0;
};

/// Resolves the shard count for `ports` columns: an explicit
/// options.shards, else the heuristic (1 shard below 16 ports, ~32 ports
/// per shard beyond, never fewer than 8 ports per shard). Always clamped
/// to [1, ports].
Index resolve_shard_count(const PortShardOptions& options, Index ports);

/// Assigns each of sys.B's columns to one of `shards` shards.
/// kAuto: electrical clustering, a multi-source BFS on the pattern of G
/// and C seeded at farthest-point port anchors (ports sharing mesh
/// neighborhoods land together); kRoundRobin: column j → shard j mod K.
/// Deterministic for fixed inputs.
std::vector<Index> partition_ports(const MnaSystem& sys, Index shards,
                                   ShardClustering clustering);

}  // namespace sympvl
