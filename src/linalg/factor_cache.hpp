// Bounded, thread-safe LRU cache of real factorized pencils, shared by
// every reduction driver and the multipoint session.
//
// Motivation: a SyMPVL reduction, its reshifts, a PVL p×p entry scan, a
// multipoint refinement loop and a repeat reduction of the same netlist
// all factor the SAME pencil G + s₀C over and over. Factorization is the
// dominant cost for large circuits; the cache turns the repeats into
// lookups.
//
// Keys: a value fingerprint of (G, C) — FNV-1a over dimensions, sparsity
// pattern and values — plus the expansion point, ordering, zero-pivot
// tolerance, backend (sparse/dense) and the resolved kernel path and SIMD
// level. Two calls with equal keys would factor bit-identical pencils, so
// a hit returns numerically identical solves and determinism (1-thread vs
// N-thread bit-equality) is preserved.
//
// Exact AC points are not cached: AcSweepEngine factors each point in a
// call-local FactorChainZ and frees it when the call returns.
//
// Symbolic analyses: beside the LRU, the cache hands out one LdltSymbolic
// per (sparsity pattern, ordering), so a reduction, each of its recovery
// shifts, a reshift and the AC engine of the same system order and
// analyze the pattern once. They are held WEAKLY: an analysis lives
// exactly as long as some cached factor, session or engine uses it, and
// never counts against the LRU's capacity.
//
// Concurrency: lookups and insertions take one mutex; the factorization
// itself (the maker callback) always runs OUTSIDE the lock, so
// concurrent threads never serialize on each other's numeric work. Two
// threads racing on the same missing key both factor; one result is
// inserted, and both receive a valid (identical-valued) factorization.
//
// Fault injection: when any fault spec is armed (fault::active()), the
// cache is bypassed entirely — never read, never written, symbolic
// analyses included — so
// fault-injection drills always exercise the real factorization path
// and armed state cannot leak cached-clean results into a drill (or
// poisoned results out of one).
//
// Observability: obs counters "factor_cache.hit" / "factor_cache.miss" /
// "factor_cache.evict" / "factor_cache.symbolic_hit" /
// "factor_cache.symbolic_miss" (env-gated like all obs), plus an
// always-on FactorCacheStats snapshot for benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "linalg/factorized_pencil.hpp"

namespace sympvl {

/// Value fingerprint of a (G, C) pencil pair: 64-bit FNV-1a over rows,
/// colptr, rowind and values of each matrix. Compute once per system and
/// reuse across acquisitions.
struct PencilFingerprint {
  std::uint64_t g = 0;
  std::uint64_t c = 0;
  /// System dimension, carried so the cache key can store the RESOLVED
  /// kernel path (the kAuto heuristic depends on n and the RHS width).
  Index n = 0;
};

PencilFingerprint fingerprint_pencil(const SMat& g, const SMat& c);

/// Always-on cache telemetry (monotonic since construction or the last
/// reset_stats(), except the byte gauges which track live entries).
struct FactorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Capacity-pressure evictions: entries forced out by an insert past
  /// capacity or a set_capacity() shrink. clear() does not count.
  std::uint64_t evictions = 0;
  /// Factorizations actually performed (misses plus fault-mode bypasses).
  std::uint64_t factorizations = 0;
  /// symbolic() requests served by a live shared analysis, and those that
  /// computed a new one (bypasses count as neither).
  std::uint64_t symbolic_hits = 0;
  std::uint64_t symbolic_misses = 0;
  /// Bytes held by resident entries right now, and the high-water mark
  /// since construction (reset_stats() drops the peak to the current
  /// value). Also mirrored into the process-wide
  /// "factor_cache.resident_bytes" byte gauge.
  std::int64_t resident_bytes = 0;
  std::int64_t peak_resident_bytes = 0;
};

class FactorCache {
 public:
  explicit FactorCache(std::size_t capacity = 32);
  ~FactorCache();
  FactorCache(const FactorCache&) = delete;
  FactorCache& operator=(const FactorCache&) = delete;

  /// The process-wide default instance every driver and engine uses when
  /// no explicit cache is supplied.
  static FactorCache& global();

  using RealMaker = std::function<std::shared_ptr<const FactorizedPencil>()>;

  /// Returns the cached factorization of the pencil identified by
  /// (fingerprint, options), invoking `make` outside the lock on a miss.
  /// Exceptions from `make` propagate; nothing is cached for failed
  /// factorizations (a retry re-attempts). `was_hit`, when non-null,
  /// reports whether the result came from the cache.
  std::shared_ptr<const FactorizedPencil> acquire(
      const PencilFingerprint& fp, const PencilFactorOptions& options,
      const RealMaker& make, bool* was_hit = nullptr);

  /// The symbolic analysis of `pattern` (values ignored) under `ordering`:
  /// the live one keyed by n, nnz, a hash of colptr/rowind and the
  /// ordering, or a new one computed outside the lock and shared from then
  /// on. A fault drill or a disabled cache gets a private analysis.
  std::shared_ptr<const LdltSymbolic> symbolic(const SMat& pattern,
                                               Ordering ordering);

  /// Drops every entry and forgets every shared analysis (stats are kept).
  void clear();
  std::size_t size() const;
  std::size_t capacity() const;
  /// Resizes the LRU bound (evicting immediately when shrinking); 0 is
  /// clamped to 1 like the constructor.
  void set_capacity(std::size_t capacity);
  /// A disabled cache never reads or writes entries: every acquire
  /// factors fresh (factorizations still counted, hits/misses not).
  /// global() starts disabled when SYMPVL_FACTOR_CACHE=0|off and sized by
  /// SYMPVL_FACTOR_CACHE_CAP. A reduction that should not cache passes
  /// its own disabled instance as CommonReductionOptions::factor_cache
  /// rather than flipping the shared one.
  bool enabled() const;
  void set_enabled(bool enabled);
  FactorCacheStats stats() const;
  void reset_stats();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sympvl
