// Cache-blocked dense panel kernels and the supernode machinery behind
// the supernodal LDLᵀ factorization (linalg/sparse_ldlt.hpp).
//
// On the large quasi-banded MNA pencils of the paper's package/PEEC
// examples most adjacent columns of the factor share an identical lower
// structure, so SparseLDLT operates on dense column panels
// ("supernodes"): one rank-k GEMM-style update per descendant supernode
// and one dense in-panel LDLᵀ per panel, with unit stride inner loops
// instead of index-gathered AXPYs. This header holds
//
//   * KernelOptions — the SIMD dispatch level of the panel kernels (env
//     fallback: SYMPVL_SIMD — see linalg/simd.hpp);
//   * detect_supernodes — fundamental supernode detection with relaxed
//     amalgamation up to a fixed fill slack (kRelaxZeros, kRelaxRatio),
//     from the elimination tree and the per-column factor counts alone
//     (O(n)); LdltSymbolic runs it once per sparsity pattern;
//   * PanelKernels — the per-SIMD-level table of dense panel primitives
//     (rank-k panel update, D-scaled column copy, in-panel triangular
//     multi-RHS solves, scattered below-panel updates, diagonal solve)
//     the numeric phase and blocked solves dispatch through.
//     The scalar instance lives in kernels.cpp; the AVX2+FMA and AVX-512
//     instances are one width-generic body (kernels_simd.inc) that
//     kernels.cpp compiles twice, under each level's `target` function
//     attribute, so one binary carries all levels.
//
// Numerical contract: the AVX levels fuse multiply-add chains the scalar
// level rounds twice (agreement to ~1e-12 relative); AVX2 and AVX-512
// run the same fused operations lane for lane and agree bit for bit.
// Within one dispatch level the single-RHS and multi-RHS solves run
// per-column bit-identical arithmetic — both funnel through the same
// kernels, whose remainder lanes use the same fused operations as the
// full vectors, with an independent accumulator chain per right-hand
// side.
//
// At nrhs = 1 a vector across the right-hand sides would hold one live
// lane, so the AVX2 and AVX-512 double kernels switch layout there and
// keep every chain:
//   * below_forward vectorizes over the below rows, 4 per AVX2 vector:
//     unit-stride loads down each panel column, x gathered and written
//     back (a supernode's below rows are distinct). Each row's chain is
//     still acc = 0, acc = fma(L(i,j), xtop[j], acc) for j ascending,
//     then x[row] -= acc.
//   * below_backward runs 4, then 2, then 1 independent column chains
//     sharing each x[rows[i]] load; column j's chain is still i-ascending
//     from zero, subtracted once.
//   * trsm_forward vectorizes down each column j of the triangle, each
//     element the one fused x[i] − L(i,j)·x[j]; trsm_backward is the
//     scalar lane of the general kernel.
// The scalar and complex tables have no separate nrhs = 1 code.
#pragma once

#include <vector>

#include "common.hpp"
#include "linalg/simd.hpp"

namespace sympvl {

/// SIMD-level selection of the panel kernels. The default is the
/// canonical setting every reduction uses. Scalar and vector levels round
/// differently at the 1e-15 level (AVX2 and AVX-512 agree bit for bit),
/// so the FactorCache keys on the level RESOLVED (kAuto resolves through
/// the environment and the host).
struct KernelOptions {
  /// SIMD dispatch level of the dense panel kernels. kAuto resolves via
  /// SYMPVL_SIMD, then a CPUID probe; explicit levels are clamped to what
  /// the host supports (see linalg/simd.hpp).
  SimdLevel simd = SimdLevel::kAuto;
};

/// Supernode partition of the factor's columns: `start` holds the first
/// column of each supernode plus a terminating n, so supernode s spans
/// [start[s], start[s+1]).
struct SupernodePartition {
  std::vector<Index> start;
  /// Explicit zeros the relaxed panels store (0 with relaxation off).
  Index zeros = 0;
  /// Total dense panel entries (triangle + below-rows rectangle).
  Index panel_entries = 0;

  Index count() const { return static_cast<Index>(start.size()) - 1; }
  Index max_width() const {
    Index w = 0;
    for (size_t s = 0; s + 1 < start.size(); ++s)
      w = std::max(w, start[s + 1] - start[s]);
    return w;
  }
};

/// Relaxed-amalgamation slack of the supernodal factor: a column may join
/// the current panel even when the merge stores explicit zeros, as long as
/// the panel keeps at most kRelaxZeros of them AND they stay under
/// kRelaxRatio of the panel's dense entry count. Tuned for the SIMD panel
/// kernels (wider panels amortize the vector microkernels better; measured
/// on the package mesh by bench_kernels — 64/0.25 was the scalar-era
/// optimum). Panel width is uncapped: the rank-k update blocks internally.
inline constexpr Index kRelaxZeros = 128;
inline constexpr double kRelaxRatio = 0.5;

/// Detects supernodes from the elimination tree `parent` and the
/// per-column off-diagonal factor counts `lnz` (both over the permuted
/// pattern). Columns j-1 and j share a supernode only when
/// parent[j-1] == j (an elimination-tree chain, which guarantees the
/// merged panel's below-rows are exactly struct(last column)); the merge
/// is accepted when it introduces no explicit zeros (fundamental) or
/// keeps at most `relax_zeros` explicit zeros that stay under
/// `relax_ratio` of the panel's dense entries. 0/0 admits only
/// fundamental supernodes.
SupernodePartition detect_supernodes(const std::vector<Index>& parent,
                                     const std::vector<Index>& lnz,
                                     Index relax_zeros = kRelaxZeros,
                                     double relax_ratio = kRelaxRatio);

namespace kernels {

// All pointers are __restrict-qualified in the implementations; callers
// must not alias output with inputs (x/xtop overlap in the trsm kernels
// is by design: they solve in place).

/// Per-SIMD-level table of the dense panel primitives. Obtain via
/// panel_kernels<T>(level) with a RESOLVED level (never kAuto); the
/// returned reference is a process-lifetime static.
///
/// Layout conventions shared by every entry:
///   * panels are column-major with leading dimension `ld` (the panel
///     height h = w + r);
///   * right-hand-side blocks are row-major with the nrhs columns
///     contiguous per row (row i at x + i*nrhs) — the "interleaved RHS
///     panel" layout that keeps the multi-RHS inner loops unit-stride.
template <typename T>
struct PanelKernels {
  /// Rank-k panel update C += A · Bᵀ with column-major operands:
  /// A is m×k (lda), B is q×k (ldb), C is m×q (ldc). The workhorse of
  /// the descendant-supernode update.
  void (*gemm_nt_acc)(Index m, Index q, Index k, const T* a, Index lda,
                      const T* b, Index ldb, T* c, Index ldc);
  /// W(:,j) = src(:,j) · d[j] for j in [0, w): the D-scaled middle
  /// segment feeding gemm_nt_acc. src/dst column-major q×w.
  void (*scale_cols)(Index q, Index w, const T* src, Index lds, const T* d,
                     T* dst, Index ldd);
  /// In-panel unit-lower forward solve L X = X over the panel's top w×w
  /// triangle; X is the w-row RHS panel at `x` (row-major, stride nrhs).
  void (*trsm_forward)(Index w, const T* panel, Index ld, Index nrhs, T* x);
  /// In-panel backward solve Lᵀ X = X (same panel/layout contract).
  void (*trsm_backward)(Index w, const T* panel, Index ld, Index nrhs, T* x);
  /// Scattered below-panel forward update: for each below row i,
  ///   X[rows[i], :] -= Σ_j  Lbelow(i, j) · Xtop[j, :]
  /// with Lbelow the r×w block at `lbelow` (element (i,j) at
  /// lbelow[j*ld + i]), Xtop the panel's top rows (w×nrhs) and X the full
  /// RHS block. Accumulate-then-subtract per (row, rhs) pair with the
  /// j-chain ascending.
  void (*below_forward)(Index r, Index w, Index nrhs, const T* lbelow,
                        Index ld, const Index* rows, const T* xtop, T* x);
  /// Scattered below-panel backward update: for each panel column j,
  ///   Xtop[j, :] -= Σ_i  Lbelow(i, j) · X[rows[i], :]
  /// (the transpose of below_forward; i-chain ascending).
  void (*below_backward)(Index r, Index w, Index nrhs, const T* lbelow,
                         Index ld, const Index* rows, const T* x, T* xtop);
  /// Diagonal solve X[i, :] /= d[i] for i in [0, n) (row-major X).
  void (*diag_solve)(Index n, Index nrhs, const T* d, T* x);
  /// y += alpha·x and x *= alpha at this dispatch level (the in-panel
  /// LDLᵀ column operations).
  void (*axpy)(Index n, T alpha, const T* x, T* y);
  void (*scale)(Index n, T alpha, T* x);
};

/// The kernel table for a resolved dispatch level. Levels the build
/// cannot express (non-x86) alias the scalar table; resolve_simd_level
/// guarantees the host can execute whatever it returns.
template <typename T>
const PanelKernels<T>& panel_kernels(SimdLevel level);

/// Columns per block of panel_ldlt.
inline constexpr Index kPanelBlock = 32;

/// Dense in-panel LDLᵀ over a column-major h×w panel (ld = h): the top
/// w×w triangle is factored in place (unit lower L, pivots left on the
/// diagonal) and the trailing (h-w)×w block becomes the below-panel L
/// rows. Right-looking with fused column AXPYs dispatched through `K`,
/// blocked by kPanelBlock columns: a block's columns are factored, then
/// `trailing(k0, k1, apply)` runs apply(c0, c1) over column ranges that
/// cover the trailing columns [k0, k1) — on the caller, or split across
/// threads (the columns are independent). apply(c0, c1) gives each of
/// those columns the block's updates, j ascending, so every entry takes
/// the updates of the unblocked loop in its order, one fused AXPY step
/// each: the blocking changes no bit. Returns the flop count. Pivot
/// acceptance is the caller's job: `pivot` is invoked with
/// (local_column, pivot_value) before the column is used for scaling and
/// may throw.
template <typename T, typename PivotFn, typename TrailingFn>
double panel_ldlt(const PanelKernels<T>& K, Index h, Index w, T* panel,
                  const PivotFn& pivot, const TrailingFn& trailing) {
  // P(i,k) -= L(i,j)·d_j·L(k,j) for i ≥ k: only the lower triangle of
  // the panel is stored, so the multiplier L(k,j) reads from the freshly
  // scaled column j, and d_j stays on its diagonal.
  const auto update = [&](Index j, Index k) {
    const T* colj = panel + j * h;
    const T mult = colj[k] * colj[j];
    K.axpy(h - k, -mult, colj + k, panel + k * h + k);
  };
  double flops = 0.0;
  for (Index j0 = 0; j0 < w; j0 += kPanelBlock) {
    const Index j1 = std::min(w, j0 + kPanelBlock);
    for (Index j = j0; j < j1; ++j) {
      T* colj = panel + j * h;
      const T dj = colj[j];
      pivot(j, dj);
      const Index below = h - j - 1;
      // Scale column j below the diagonal: L(i,j) = P(i,j) / d_j.
      K.scale(below, T(1) / dj, colj + j + 1);
      for (Index k = j + 1; k < j1; ++k) update(j, k);
      flops += static_cast<double>(below) +
               2.0 * static_cast<double>(below) * static_cast<double>(w - j - 1);
    }
    if (j1 < w)
      trailing(j1, w, [&](Index c0, Index c1) {
        for (Index k = c0; k < c1; ++k)
          for (Index j = j0; j < j1; ++j) update(j, k);
      });
  }
  return flops;
}

extern template const PanelKernels<double>& panel_kernels<double>(SimdLevel);
extern template const PanelKernels<Complex>& panel_kernels<Complex>(SimdLevel);

}  // namespace kernels

}  // namespace sympvl
