#include "linalg/kernels.hpp"

#include <cmath>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
// GCC 12's _mm512_insertf64x4 / _mm512_permute_pd / _mm512_movedup_pd
// route through _mm512_undefined_pd() and trip -Wuninitialized when
// inlined into user code (GCC PR105593); the intrinsics are correct, so
// silence the header for this TU.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define SYMPVL_X86 1
#endif

// GCC/Clang spelling; the panel kernels never alias their operands.
#define SYMPVL_RESTRICT __restrict__

namespace sympvl {

SupernodePartition detect_supernodes(const std::vector<Index>& parent,
                                     const std::vector<Index>& lnz,
                                     Index relax_zeros, double relax_ratio) {
  const Index n = static_cast<Index>(parent.size());
  SupernodePartition part;
  part.start.reserve(static_cast<size_t>(n) + 1);
  if (n == 0) {
    part.start.push_back(0);
    return part;
  }
  // Greedy left-to-right scan. For the candidate panel [a, j] the dense
  // entry count is w(w+1)/2 + w·lnz(j) (triangle + below rectangle, with
  // the below rows being struct(col j) by the chain-containment
  // argument), the actual factor entries are Σ_{i=a..j} (1 + lnz(i)),
  // and the difference is the explicit zeros the merge would store.
  Index a = 0;          // first column of the open panel
  Index actual = 1 + lnz[0];  // Σ (1 + lnz(i)) over the open panel
  auto close = [&](Index end) {
    const Index w = end - a;
    const Index dense = w * (w + 1) / 2 + w * lnz[static_cast<size_t>(end - 1)];
    part.zeros += dense - actual;
    part.panel_entries += dense;
    part.start.push_back(a);
  };
  for (Index j = 1; j < n; ++j) {
    const Index w = j - a + 1;
    if (parent[static_cast<size_t>(j - 1)] == j) {
      const Index cand_actual = actual + 1 + lnz[static_cast<size_t>(j)];
      const Index dense =
          w * (w + 1) / 2 + w * lnz[static_cast<size_t>(j)];
      const Index zeros = dense - cand_actual;
      const bool fundamental =
          lnz[static_cast<size_t>(j - 1)] == lnz[static_cast<size_t>(j)] + 1;
      if (fundamental || (zeros <= relax_zeros &&
                          static_cast<double>(zeros) <=
                              relax_ratio * static_cast<double>(dense))) {
        actual = cand_actual;
        continue;
      }
    }
    close(j);
    a = j;
    actual = 1 + lnz[static_cast<size_t>(j)];
  }
  close(n);
  part.start.push_back(n);
  return part;
}

namespace kernels {

namespace {

// ---------------------------------------------------------------------
// Scalar (portable reference) panel kernels. These define the per-level
// arithmetic contract the vector kernels mirror: trsm_forward runs
// column-of-L outer read-modify-write chains (j ascending per target
// element); the backward solves and the below-panel updates accumulate
// into a register and subtract once.
// ---------------------------------------------------------------------

// y[0..n) += alpha * x[0..n)  (unrolled fused AXPY).
template <typename T>
void axpy_n(Index n, T alpha, const T* x, T* y) {
  const T* SYMPVL_RESTRICT xr = x;
  T* SYMPVL_RESTRICT yr = y;
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    yr[i] += alpha * xr[i];
    yr[i + 1] += alpha * xr[i + 1];
    yr[i + 2] += alpha * xr[i + 2];
    yr[i + 3] += alpha * xr[i + 3];
  }
  for (; i < n; ++i) yr[i] += alpha * xr[i];
}

// x[0..n) *= alpha.
template <typename T>
void scale_n(Index n, T alpha, T* x) {
  T* SYMPVL_RESTRICT xr = x;
  for (Index i = 0; i < n; ++i) xr[i] *= alpha;
}

// One register-blocked tile of the rank-k update: 4 C-columns × 4 rank
// terms. Streams 4 A columns once while feeding 4 C columns — 16
// multiply-adds per loaded element of A.
template <typename T>
inline void gemm_tile_4x4(Index m, const T* SYMPVL_RESTRICT a0,
                          const T* SYMPVL_RESTRICT a1,
                          const T* SYMPVL_RESTRICT a2,
                          const T* SYMPVL_RESTRICT a3, const T* b, Index ldb,
                          Index j, Index kk, T* SYMPVL_RESTRICT c0,
                          T* SYMPVL_RESTRICT c1, T* SYMPVL_RESTRICT c2,
                          T* SYMPVL_RESTRICT c3) {
  const T b00 = b[kk * ldb + j], b01 = b[(kk + 1) * ldb + j],
          b02 = b[(kk + 2) * ldb + j], b03 = b[(kk + 3) * ldb + j];
  const T b10 = b[kk * ldb + j + 1], b11 = b[(kk + 1) * ldb + j + 1],
          b12 = b[(kk + 2) * ldb + j + 1], b13 = b[(kk + 3) * ldb + j + 1];
  const T b20 = b[kk * ldb + j + 2], b21 = b[(kk + 1) * ldb + j + 2],
          b22 = b[(kk + 2) * ldb + j + 2], b23 = b[(kk + 3) * ldb + j + 2];
  const T b30 = b[kk * ldb + j + 3], b31 = b[(kk + 1) * ldb + j + 3],
          b32 = b[(kk + 2) * ldb + j + 3], b33 = b[(kk + 3) * ldb + j + 3];
  for (Index i = 0; i < m; ++i) {
    const T v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
    c0[i] += v0 * b00 + v1 * b01 + v2 * b02 + v3 * b03;
    c1[i] += v0 * b10 + v1 * b11 + v2 * b12 + v3 * b13;
    c2[i] += v0 * b20 + v1 * b21 + v2 * b22 + v3 * b23;
    c3[i] += v0 * b30 + v1 * b31 + v2 * b32 + v3 * b33;
  }
}

template <typename T>
void sc_gemm(Index m, Index q, Index k, const T* a, Index lda, const T* b,
             Index ldb, T* c, Index ldc) {
  Index j = 0;
  for (; j + 4 <= q; j += 4) {
    T* c0 = c + j * ldc;
    T* c1 = c + (j + 1) * ldc;
    T* c2 = c + (j + 2) * ldc;
    T* c3 = c + (j + 3) * ldc;
    Index kk = 0;
    for (; kk + 4 <= k; kk += 4)
      gemm_tile_4x4(m, a + kk * lda, a + (kk + 1) * lda, a + (kk + 2) * lda,
                    a + (kk + 3) * lda, b, ldb, j, kk, c0, c1, c2, c3);
    for (; kk < k; ++kk) {
      const T* SYMPVL_RESTRICT acol = a + kk * lda;
      const T b0 = b[kk * ldb + j], b1 = b[kk * ldb + j + 1],
              b2 = b[kk * ldb + j + 2], b3 = b[kk * ldb + j + 3];
      for (Index i = 0; i < m; ++i) {
        const T v = acol[i];
        c0[i] += v * b0;
        c1[i] += v * b1;
        c2[i] += v * b2;
        c3[i] += v * b3;
      }
    }
  }
  for (; j < q; ++j) {
    T* SYMPVL_RESTRICT cj = c + j * ldc;
    Index kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const T* SYMPVL_RESTRICT a0 = a + kk * lda;
      const T* SYMPVL_RESTRICT a1 = a + (kk + 1) * lda;
      const T* SYMPVL_RESTRICT a2 = a + (kk + 2) * lda;
      const T* SYMPVL_RESTRICT a3 = a + (kk + 3) * lda;
      const T b0 = b[kk * ldb + j], b1 = b[(kk + 1) * ldb + j],
              b2 = b[(kk + 2) * ldb + j], b3 = b[(kk + 3) * ldb + j];
      for (Index i = 0; i < m; ++i)
        cj[i] += a0[i] * b0 + a1[i] * b1 + a2[i] * b2 + a3[i] * b3;
    }
    for (; kk < k; ++kk) {
      const T* SYMPVL_RESTRICT acol = a + kk * lda;
      const T bkj = b[kk * ldb + j];
      for (Index i = 0; i < m; ++i) cj[i] += acol[i] * bkj;
    }
  }
}

template <typename T>
void sc_scale_cols(Index q, Index w, const T* src, Index lds, const T* d,
                   T* dst, Index ldd) {
  for (Index j = 0; j < w; ++j) {
    const T* SYMPVL_RESTRICT s = src + j * lds;
    T* SYMPVL_RESTRICT t = dst + j * ldd;
    const T dj = d[j];
    for (Index i = 0; i < q; ++i) t[i] = s[i] * dj;
  }
}

template <typename T>
void sc_trsm_forward(Index w, const T* panel, Index ld, Index nrhs, T* x) {
  for (Index j = 0; j < w; ++j) {
    const T* lcol = panel + j * ld;
    const T* xj = x + j * nrhs;
    for (Index i = j + 1; i < w; ++i) {
      const T lij = lcol[i];
      T* xi = x + i * nrhs;
      for (Index c = 0; c < nrhs; ++c) xi[c] -= lij * xj[c];
    }
  }
}

template <typename T>
void sc_trsm_backward(Index w, const T* panel, Index ld, Index nrhs, T* x) {
  for (Index j = w; j-- > 0;) {
    const T* lcol = panel + j * ld;
    T* xj = x + j * nrhs;
    for (Index c = 0; c < nrhs; ++c) {
      T acc(0);
      for (Index i = j + 1; i < w; ++i) acc += lcol[i] * x[i * nrhs + c];
      xj[c] -= acc;
    }
  }
}

template <typename T>
void sc_below_forward(Index r, Index w, Index nrhs, const T* lbelow, Index ld,
                      const Index* rows, const T* xtop, T* x) {
  // One pass over the scattered target rows; xtop (w×nrhs) stays hot.
  for (Index i = 0; i < r; ++i) {
    T* xi = x + rows[i] * nrhs;
    const T* li = lbelow + i;  // row i of the below block, stride ld
    for (Index c = 0; c < nrhs; ++c) {
      T acc(0);
      for (Index j = 0; j < w; ++j) acc += li[j * ld] * xtop[j * nrhs + c];
      xi[c] -= acc;
    }
  }
}

template <typename T>
void sc_below_backward(Index r, Index w, Index nrhs, const T* lbelow, Index ld,
                       const Index* rows, const T* x, T* xtop) {
  for (Index j = 0; j < w; ++j) {
    const T* SYMPVL_RESTRICT lcol = lbelow + j * ld;
    T* xj = xtop + j * nrhs;
    for (Index c = 0; c < nrhs; ++c) {
      T acc(0);
      for (Index i = 0; i < r; ++i) acc += lcol[i] * x[rows[i] * nrhs + c];
      xj[c] -= acc;
    }
  }
}

template <typename T>
void sc_diag_solve(Index n, Index nrhs, const T* d, T* x) {
  for (Index i = 0; i < n; ++i) {
    const T di = d[i];
    T* xi = x + i * nrhs;
    for (Index c = 0; c < nrhs; ++c) xi[c] /= di;
  }
}

#if SYMPVL_X86

// ---------------------------------------------------------------------
// AVX2 + FMA double kernels. Remainder lanes use std::fma (doubles) so a
// tail element sees the exact per-lane arithmetic of the full vectors —
// this is what keeps single-RHS and multi-RHS solves bit-identical
// within the level.
// ---------------------------------------------------------------------

#define SYMPVL_TGT_AVX2 __attribute__((target("avx2,fma")))
#define SYMPVL_TGT_AVX512 \
  __attribute__((target("avx512f,avx512vl,avx2,fma")))

SYMPVL_TGT_AVX2
void d2_axpy(Index n, double alpha, const double* x, double* y) {
  const double* SYMPVL_RESTRICT xr = x;
  double* SYMPVL_RESTRICT yr = y;
  const __m256d va = _mm256_set1_pd(alpha);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(yr + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(xr + i),
                                             _mm256_loadu_pd(yr + i)));
    _mm256_storeu_pd(yr + i + 4,
                     _mm256_fmadd_pd(va, _mm256_loadu_pd(xr + i + 4),
                                     _mm256_loadu_pd(yr + i + 4)));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(yr + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(xr + i),
                                             _mm256_loadu_pd(yr + i)));
  for (; i < n; ++i) yr[i] = std::fma(alpha, xr[i], yr[i]);
}

SYMPVL_TGT_AVX2
void d2_scale(Index n, double alpha, double* x) {
  double* SYMPVL_RESTRICT xr = x;
  const __m256d va = _mm256_set1_pd(alpha);
  Index i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(xr + i, _mm256_mul_pd(_mm256_loadu_pd(xr + i), va));
  for (; i < n; ++i) xr[i] *= alpha;
}

SYMPVL_TGT_AVX2
void d2_scale_cols(Index q, Index w, const double* src, Index lds,
                   const double* d, double* dst, Index ldd) {
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT s = src + j * lds;
    double* SYMPVL_RESTRICT t = dst + j * ldd;
    const double dj = d[j];
    const __m256d vd = _mm256_set1_pd(dj);
    Index i = 0;
    for (; i + 4 <= q; i += 4)
      _mm256_storeu_pd(t + i, _mm256_mul_pd(_mm256_loadu_pd(s + i), vd));
    for (; i < q; ++i) t[i] = s[i] * dj;
  }
}

SYMPVL_TGT_AVX2
void d2_gemm(Index m, Index q, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  Index j = 0;
  for (; j + 4 <= q; j += 4) {
    double* SYMPVL_RESTRICT c0 = c + j * ldc;
    double* SYMPVL_RESTRICT c1 = c + (j + 1) * ldc;
    double* SYMPVL_RESTRICT c2 = c + (j + 2) * ldc;
    double* SYMPVL_RESTRICT c3 = c + (j + 3) * ldc;
    Index i = 0;
    // 8-row × 4-column register block: 8 accumulators, 2 A loads and 4
    // broadcasts per rank term.
    for (; i + 8 <= m; i += 8) {
      __m256d p00 = _mm256_loadu_pd(c0 + i), p01 = _mm256_loadu_pd(c0 + i + 4);
      __m256d p10 = _mm256_loadu_pd(c1 + i), p11 = _mm256_loadu_pd(c1 + i + 4);
      __m256d p20 = _mm256_loadu_pd(c2 + i), p21 = _mm256_loadu_pd(c2 + i + 4);
      __m256d p30 = _mm256_loadu_pd(c3 + i), p31 = _mm256_loadu_pd(c3 + i + 4);
      for (Index kk = 0; kk < k; ++kk) {
        const double* SYMPVL_RESTRICT ac = a + kk * lda + i;
        const __m256d a0 = _mm256_loadu_pd(ac), a1 = _mm256_loadu_pd(ac + 4);
        const double* bk = b + kk * ldb + j;
        __m256d bv = _mm256_set1_pd(bk[0]);
        p00 = _mm256_fmadd_pd(a0, bv, p00);
        p01 = _mm256_fmadd_pd(a1, bv, p01);
        bv = _mm256_set1_pd(bk[1]);
        p10 = _mm256_fmadd_pd(a0, bv, p10);
        p11 = _mm256_fmadd_pd(a1, bv, p11);
        bv = _mm256_set1_pd(bk[2]);
        p20 = _mm256_fmadd_pd(a0, bv, p20);
        p21 = _mm256_fmadd_pd(a1, bv, p21);
        bv = _mm256_set1_pd(bk[3]);
        p30 = _mm256_fmadd_pd(a0, bv, p30);
        p31 = _mm256_fmadd_pd(a1, bv, p31);
      }
      _mm256_storeu_pd(c0 + i, p00);
      _mm256_storeu_pd(c0 + i + 4, p01);
      _mm256_storeu_pd(c1 + i, p10);
      _mm256_storeu_pd(c1 + i + 4, p11);
      _mm256_storeu_pd(c2 + i, p20);
      _mm256_storeu_pd(c2 + i + 4, p21);
      _mm256_storeu_pd(c3 + i, p30);
      _mm256_storeu_pd(c3 + i + 4, p31);
    }
    for (; i + 4 <= m; i += 4) {
      __m256d p0 = _mm256_loadu_pd(c0 + i);
      __m256d p1 = _mm256_loadu_pd(c1 + i);
      __m256d p2 = _mm256_loadu_pd(c2 + i);
      __m256d p3 = _mm256_loadu_pd(c3 + i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_loadu_pd(a + kk * lda + i);
        const double* bk = b + kk * ldb + j;
        p0 = _mm256_fmadd_pd(av, _mm256_set1_pd(bk[0]), p0);
        p1 = _mm256_fmadd_pd(av, _mm256_set1_pd(bk[1]), p1);
        p2 = _mm256_fmadd_pd(av, _mm256_set1_pd(bk[2]), p2);
        p3 = _mm256_fmadd_pd(av, _mm256_set1_pd(bk[3]), p3);
      }
      _mm256_storeu_pd(c0 + i, p0);
      _mm256_storeu_pd(c1 + i, p1);
      _mm256_storeu_pd(c2 + i, p2);
      _mm256_storeu_pd(c3 + i, p3);
    }
    for (; i < m; ++i) {
      double s0 = c0[i], s1 = c1[i], s2 = c2[i], s3 = c3[i];
      for (Index kk = 0; kk < k; ++kk) {
        const double v = a[kk * lda + i];
        const double* bk = b + kk * ldb + j;
        s0 = std::fma(v, bk[0], s0);
        s1 = std::fma(v, bk[1], s1);
        s2 = std::fma(v, bk[2], s2);
        s3 = std::fma(v, bk[3], s3);
      }
      c0[i] = s0;
      c1[i] = s1;
      c2[i] = s2;
      c3[i] = s3;
    }
  }
  for (; j < q; ++j) {
    double* SYMPVL_RESTRICT cj = c + j * ldc;
    Index i = 0;
    for (; i + 8 <= m; i += 8) {
      __m256d p0 = _mm256_loadu_pd(cj + i), p1 = _mm256_loadu_pd(cj + i + 4);
      for (Index kk = 0; kk < k; ++kk) {
        const double* SYMPVL_RESTRICT ac = a + kk * lda + i;
        const __m256d bv = _mm256_set1_pd(b[kk * ldb + j]);
        p0 = _mm256_fmadd_pd(_mm256_loadu_pd(ac), bv, p0);
        p1 = _mm256_fmadd_pd(_mm256_loadu_pd(ac + 4), bv, p1);
      }
      _mm256_storeu_pd(cj + i, p0);
      _mm256_storeu_pd(cj + i + 4, p1);
    }
    for (; i + 4 <= m; i += 4) {
      __m256d p0 = _mm256_loadu_pd(cj + i);
      for (Index kk = 0; kk < k; ++kk)
        p0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + kk * lda + i),
                             _mm256_set1_pd(b[kk * ldb + j]), p0);
      _mm256_storeu_pd(cj + i, p0);
    }
    for (; i < m; ++i) {
      double s = cj[i];
      for (Index kk = 0; kk < k; ++kk)
        s = std::fma(a[kk * lda + i], b[kk * ldb + j], s);
      cj[i] = s;
    }
  }
}

// nrhs = 1 in-panel forward solve, shared by the AVX2 and AVX-512 tables:
// for each column j, x[j+1..w) -= L(j+1..w, j)·x[j] vectorized down the
// column, each element the one fused x[i] − L(i,j)·x[j] of the general
// kernel.
SYMPVL_TGT_AVX2
void d2_trsm_forward_1(Index w, const double* panel, Index ld, double* x) {
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT lcol = panel + j * ld;
    const double xj = x[j];
    const __m256d vx = _mm256_set1_pd(xj);
    Index i = j + 1;
    for (; i + 4 <= w; i += 4)
      _mm256_storeu_pd(x + i, _mm256_fnmadd_pd(_mm256_loadu_pd(lcol + i), vx,
                                               _mm256_loadu_pd(x + i)));
    for (; i < w; ++i) x[i] = std::fma(-lcol[i], xj, x[i]);
  }
}

SYMPVL_TGT_AVX2
void d2_trsm_forward(Index w, const double* panel, Index ld, Index nrhs,
                     double* x) {
  if (nrhs == 1) {
    d2_trsm_forward_1(w, panel, ld, x);
    return;
  }
  for (Index j = 0; j < w; ++j) {
    const double* lcol = panel + j * ld;
    const double* xj = x + j * nrhs;
    for (Index i = j + 1; i < w; ++i) {
      const double lij = lcol[i];
      double* xi = x + i * nrhs;
      const __m256d vl = _mm256_set1_pd(lij);
      Index c = 0;
      for (; c + 4 <= nrhs; c += 4)
        _mm256_storeu_pd(xi + c,
                         _mm256_fnmadd_pd(vl, _mm256_loadu_pd(xj + c),
                                          _mm256_loadu_pd(xi + c)));
      for (; c < nrhs; ++c) xi[c] = std::fma(-lij, xj[c], xi[c]);
    }
  }
}

SYMPVL_TGT_AVX2
void d2_trsm_backward(Index w, const double* panel, Index ld, Index nrhs,
                      double* x) {
  for (Index j = w; j-- > 0;) {
    const double* lcol = panel + j * ld;
    double* xj = x + j * nrhs;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = j + 1; i < w; ++i)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(lcol[i]),
                              _mm256_loadu_pd(x + i * nrhs + c), acc);
      _mm256_storeu_pd(xj + c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + c), acc));
    }
    for (; c < nrhs; ++c) {
      double acc = 0.0;
      for (Index i = j + 1; i < w; ++i)
        acc = std::fma(lcol[i], x[i * nrhs + c], acc);
      xj[c] -= acc;
    }
  }
}

// nrhs = 1 below-panel updates, shared by the AVX2 and AVX-512 tables.
// Every row's (forward) or column's (backward) FMA chain is the one the
// general kernels run on their single RHS lane: acc starts at zero, takes
// fma(L, x, acc) in ascending order, and is subtracted once.

// Forward, 4 below rows per vector: unit-stride loads down each panel
// column, x gathered and written back lane by lane. A supernode's below
// rows are distinct, so the write-back never collides.
SYMPVL_TGT_AVX2
void d2_below_forward_1(Index r, Index w, const double* lbelow, Index ld,
                        const Index* rows, const double* xtop, double* x) {
  Index i = 0;
  for (; i + 4 <= r; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (Index j = 0; j < w; ++j)
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(lbelow + j * ld + i),
                            _mm256_set1_pd(xtop[j]), acc);
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    const __m256d upd =
        _mm256_sub_pd(_mm256_i64gather_pd(x, idx, 8), acc);
    const __m128d lo = _mm256_castpd256_pd128(upd);
    const __m128d hi = _mm256_extractf128_pd(upd, 1);
    _mm_storel_pd(x + rows[i], lo);
    _mm_storeh_pd(x + rows[i + 1], lo);
    _mm_storel_pd(x + rows[i + 2], hi);
    _mm_storeh_pd(x + rows[i + 3], hi);
  }
  for (; i < r; ++i) {
    double acc = 0.0;
    for (Index j = 0; j < w; ++j) acc = std::fma(lbelow[j * ld + i], xtop[j], acc);
    x[rows[i]] -= acc;
  }
}

// Backward: 4, then 2, then 1 independent column chains, each x[rows[i]]
// loaded once for all of them.
SYMPVL_TGT_AVX2
void d2_below_backward_1(Index r, Index w, const double* lbelow, Index ld,
                         const Index* rows, const double* x, double* xtop) {
  Index j = 0;
  for (; j + 4 <= w; j += 4) {
    const double* SYMPVL_RESTRICT l0 = lbelow + j * ld;
    const double* SYMPVL_RESTRICT l1 = l0 + ld;
    const double* SYMPVL_RESTRICT l2 = l1 + ld;
    const double* SYMPVL_RESTRICT l3 = l2 + ld;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (Index i = 0; i < r; ++i) {
      const double xi = x[rows[i]];
      a0 = std::fma(l0[i], xi, a0);
      a1 = std::fma(l1[i], xi, a1);
      a2 = std::fma(l2[i], xi, a2);
      a3 = std::fma(l3[i], xi, a3);
    }
    xtop[j] -= a0;
    xtop[j + 1] -= a1;
    xtop[j + 2] -= a2;
    xtop[j + 3] -= a3;
  }
  if (j + 2 <= w) {
    const double* SYMPVL_RESTRICT l0 = lbelow + j * ld;
    const double* SYMPVL_RESTRICT l1 = l0 + ld;
    double a0 = 0.0, a1 = 0.0;
    for (Index i = 0; i < r; ++i) {
      const double xi = x[rows[i]];
      a0 = std::fma(l0[i], xi, a0);
      a1 = std::fma(l1[i], xi, a1);
    }
    xtop[j] -= a0;
    xtop[j + 1] -= a1;
    j += 2;
  }
  if (j < w) {
    const double* SYMPVL_RESTRICT l0 = lbelow + j * ld;
    double a0 = 0.0;
    for (Index i = 0; i < r; ++i) a0 = std::fma(l0[i], x[rows[i]], a0);
    xtop[j] -= a0;
  }
}

SYMPVL_TGT_AVX2
void d2_below_forward(Index r, Index w, Index nrhs, const double* lbelow,
                      Index ld, const Index* rows, const double* xtop,
                      double* x) {
  if (nrhs == 1) {
    d2_below_forward_1(r, w, lbelow, ld, rows, xtop, x);
    return;
  }
  for (Index i = 0; i < r; ++i) {
    double* xi = x + rows[i] * nrhs;
    const double* li = lbelow + i;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (Index j = 0; j < w; ++j)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(li[j * ld]),
                              _mm256_loadu_pd(xtop + j * nrhs + c), acc);
      _mm256_storeu_pd(xi + c,
                       _mm256_sub_pd(_mm256_loadu_pd(xi + c), acc));
    }
    for (; c < nrhs; ++c) {
      double acc = 0.0;
      for (Index j = 0; j < w; ++j)
        acc = std::fma(li[j * ld], xtop[j * nrhs + c], acc);
      xi[c] -= acc;
    }
  }
}

SYMPVL_TGT_AVX2
void d2_below_backward(Index r, Index w, Index nrhs, const double* lbelow,
                       Index ld, const Index* rows, const double* x,
                       double* xtop) {
  if (nrhs == 1) {
    d2_below_backward_1(r, w, lbelow, ld, rows, x, xtop);
    return;
  }
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT lcol = lbelow + j * ld;
    double* xj = xtop + j * nrhs;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = 0; i < r; ++i)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(lcol[i]),
                              _mm256_loadu_pd(x + rows[i] * nrhs + c), acc);
      _mm256_storeu_pd(xj + c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + c), acc));
    }
    for (; c < nrhs; ++c) {
      double acc = 0.0;
      for (Index i = 0; i < r; ++i)
        acc = std::fma(lcol[i], x[rows[i] * nrhs + c], acc);
      xj[c] -= acc;
    }
  }
}

SYMPVL_TGT_AVX2
void d2_diag_solve(Index n, Index nrhs, const double* d, double* x) {
  // IEEE division is correctly rounded, so the vector and scalar tails
  // are bit-identical per element (and identical to the scalar level).
  for (Index i = 0; i < n; ++i) {
    const double di = d[i];
    double* xi = x + i * nrhs;
    const __m256d vd = _mm256_set1_pd(di);
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4)
      _mm256_storeu_pd(xi + c, _mm256_div_pd(_mm256_loadu_pd(xi + c), vd));
    for (; c < nrhs; ++c) xi[c] /= di;
  }
}

// ---------------------------------------------------------------------
// AVX-512 double kernels. Remainders run masked — a masked lane executes
// the same fused op as a full lane, preserving single/multi-RHS parity.
// ---------------------------------------------------------------------

SYMPVL_TGT_AVX512
void d5_axpy(Index n, double alpha, const double* x, double* y) {
  const double* SYMPVL_RESTRICT xr = x;
  double* SYMPVL_RESTRICT yr = y;
  const __m512d va = _mm512_set1_pd(alpha);
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(yr + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(xr + i),
                                             _mm512_loadu_pd(yr + i)));
  if (i < n) {
    const __mmask8 mk = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d xv = _mm512_maskz_loadu_pd(mk, xr + i);
    const __m512d yv = _mm512_maskz_loadu_pd(mk, yr + i);
    _mm512_mask_storeu_pd(yr + i, mk, _mm512_fmadd_pd(va, xv, yv));
  }
}

SYMPVL_TGT_AVX512
void d5_scale(Index n, double alpha, double* x) {
  double* SYMPVL_RESTRICT xr = x;
  const __m512d va = _mm512_set1_pd(alpha);
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(xr + i, _mm512_mul_pd(_mm512_loadu_pd(xr + i), va));
  if (i < n) {
    const __mmask8 mk = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        xr + i, mk, _mm512_mul_pd(_mm512_maskz_loadu_pd(mk, xr + i), va));
  }
}

SYMPVL_TGT_AVX512
void d5_scale_cols(Index q, Index w, const double* src, Index lds,
                   const double* d, double* dst, Index ldd) {
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT s = src + j * lds;
    double* SYMPVL_RESTRICT t = dst + j * ldd;
    const __m512d vd = _mm512_set1_pd(d[j]);
    Index i = 0;
    for (; i + 8 <= q; i += 8)
      _mm512_storeu_pd(t + i, _mm512_mul_pd(_mm512_loadu_pd(s + i), vd));
    if (i < q) {
      const __mmask8 mk = static_cast<__mmask8>((1u << (q - i)) - 1u);
      _mm512_mask_storeu_pd(
          t + i, mk, _mm512_mul_pd(_mm512_maskz_loadu_pd(mk, s + i), vd));
    }
  }
}

SYMPVL_TGT_AVX512
void d5_gemm(Index m, Index q, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  Index j = 0;
  for (; j + 4 <= q; j += 4) {
    double* SYMPVL_RESTRICT c0 = c + j * ldc;
    double* SYMPVL_RESTRICT c1 = c + (j + 1) * ldc;
    double* SYMPVL_RESTRICT c2 = c + (j + 2) * ldc;
    double* SYMPVL_RESTRICT c3 = c + (j + 3) * ldc;
    Index i = 0;
    for (; i + 16 <= m; i += 16) {
      __m512d p00 = _mm512_loadu_pd(c0 + i), p01 = _mm512_loadu_pd(c0 + i + 8);
      __m512d p10 = _mm512_loadu_pd(c1 + i), p11 = _mm512_loadu_pd(c1 + i + 8);
      __m512d p20 = _mm512_loadu_pd(c2 + i), p21 = _mm512_loadu_pd(c2 + i + 8);
      __m512d p30 = _mm512_loadu_pd(c3 + i), p31 = _mm512_loadu_pd(c3 + i + 8);
      for (Index kk = 0; kk < k; ++kk) {
        const double* SYMPVL_RESTRICT ac = a + kk * lda + i;
        const __m512d a0 = _mm512_loadu_pd(ac), a1 = _mm512_loadu_pd(ac + 8);
        const double* bk = b + kk * ldb + j;
        __m512d bv = _mm512_set1_pd(bk[0]);
        p00 = _mm512_fmadd_pd(a0, bv, p00);
        p01 = _mm512_fmadd_pd(a1, bv, p01);
        bv = _mm512_set1_pd(bk[1]);
        p10 = _mm512_fmadd_pd(a0, bv, p10);
        p11 = _mm512_fmadd_pd(a1, bv, p11);
        bv = _mm512_set1_pd(bk[2]);
        p20 = _mm512_fmadd_pd(a0, bv, p20);
        p21 = _mm512_fmadd_pd(a1, bv, p21);
        bv = _mm512_set1_pd(bk[3]);
        p30 = _mm512_fmadd_pd(a0, bv, p30);
        p31 = _mm512_fmadd_pd(a1, bv, p31);
      }
      _mm512_storeu_pd(c0 + i, p00);
      _mm512_storeu_pd(c0 + i + 8, p01);
      _mm512_storeu_pd(c1 + i, p10);
      _mm512_storeu_pd(c1 + i + 8, p11);
      _mm512_storeu_pd(c2 + i, p20);
      _mm512_storeu_pd(c2 + i + 8, p21);
      _mm512_storeu_pd(c3 + i, p30);
      _mm512_storeu_pd(c3 + i + 8, p31);
    }
    for (; i + 8 <= m; i += 8) {
      __m512d p0 = _mm512_loadu_pd(c0 + i);
      __m512d p1 = _mm512_loadu_pd(c1 + i);
      __m512d p2 = _mm512_loadu_pd(c2 + i);
      __m512d p3 = _mm512_loadu_pd(c3 + i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_loadu_pd(a + kk * lda + i);
        const double* bk = b + kk * ldb + j;
        p0 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[0]), p0);
        p1 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[1]), p1);
        p2 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[2]), p2);
        p3 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[3]), p3);
      }
      _mm512_storeu_pd(c0 + i, p0);
      _mm512_storeu_pd(c1 + i, p1);
      _mm512_storeu_pd(c2 + i, p2);
      _mm512_storeu_pd(c3 + i, p3);
    }
    if (i < m) {
      const __mmask8 mk = static_cast<__mmask8>((1u << (m - i)) - 1u);
      __m512d p0 = _mm512_maskz_loadu_pd(mk, c0 + i);
      __m512d p1 = _mm512_maskz_loadu_pd(mk, c1 + i);
      __m512d p2 = _mm512_maskz_loadu_pd(mk, c2 + i);
      __m512d p3 = _mm512_maskz_loadu_pd(mk, c3 + i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_maskz_loadu_pd(mk, a + kk * lda + i);
        const double* bk = b + kk * ldb + j;
        p0 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[0]), p0);
        p1 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[1]), p1);
        p2 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[2]), p2);
        p3 = _mm512_fmadd_pd(av, _mm512_set1_pd(bk[3]), p3);
      }
      _mm512_mask_storeu_pd(c0 + i, mk, p0);
      _mm512_mask_storeu_pd(c1 + i, mk, p1);
      _mm512_mask_storeu_pd(c2 + i, mk, p2);
      _mm512_mask_storeu_pd(c3 + i, mk, p3);
    }
  }
  for (; j < q; ++j) {
    double* SYMPVL_RESTRICT cj = c + j * ldc;
    Index i = 0;
    for (; i + 8 <= m; i += 8) {
      __m512d p0 = _mm512_loadu_pd(cj + i);
      for (Index kk = 0; kk < k; ++kk)
        p0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + kk * lda + i),
                             _mm512_set1_pd(b[kk * ldb + j]), p0);
      _mm512_storeu_pd(cj + i, p0);
    }
    if (i < m) {
      const __mmask8 mk = static_cast<__mmask8>((1u << (m - i)) - 1u);
      __m512d p0 = _mm512_maskz_loadu_pd(mk, cj + i);
      for (Index kk = 0; kk < k; ++kk)
        p0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(mk, a + kk * lda + i),
                             _mm512_set1_pd(b[kk * ldb + j]), p0);
      _mm512_mask_storeu_pd(cj + i, mk, p0);
    }
  }
}

SYMPVL_TGT_AVX512
void d5_trsm_forward(Index w, const double* panel, Index ld, Index nrhs,
                     double* x) {
  if (nrhs == 1) {
    d2_trsm_forward_1(w, panel, ld, x);
    return;
  }
  const Index tail = nrhs & 7;
  const __mmask8 mk =
      tail ? static_cast<__mmask8>((1u << tail) - 1u) : __mmask8(0);
  for (Index j = 0; j < w; ++j) {
    const double* lcol = panel + j * ld;
    const double* xj = x + j * nrhs;
    for (Index i = j + 1; i < w; ++i) {
      const __m512d vl = _mm512_set1_pd(lcol[i]);
      double* xi = x + i * nrhs;
      Index c = 0;
      for (; c + 8 <= nrhs; c += 8)
        _mm512_storeu_pd(xi + c,
                         _mm512_fnmadd_pd(vl, _mm512_loadu_pd(xj + c),
                                          _mm512_loadu_pd(xi + c)));
      if (tail)
        _mm512_mask_storeu_pd(
            xi + c, mk,
            _mm512_fnmadd_pd(vl, _mm512_maskz_loadu_pd(mk, xj + c),
                             _mm512_maskz_loadu_pd(mk, xi + c)));
    }
  }
}

SYMPVL_TGT_AVX512
void d5_trsm_backward(Index w, const double* panel, Index ld, Index nrhs,
                      double* x) {
  if (nrhs == 1) {  // one serial chain per column: the AVX2 scalar lane
    d2_trsm_backward(w, panel, ld, 1, x);
    return;
  }
  const Index tail = nrhs & 7;
  const __mmask8 mk =
      tail ? static_cast<__mmask8>((1u << tail) - 1u) : __mmask8(0);
  for (Index j = w; j-- > 0;) {
    const double* lcol = panel + j * ld;
    double* xj = x + j * nrhs;
    Index c = 0;
    for (; c + 8 <= nrhs; c += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = j + 1; i < w; ++i)
        acc = _mm512_fmadd_pd(_mm512_set1_pd(lcol[i]),
                              _mm512_loadu_pd(x + i * nrhs + c), acc);
      _mm512_storeu_pd(xj + c,
                       _mm512_sub_pd(_mm512_loadu_pd(xj + c), acc));
    }
    if (tail) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = j + 1; i < w; ++i)
        acc = _mm512_fmadd_pd(_mm512_set1_pd(lcol[i]),
                              _mm512_maskz_loadu_pd(mk, x + i * nrhs + c),
                              acc);
      _mm512_mask_storeu_pd(
          xj + c, mk,
          _mm512_sub_pd(_mm512_maskz_loadu_pd(mk, xj + c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void d5_below_forward(Index r, Index w, Index nrhs, const double* lbelow,
                      Index ld, const Index* rows, const double* xtop,
                      double* x) {
  if (nrhs == 1) {
    d2_below_forward_1(r, w, lbelow, ld, rows, xtop, x);
    return;
  }
  const Index tail = nrhs & 7;
  const __mmask8 mk =
      tail ? static_cast<__mmask8>((1u << tail) - 1u) : __mmask8(0);
  for (Index i = 0; i < r; ++i) {
    double* xi = x + rows[i] * nrhs;
    const double* li = lbelow + i;
    Index c = 0;
    for (; c + 8 <= nrhs; c += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (Index j = 0; j < w; ++j)
        acc = _mm512_fmadd_pd(_mm512_set1_pd(li[j * ld]),
                              _mm512_loadu_pd(xtop + j * nrhs + c), acc);
      _mm512_storeu_pd(xi + c,
                       _mm512_sub_pd(_mm512_loadu_pd(xi + c), acc));
    }
    if (tail) {
      __m512d acc = _mm512_setzero_pd();
      for (Index j = 0; j < w; ++j)
        acc = _mm512_fmadd_pd(_mm512_set1_pd(li[j * ld]),
                              _mm512_maskz_loadu_pd(mk, xtop + j * nrhs + c),
                              acc);
      _mm512_mask_storeu_pd(
          xi + c, mk,
          _mm512_sub_pd(_mm512_maskz_loadu_pd(mk, xi + c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void d5_below_backward(Index r, Index w, Index nrhs, const double* lbelow,
                       Index ld, const Index* rows, const double* x,
                       double* xtop) {
  if (nrhs == 1) {
    d2_below_backward_1(r, w, lbelow, ld, rows, x, xtop);
    return;
  }
  const Index tail = nrhs & 7;
  const __mmask8 mk =
      tail ? static_cast<__mmask8>((1u << tail) - 1u) : __mmask8(0);
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT lcol = lbelow + j * ld;
    double* xj = xtop + j * nrhs;
    Index c = 0;
    for (; c + 8 <= nrhs; c += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = 0; i < r; ++i)
        acc = _mm512_fmadd_pd(_mm512_set1_pd(lcol[i]),
                              _mm512_loadu_pd(x + rows[i] * nrhs + c), acc);
      _mm512_storeu_pd(xj + c,
                       _mm512_sub_pd(_mm512_loadu_pd(xj + c), acc));
    }
    if (tail) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = 0; i < r; ++i)
        acc = _mm512_fmadd_pd(
            _mm512_set1_pd(lcol[i]),
            _mm512_maskz_loadu_pd(mk, x + rows[i] * nrhs + c), acc);
      _mm512_mask_storeu_pd(
          xj + c, mk,
          _mm512_sub_pd(_mm512_maskz_loadu_pd(mk, xj + c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void d5_diag_solve(Index n, Index nrhs, const double* d, double* x) {
  const Index tail = nrhs & 7;
  const __mmask8 mk =
      tail ? static_cast<__mmask8>((1u << tail) - 1u) : __mmask8(0);
  for (Index i = 0; i < n; ++i) {
    const __m512d vd = _mm512_set1_pd(d[i]);
    double* xi = x + i * nrhs;
    Index c = 0;
    for (; c + 8 <= nrhs; c += 8)
      _mm512_storeu_pd(xi + c, _mm512_div_pd(_mm512_loadu_pd(xi + c), vd));
    if (tail)
      _mm512_mask_storeu_pd(
          xi + c, mk,
          _mm512_div_pd(_mm512_maskz_loadu_pd(mk, xi + c), vd));
  }
}

// ---------------------------------------------------------------------
// Complex kernels (interleaved [re, im] doubles — std::complex<double>'s
// guaranteed layout). A complex product a·b vectorizes as
//   fmaddsub(dup_re(a), b, mul(dup_im(a), swap(b)))
// (even lanes a_re·b_re − a_im·b_im, odd lanes a_re·b_im + a_im·b_re).
// The broadcast operand always takes the dup role so every width rounds
// identically; remainders cascade 512 → 256 → 128 bits with the same op
// pattern, one complex per __m128d at the bottom.
// ---------------------------------------------------------------------

SYMPVL_TGT_AVX2
inline void bcast256(const Complex& z, __m256d& re, __m256d& im) {
  const __m256d v =
      _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&z));
  re = _mm256_movedup_pd(v);
  im = _mm256_permute_pd(v, 0xF);
}

SYMPVL_TGT_AVX2
inline void bcast128(const Complex& z, __m128d& re, __m128d& im) {
  const __m128d v = _mm_loadu_pd(reinterpret_cast<const double*>(&z));
  re = _mm_movedup_pd(v);
  im = _mm_permute_pd(v, 0x3);
}

/// a·b with a pre-broadcast as (re, im) dup vectors.
SYMPVL_TGT_AVX2
inline __m256d cmul256(__m256d a_re, __m256d a_im, __m256d b) {
  const __m256d bsw = _mm256_permute_pd(b, 0x5);
  return _mm256_fmaddsub_pd(a_re, b, _mm256_mul_pd(a_im, bsw));
}

SYMPVL_TGT_AVX2
inline __m128d cmul128(__m128d a_re, __m128d a_im, __m128d b) {
  const __m128d bsw = _mm_permute_pd(b, 0x1);
  return _mm_fmaddsub_pd(a_re, b, _mm_mul_pd(a_im, bsw));
}

SYMPVL_TGT_AVX2
void c2_axpy(Index n, Complex alpha, const Complex* x, Complex* y) {
  const double* SYMPVL_RESTRICT xd = reinterpret_cast<const double*>(x);
  double* SYMPVL_RESTRICT yd = reinterpret_cast<double*>(y);
  __m256d are, aim;
  bcast256(alpha, are, aim);
  Index i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d yv = _mm256_loadu_pd(yd + 2 * i);
    _mm256_storeu_pd(yd + 2 * i,
                     _mm256_add_pd(yv, cmul256(are, aim, xv)));
  }
  if (i < n) {
    __m128d ar, ai;
    bcast128(alpha, ar, ai);
    const __m128d xv = _mm_loadu_pd(xd + 2 * i);
    const __m128d yv = _mm_loadu_pd(yd + 2 * i);
    _mm_storeu_pd(yd + 2 * i, _mm_add_pd(yv, cmul128(ar, ai, xv)));
  }
}

SYMPVL_TGT_AVX2
void c2_scale(Index n, Complex alpha, Complex* x) {
  double* SYMPVL_RESTRICT xd = reinterpret_cast<double*>(x);
  __m256d are, aim;
  bcast256(alpha, are, aim);
  Index i = 0;
  for (; i + 2 <= n; i += 2)
    _mm256_storeu_pd(xd + 2 * i,
                     cmul256(are, aim, _mm256_loadu_pd(xd + 2 * i)));
  if (i < n) {
    __m128d ar, ai;
    bcast128(alpha, ar, ai);
    _mm_storeu_pd(xd + 2 * i, cmul128(ar, ai, _mm_loadu_pd(xd + 2 * i)));
  }
}

SYMPVL_TGT_AVX2
void c2_scale_cols(Index q, Index w, const Complex* src, Index lds,
                   const Complex* d, Complex* dst, Index ldd) {
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT s =
        reinterpret_cast<const double*>(src + j * lds);
    double* SYMPVL_RESTRICT t = reinterpret_cast<double*>(dst + j * ldd);
    __m256d dre, dim;
    bcast256(d[j], dre, dim);
    Index i = 0;
    for (; i + 2 <= q; i += 2)
      _mm256_storeu_pd(t + 2 * i,
                       cmul256(dre, dim, _mm256_loadu_pd(s + 2 * i)));
    if (i < q) {
      __m128d dr, di;
      bcast128(d[j], dr, di);
      _mm_storeu_pd(t + 2 * i, cmul128(dr, di, _mm_loadu_pd(s + 2 * i)));
    }
  }
}

SYMPVL_TGT_AVX2
void c2_gemm(Index m, Index q, Index k, const Complex* a, Index lda,
             const Complex* b, Index ldb, Complex* c, Index ldc) {
  const double* ad = reinterpret_cast<const double*>(a);
  double* cd = reinterpret_cast<double*>(c);
  Index j = 0;
  for (; j + 2 <= q; j += 2) {
    double* SYMPVL_RESTRICT c0 = cd + 2 * j * ldc;
    double* SYMPVL_RESTRICT c1 = cd + 2 * (j + 1) * ldc;
    Index i = 0;
    for (; i + 4 <= m; i += 4) {
      __m256d p00 = _mm256_loadu_pd(c0 + 2 * i);
      __m256d p01 = _mm256_loadu_pd(c0 + 2 * i + 4);
      __m256d p10 = _mm256_loadu_pd(c1 + 2 * i);
      __m256d p11 = _mm256_loadu_pd(c1 + 2 * i + 4);
      for (Index kk = 0; kk < k; ++kk) {
        const double* SYMPVL_RESTRICT ac = ad + 2 * (kk * lda + i);
        const __m256d a0 = _mm256_loadu_pd(ac);
        const __m256d a1 = _mm256_loadu_pd(ac + 4);
        __m256d bre, bim;
        bcast256(b[kk * ldb + j], bre, bim);
        p00 = _mm256_add_pd(p00, cmul256(bre, bim, a0));
        p01 = _mm256_add_pd(p01, cmul256(bre, bim, a1));
        bcast256(b[kk * ldb + j + 1], bre, bim);
        p10 = _mm256_add_pd(p10, cmul256(bre, bim, a0));
        p11 = _mm256_add_pd(p11, cmul256(bre, bim, a1));
      }
      _mm256_storeu_pd(c0 + 2 * i, p00);
      _mm256_storeu_pd(c0 + 2 * i + 4, p01);
      _mm256_storeu_pd(c1 + 2 * i, p10);
      _mm256_storeu_pd(c1 + 2 * i + 4, p11);
    }
    for (; i + 2 <= m; i += 2) {
      __m256d p0 = _mm256_loadu_pd(c0 + 2 * i);
      __m256d p1 = _mm256_loadu_pd(c1 + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_loadu_pd(ad + 2 * (kk * lda + i));
        __m256d bre, bim;
        bcast256(b[kk * ldb + j], bre, bim);
        p0 = _mm256_add_pd(p0, cmul256(bre, bim, av));
        bcast256(b[kk * ldb + j + 1], bre, bim);
        p1 = _mm256_add_pd(p1, cmul256(bre, bim, av));
      }
      _mm256_storeu_pd(c0 + 2 * i, p0);
      _mm256_storeu_pd(c1 + 2 * i, p1);
    }
    if (i < m) {
      __m128d p0 = _mm_loadu_pd(c0 + 2 * i);
      __m128d p1 = _mm_loadu_pd(c1 + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m128d av = _mm_loadu_pd(ad + 2 * (kk * lda + i));
        __m128d br, bi;
        bcast128(b[kk * ldb + j], br, bi);
        p0 = _mm_add_pd(p0, cmul128(br, bi, av));
        bcast128(b[kk * ldb + j + 1], br, bi);
        p1 = _mm_add_pd(p1, cmul128(br, bi, av));
      }
      _mm_storeu_pd(c0 + 2 * i, p0);
      _mm_storeu_pd(c1 + 2 * i, p1);
    }
  }
  for (; j < q; ++j) {
    double* SYMPVL_RESTRICT cj = cd + 2 * j * ldc;
    Index i = 0;
    for (; i + 2 <= m; i += 2) {
      __m256d p0 = _mm256_loadu_pd(cj + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        __m256d bre, bim;
        bcast256(b[kk * ldb + j], bre, bim);
        p0 = _mm256_add_pd(
            p0, cmul256(bre, bim, _mm256_loadu_pd(ad + 2 * (kk * lda + i))));
      }
      _mm256_storeu_pd(cj + 2 * i, p0);
    }
    if (i < m) {
      __m128d p0 = _mm_loadu_pd(cj + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        __m128d br, bi;
        bcast128(b[kk * ldb + j], br, bi);
        p0 = _mm_add_pd(
            p0, cmul128(br, bi, _mm_loadu_pd(ad + 2 * (kk * lda + i))));
      }
      _mm_storeu_pd(cj + 2 * i, p0);
    }
  }
}

SYMPVL_TGT_AVX2
void c2_trsm_forward(Index w, const Complex* panel, Index ld, Index nrhs,
                     Complex* x) {
  double* xd = reinterpret_cast<double*>(x);
  for (Index j = 0; j < w; ++j) {
    const Complex* lcol = panel + j * ld;
    const double* xj = xd + 2 * j * nrhs;
    for (Index i = j + 1; i < w; ++i) {
      __m256d lre, lim;
      bcast256(lcol[i], lre, lim);
      double* xi = xd + 2 * i * nrhs;
      Index c = 0;
      for (; c + 2 <= nrhs; c += 2)
        _mm256_storeu_pd(
            xi + 2 * c,
            _mm256_sub_pd(_mm256_loadu_pd(xi + 2 * c),
                          cmul256(lre, lim, _mm256_loadu_pd(xj + 2 * c))));
      if (c < nrhs) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        _mm_storeu_pd(xi + 2 * c,
                      _mm_sub_pd(_mm_loadu_pd(xi + 2 * c),
                                 cmul128(lr, li, _mm_loadu_pd(xj + 2 * c))));
      }
    }
  }
}

SYMPVL_TGT_AVX2
void c2_trsm_backward(Index w, const Complex* panel, Index ld, Index nrhs,
                      Complex* x) {
  double* xd = reinterpret_cast<double*>(x);
  for (Index j = w; j-- > 0;) {
    const Complex* lcol = panel + j * ld;
    double* xj = xd + 2 * j * nrhs;
    Index c = 0;
    for (; c + 2 <= nrhs; c += 2) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = j + 1; i < w; ++i) {
        __m256d lre, lim;
        bcast256(lcol[i], lre, lim);
        acc = _mm256_add_pd(
            acc, cmul256(lre, lim, _mm256_loadu_pd(xd + 2 * (i * nrhs + c))));
      }
      _mm256_storeu_pd(xj + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + 2 * c), acc));
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index i = j + 1; i < w; ++i) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        acc = _mm_add_pd(
            acc, cmul128(lr, li, _mm_loadu_pd(xd + 2 * (i * nrhs + c))));
      }
      _mm_storeu_pd(xj + 2 * c, _mm_sub_pd(_mm_loadu_pd(xj + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX2
void c2_below_forward(Index r, Index w, Index nrhs, const Complex* lbelow,
                      Index ld, const Index* rows, const Complex* xtop,
                      Complex* x) {
  const double* xtd = reinterpret_cast<const double*>(xtop);
  double* xd = reinterpret_cast<double*>(x);
  for (Index i = 0; i < r; ++i) {
    double* xi = xd + 2 * rows[i] * nrhs;
    const Complex* li = lbelow + i;
    Index c = 0;
    for (; c + 2 <= nrhs; c += 2) {
      __m256d acc = _mm256_setzero_pd();
      for (Index j = 0; j < w; ++j) {
        __m256d lre, lim;
        bcast256(li[j * ld], lre, lim);
        acc = _mm256_add_pd(
            acc, cmul256(lre, lim, _mm256_loadu_pd(xtd + 2 * (j * nrhs + c))));
      }
      _mm256_storeu_pd(xi + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xi + 2 * c), acc));
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index j = 0; j < w; ++j) {
        __m128d lr, li2;
        bcast128(li[j * ld], lr, li2);
        acc = _mm_add_pd(
            acc, cmul128(lr, li2, _mm_loadu_pd(xtd + 2 * (j * nrhs + c))));
      }
      _mm_storeu_pd(xi + 2 * c, _mm_sub_pd(_mm_loadu_pd(xi + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX2
void c2_below_backward(Index r, Index w, Index nrhs, const Complex* lbelow,
                       Index ld, const Index* rows, const Complex* x,
                       Complex* xtop) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* xtd = reinterpret_cast<double*>(xtop);
  for (Index j = 0; j < w; ++j) {
    const Complex* lcol = lbelow + j * ld;
    double* xj = xtd + 2 * j * nrhs;
    Index c = 0;
    for (; c + 2 <= nrhs; c += 2) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = 0; i < r; ++i) {
        __m256d lre, lim;
        bcast256(lcol[i], lre, lim);
        acc = _mm256_add_pd(
            acc,
            cmul256(lre, lim, _mm256_loadu_pd(xd + 2 * (rows[i] * nrhs + c))));
      }
      _mm256_storeu_pd(xj + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + 2 * c), acc));
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index i = 0; i < r; ++i) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        acc = _mm_add_pd(
            acc,
            cmul128(lr, li, _mm_loadu_pd(xd + 2 * (rows[i] * nrhs + c))));
      }
      _mm_storeu_pd(xj + 2 * c, _mm_sub_pd(_mm_loadu_pd(xj + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX2
void c2_diag_solve(Index n, Index nrhs, const Complex* d, Complex* x) {
  // Division becomes one scalar complex reciprocal per pivot (identical
  // at every vector width) followed by cmul — within 1e-12 of the scalar
  // level's per-element division.
  double* xd = reinterpret_cast<double*>(x);
  for (Index i = 0; i < n; ++i) {
    const Complex inv = Complex(1) / d[i];
    __m256d ire, iim;
    bcast256(inv, ire, iim);
    double* xi = xd + 2 * i * nrhs;
    Index c = 0;
    for (; c + 2 <= nrhs; c += 2)
      _mm256_storeu_pd(xi + 2 * c,
                       cmul256(ire, iim, _mm256_loadu_pd(xi + 2 * c)));
    if (c < nrhs) {
      __m128d ir, ii;
      bcast128(inv, ir, ii);
      _mm_storeu_pd(xi + 2 * c, cmul128(ir, ii, _mm_loadu_pd(xi + 2 * c)));
    }
  }
}

// ---------------------------------------------------------------------
// AVX-512 complex kernels: 4 complex per __m512d, remainders cascading
// through the 256- and 128-bit forms above (same per-lane op pattern).
// ---------------------------------------------------------------------

SYMPVL_TGT_AVX512
inline void bcast512(const Complex& z, __m512d& re, __m512d& im) {
  const __m256d q = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&z));
  // zext + insert rather than broadcast_f64x4: GCC 12's broadcast
  // intrinsic goes through _mm512_undefined_pd and trips -Wuninitialized.
  const __m512d v = _mm512_insertf64x4(_mm512_zextpd256_pd512(q), q, 1);
  re = _mm512_movedup_pd(v);
  im = _mm512_permute_pd(v, 0xFF);
}

SYMPVL_TGT_AVX512
inline __m512d cmul512(__m512d a_re, __m512d a_im, __m512d b) {
  const __m512d bsw = _mm512_permute_pd(b, 0x55);
  return _mm512_fmaddsub_pd(a_re, b, _mm512_mul_pd(a_im, bsw));
}

SYMPVL_TGT_AVX512
void c5_axpy(Index n, Complex alpha, const Complex* x, Complex* y) {
  const double* SYMPVL_RESTRICT xd = reinterpret_cast<const double*>(x);
  double* SYMPVL_RESTRICT yd = reinterpret_cast<double*>(y);
  __m512d are, aim;
  bcast512(alpha, are, aim);
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d xv = _mm512_loadu_pd(xd + 2 * i);
    const __m512d yv = _mm512_loadu_pd(yd + 2 * i);
    _mm512_storeu_pd(yd + 2 * i, _mm512_add_pd(yv, cmul512(are, aim, xv)));
  }
  if (i + 2 <= n) {
    __m256d ar, ai;
    bcast256(alpha, ar, ai);
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d yv = _mm256_loadu_pd(yd + 2 * i);
    _mm256_storeu_pd(yd + 2 * i, _mm256_add_pd(yv, cmul256(ar, ai, xv)));
    i += 2;
  }
  if (i < n) {
    __m128d ar, ai;
    bcast128(alpha, ar, ai);
    const __m128d xv = _mm_loadu_pd(xd + 2 * i);
    const __m128d yv = _mm_loadu_pd(yd + 2 * i);
    _mm_storeu_pd(yd + 2 * i, _mm_add_pd(yv, cmul128(ar, ai, xv)));
  }
}

SYMPVL_TGT_AVX512
void c5_scale(Index n, Complex alpha, Complex* x) {
  double* SYMPVL_RESTRICT xd = reinterpret_cast<double*>(x);
  __m512d are, aim;
  bcast512(alpha, are, aim);
  Index i = 0;
  for (; i + 4 <= n; i += 4)
    _mm512_storeu_pd(xd + 2 * i,
                     cmul512(are, aim, _mm512_loadu_pd(xd + 2 * i)));
  if (i + 2 <= n) {
    __m256d ar, ai;
    bcast256(alpha, ar, ai);
    _mm256_storeu_pd(xd + 2 * i,
                     cmul256(ar, ai, _mm256_loadu_pd(xd + 2 * i)));
    i += 2;
  }
  if (i < n) {
    __m128d ar, ai;
    bcast128(alpha, ar, ai);
    _mm_storeu_pd(xd + 2 * i, cmul128(ar, ai, _mm_loadu_pd(xd + 2 * i)));
  }
}

SYMPVL_TGT_AVX512
void c5_scale_cols(Index q, Index w, const Complex* src, Index lds,
                   const Complex* d, Complex* dst, Index ldd) {
  for (Index j = 0; j < w; ++j) {
    const double* SYMPVL_RESTRICT s =
        reinterpret_cast<const double*>(src + j * lds);
    double* SYMPVL_RESTRICT t = reinterpret_cast<double*>(dst + j * ldd);
    __m512d dre, dim;
    bcast512(d[j], dre, dim);
    Index i = 0;
    for (; i + 4 <= q; i += 4)
      _mm512_storeu_pd(t + 2 * i,
                       cmul512(dre, dim, _mm512_loadu_pd(s + 2 * i)));
    if (i + 2 <= q) {
      __m256d dr, di;
      bcast256(d[j], dr, di);
      _mm256_storeu_pd(t + 2 * i,
                       cmul256(dr, di, _mm256_loadu_pd(s + 2 * i)));
      i += 2;
    }
    if (i < q) {
      __m128d dr, di;
      bcast128(d[j], dr, di);
      _mm_storeu_pd(t + 2 * i, cmul128(dr, di, _mm_loadu_pd(s + 2 * i)));
    }
  }
}

SYMPVL_TGT_AVX512
void c5_gemm(Index m, Index q, Index k, const Complex* a, Index lda,
             const Complex* b, Index ldb, Complex* c, Index ldc) {
  const double* ad = reinterpret_cast<const double*>(a);
  double* cd = reinterpret_cast<double*>(c);
  Index j = 0;
  for (; j + 2 <= q; j += 2) {
    double* SYMPVL_RESTRICT c0 = cd + 2 * j * ldc;
    double* SYMPVL_RESTRICT c1 = cd + 2 * (j + 1) * ldc;
    Index i = 0;
    for (; i + 4 <= m; i += 4) {
      __m512d p0 = _mm512_loadu_pd(c0 + 2 * i);
      __m512d p1 = _mm512_loadu_pd(c1 + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_loadu_pd(ad + 2 * (kk * lda + i));
        __m512d bre, bim;
        bcast512(b[kk * ldb + j], bre, bim);
        p0 = _mm512_add_pd(p0, cmul512(bre, bim, av));
        bcast512(b[kk * ldb + j + 1], bre, bim);
        p1 = _mm512_add_pd(p1, cmul512(bre, bim, av));
      }
      _mm512_storeu_pd(c0 + 2 * i, p0);
      _mm512_storeu_pd(c1 + 2 * i, p1);
    }
    if (i + 2 <= m) {
      __m256d p0 = _mm256_loadu_pd(c0 + 2 * i);
      __m256d p1 = _mm256_loadu_pd(c1 + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_loadu_pd(ad + 2 * (kk * lda + i));
        __m256d bre, bim;
        bcast256(b[kk * ldb + j], bre, bim);
        p0 = _mm256_add_pd(p0, cmul256(bre, bim, av));
        bcast256(b[kk * ldb + j + 1], bre, bim);
        p1 = _mm256_add_pd(p1, cmul256(bre, bim, av));
      }
      _mm256_storeu_pd(c0 + 2 * i, p0);
      _mm256_storeu_pd(c1 + 2 * i, p1);
      i += 2;
    }
    if (i < m) {
      __m128d p0 = _mm_loadu_pd(c0 + 2 * i);
      __m128d p1 = _mm_loadu_pd(c1 + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        const __m128d av = _mm_loadu_pd(ad + 2 * (kk * lda + i));
        __m128d br, bi;
        bcast128(b[kk * ldb + j], br, bi);
        p0 = _mm_add_pd(p0, cmul128(br, bi, av));
        bcast128(b[kk * ldb + j + 1], br, bi);
        p1 = _mm_add_pd(p1, cmul128(br, bi, av));
      }
      _mm_storeu_pd(c0 + 2 * i, p0);
      _mm_storeu_pd(c1 + 2 * i, p1);
    }
  }
  for (; j < q; ++j) {
    double* SYMPVL_RESTRICT cj = cd + 2 * j * ldc;
    Index i = 0;
    for (; i + 4 <= m; i += 4) {
      __m512d p0 = _mm512_loadu_pd(cj + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        __m512d bre, bim;
        bcast512(b[kk * ldb + j], bre, bim);
        p0 = _mm512_add_pd(
            p0, cmul512(bre, bim, _mm512_loadu_pd(ad + 2 * (kk * lda + i))));
      }
      _mm512_storeu_pd(cj + 2 * i, p0);
    }
    if (i + 2 <= m) {
      __m256d p0 = _mm256_loadu_pd(cj + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        __m256d bre, bim;
        bcast256(b[kk * ldb + j], bre, bim);
        p0 = _mm256_add_pd(
            p0, cmul256(bre, bim, _mm256_loadu_pd(ad + 2 * (kk * lda + i))));
      }
      _mm256_storeu_pd(cj + 2 * i, p0);
      i += 2;
    }
    if (i < m) {
      __m128d p0 = _mm_loadu_pd(cj + 2 * i);
      for (Index kk = 0; kk < k; ++kk) {
        __m128d br, bi;
        bcast128(b[kk * ldb + j], br, bi);
        p0 = _mm_add_pd(
            p0, cmul128(br, bi, _mm_loadu_pd(ad + 2 * (kk * lda + i))));
      }
      _mm_storeu_pd(cj + 2 * i, p0);
    }
  }
}

SYMPVL_TGT_AVX512
void c5_trsm_forward(Index w, const Complex* panel, Index ld, Index nrhs,
                     Complex* x) {
  double* xd = reinterpret_cast<double*>(x);
  for (Index j = 0; j < w; ++j) {
    const Complex* lcol = panel + j * ld;
    const double* xj = xd + 2 * j * nrhs;
    for (Index i = j + 1; i < w; ++i) {
      __m512d lre, lim;
      bcast512(lcol[i], lre, lim);
      double* xi = xd + 2 * i * nrhs;
      Index c = 0;
      for (; c + 4 <= nrhs; c += 4)
        _mm512_storeu_pd(
            xi + 2 * c,
            _mm512_sub_pd(_mm512_loadu_pd(xi + 2 * c),
                          cmul512(lre, lim, _mm512_loadu_pd(xj + 2 * c))));
      if (c + 2 <= nrhs) {
        __m256d lr, li;
        bcast256(lcol[i], lr, li);
        _mm256_storeu_pd(
            xi + 2 * c,
            _mm256_sub_pd(_mm256_loadu_pd(xi + 2 * c),
                          cmul256(lr, li, _mm256_loadu_pd(xj + 2 * c))));
        c += 2;
      }
      if (c < nrhs) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        _mm_storeu_pd(xi + 2 * c,
                      _mm_sub_pd(_mm_loadu_pd(xi + 2 * c),
                                 cmul128(lr, li, _mm_loadu_pd(xj + 2 * c))));
      }
    }
  }
}

SYMPVL_TGT_AVX512
void c5_trsm_backward(Index w, const Complex* panel, Index ld, Index nrhs,
                      Complex* x) {
  double* xd = reinterpret_cast<double*>(x);
  for (Index j = w; j-- > 0;) {
    const Complex* lcol = panel + j * ld;
    double* xj = xd + 2 * j * nrhs;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = j + 1; i < w; ++i) {
        __m512d lre, lim;
        bcast512(lcol[i], lre, lim);
        acc = _mm512_add_pd(
            acc, cmul512(lre, lim, _mm512_loadu_pd(xd + 2 * (i * nrhs + c))));
      }
      _mm512_storeu_pd(xj + 2 * c,
                       _mm512_sub_pd(_mm512_loadu_pd(xj + 2 * c), acc));
    }
    if (c + 2 <= nrhs) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = j + 1; i < w; ++i) {
        __m256d lr, li;
        bcast256(lcol[i], lr, li);
        acc = _mm256_add_pd(
            acc, cmul256(lr, li, _mm256_loadu_pd(xd + 2 * (i * nrhs + c))));
      }
      _mm256_storeu_pd(xj + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + 2 * c), acc));
      c += 2;
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index i = j + 1; i < w; ++i) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        acc = _mm_add_pd(
            acc, cmul128(lr, li, _mm_loadu_pd(xd + 2 * (i * nrhs + c))));
      }
      _mm_storeu_pd(xj + 2 * c, _mm_sub_pd(_mm_loadu_pd(xj + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void c5_below_forward(Index r, Index w, Index nrhs, const Complex* lbelow,
                      Index ld, const Index* rows, const Complex* xtop,
                      Complex* x) {
  const double* xtd = reinterpret_cast<const double*>(xtop);
  double* xd = reinterpret_cast<double*>(x);
  for (Index i = 0; i < r; ++i) {
    double* xi = xd + 2 * rows[i] * nrhs;
    const Complex* li = lbelow + i;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m512d acc = _mm512_setzero_pd();
      for (Index j = 0; j < w; ++j) {
        __m512d lre, lim;
        bcast512(li[j * ld], lre, lim);
        acc = _mm512_add_pd(
            acc, cmul512(lre, lim, _mm512_loadu_pd(xtd + 2 * (j * nrhs + c))));
      }
      _mm512_storeu_pd(xi + 2 * c,
                       _mm512_sub_pd(_mm512_loadu_pd(xi + 2 * c), acc));
    }
    if (c + 2 <= nrhs) {
      __m256d acc = _mm256_setzero_pd();
      for (Index j = 0; j < w; ++j) {
        __m256d lr, li2;
        bcast256(li[j * ld], lr, li2);
        acc = _mm256_add_pd(
            acc, cmul256(lr, li2, _mm256_loadu_pd(xtd + 2 * (j * nrhs + c))));
      }
      _mm256_storeu_pd(xi + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xi + 2 * c), acc));
      c += 2;
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index j = 0; j < w; ++j) {
        __m128d lr, li2;
        bcast128(li[j * ld], lr, li2);
        acc = _mm_add_pd(
            acc, cmul128(lr, li2, _mm_loadu_pd(xtd + 2 * (j * nrhs + c))));
      }
      _mm_storeu_pd(xi + 2 * c, _mm_sub_pd(_mm_loadu_pd(xi + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void c5_below_backward(Index r, Index w, Index nrhs, const Complex* lbelow,
                       Index ld, const Index* rows, const Complex* x,
                       Complex* xtop) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* xtd = reinterpret_cast<double*>(xtop);
  for (Index j = 0; j < w; ++j) {
    const Complex* lcol = lbelow + j * ld;
    double* xj = xtd + 2 * j * nrhs;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4) {
      __m512d acc = _mm512_setzero_pd();
      for (Index i = 0; i < r; ++i) {
        __m512d lre, lim;
        bcast512(lcol[i], lre, lim);
        acc = _mm512_add_pd(
            acc,
            cmul512(lre, lim, _mm512_loadu_pd(xd + 2 * (rows[i] * nrhs + c))));
      }
      _mm512_storeu_pd(xj + 2 * c,
                       _mm512_sub_pd(_mm512_loadu_pd(xj + 2 * c), acc));
    }
    if (c + 2 <= nrhs) {
      __m256d acc = _mm256_setzero_pd();
      for (Index i = 0; i < r; ++i) {
        __m256d lr, li;
        bcast256(lcol[i], lr, li);
        acc = _mm256_add_pd(
            acc,
            cmul256(lr, li, _mm256_loadu_pd(xd + 2 * (rows[i] * nrhs + c))));
      }
      _mm256_storeu_pd(xj + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(xj + 2 * c), acc));
      c += 2;
    }
    if (c < nrhs) {
      __m128d acc = _mm_setzero_pd();
      for (Index i = 0; i < r; ++i) {
        __m128d lr, li;
        bcast128(lcol[i], lr, li);
        acc = _mm_add_pd(
            acc,
            cmul128(lr, li, _mm_loadu_pd(xd + 2 * (rows[i] * nrhs + c))));
      }
      _mm_storeu_pd(xj + 2 * c, _mm_sub_pd(_mm_loadu_pd(xj + 2 * c), acc));
    }
  }
}

SYMPVL_TGT_AVX512
void c5_diag_solve(Index n, Index nrhs, const Complex* d, Complex* x) {
  double* xd = reinterpret_cast<double*>(x);
  for (Index i = 0; i < n; ++i) {
    const Complex inv = Complex(1) / d[i];
    __m512d ire, iim;
    bcast512(inv, ire, iim);
    double* xi = xd + 2 * i * nrhs;
    Index c = 0;
    for (; c + 4 <= nrhs; c += 4)
      _mm512_storeu_pd(xi + 2 * c,
                       cmul512(ire, iim, _mm512_loadu_pd(xi + 2 * c)));
    if (c + 2 <= nrhs) {
      __m256d ir, ii;
      bcast256(inv, ir, ii);
      _mm256_storeu_pd(xi + 2 * c,
                       cmul256(ir, ii, _mm256_loadu_pd(xi + 2 * c)));
      c += 2;
    }
    if (c < nrhs) {
      __m128d ir, ii;
      bcast128(inv, ir, ii);
      _mm_storeu_pd(xi + 2 * c, cmul128(ir, ii, _mm_loadu_pd(xi + 2 * c)));
    }
  }
}

#endif  // SYMPVL_X86

}  // namespace

template <typename T>
const PanelKernels<T>& panel_kernels(SimdLevel level) {
  static const PanelKernels<T> scalar = {
      &sc_gemm<T>,          &sc_scale_cols<T>,    &sc_trsm_forward<T>,
      &sc_trsm_backward<T>, &sc_below_forward<T>, &sc_below_backward<T>,
      &sc_diag_solve<T>,    &axpy_n<T>,           &scale_n<T>};
#if SYMPVL_X86
  if constexpr (std::is_same_v<T, double>) {
    static const PanelKernels<double> avx2 = {
        &d2_gemm,          &d2_scale_cols,    &d2_trsm_forward,
        &d2_trsm_backward, &d2_below_forward, &d2_below_backward,
        &d2_diag_solve,    &d2_axpy,          &d2_scale};
    static const PanelKernels<double> avx512 = {
        &d5_gemm,          &d5_scale_cols,    &d5_trsm_forward,
        &d5_trsm_backward, &d5_below_forward, &d5_below_backward,
        &d5_diag_solve,    &d5_axpy,          &d5_scale};
    if (level == SimdLevel::kAvx512) return avx512;
    if (level == SimdLevel::kAvx2) return avx2;
  } else {
    static const PanelKernels<Complex> avx2 = {
        &c2_gemm,          &c2_scale_cols,    &c2_trsm_forward,
        &c2_trsm_backward, &c2_below_forward, &c2_below_backward,
        &c2_diag_solve,    &c2_axpy,          &c2_scale};
    static const PanelKernels<Complex> avx512 = {
        &c5_gemm,          &c5_scale_cols,    &c5_trsm_forward,
        &c5_trsm_backward, &c5_below_forward, &c5_below_backward,
        &c5_diag_solve,    &c5_axpy,          &c5_scale};
    if (level == SimdLevel::kAvx512) return avx512;
    if (level == SimdLevel::kAvx2) return avx2;
  }
#else
  (void)level;
#endif
  return scalar;
}

template const PanelKernels<double>& panel_kernels<double>(SimdLevel);
template const PanelKernels<Complex>& panel_kernels<Complex>(SimdLevel);

}  // namespace kernels

}  // namespace sympvl
