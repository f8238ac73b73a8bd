#include "linalg/kernels.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
// GCC 12's _mm512_permute_pd routes through _mm512_undefined_pd() and
// trips -Wuninitialized when inlined into user code (GCC PR105593); the
// intrinsic is correct, so silence the header for this TU.
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

#define SYMPVL_TGT_AVX2 __attribute__((target("avx2,fma")))
#define SYMPVL_TGT_AVX512 \
  __attribute__((target("avx512f,avx512vl,avx2,fma")))

// ---------------------------------------------------------------------
// Vector traits. A lane set covers n contiguous doubles (or complex
// values) and names the operations the width-generic kernel bodies in
// kernels_simd.inc run on them. A full-width set also finishes the
// elements left at the end of a row or RHS block (`tail`): AVX2 runs them
// one double at a time with std::fma, AVX-512 under a mask, and the
// complex sets halve the width down to one complex per __m128d. A tail
// lane executes the same fused operation as a full lane, which keeps
// single-RHS and multi-RHS solves bit-identical within a level and makes
// AVX2 and AVX-512 agree bit for bit.
// ---------------------------------------------------------------------

/// One double: the AVX2 tail lane.
struct D1 {
  using reg = double;
  static constexpr Index n = 1;
  SYMPVL_TGT_AVX2 static reg load(const double* p) { return *p; }
  SYMPVL_TGT_AVX2 static void store(double* p, reg v) { *p = v; }
  SYMPVL_TGT_AVX2 static reg set1(double a) { return a; }
  SYMPVL_TGT_AVX2 static reg zero() { return 0.0; }
  SYMPVL_TGT_AVX2 static reg fma(reg a, reg b, reg c) {
    return std::fma(a, b, c);
  }
  SYMPVL_TGT_AVX2 static reg fnma(reg a, reg b, reg c) {
    return std::fma(-a, b, c);
  }
  SYMPVL_TGT_AVX2 static reg mul(reg a, reg b) { return a * b; }
  SYMPVL_TGT_AVX2 static reg sub(reg a, reg b) { return a - b; }
  SYMPVL_TGT_AVX2 static reg div(reg a, reg b) { return a / b; }
};

/// Four doubles per __m256d; a tail runs in D1 lanes.
struct D256 {
  using reg = __m256d;
  static constexpr Index n = 4;
  SYMPVL_TGT_AVX2 static reg load(const double* p) { return _mm256_loadu_pd(p); }
  SYMPVL_TGT_AVX2 static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  SYMPVL_TGT_AVX2 static reg set1(double a) { return _mm256_set1_pd(a); }
  SYMPVL_TGT_AVX2 static reg zero() { return _mm256_setzero_pd(); }
  SYMPVL_TGT_AVX2 static reg fma(reg a, reg b, reg c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  SYMPVL_TGT_AVX2 static reg fnma(reg a, reg b, reg c) {
    return _mm256_fnmadd_pd(a, b, c);
  }
  SYMPVL_TGT_AVX2 static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  SYMPVL_TGT_AVX2 static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  SYMPVL_TGT_AVX2 static reg div(reg a, reg b) { return _mm256_div_pd(a, b); }
  template <class F>
  SYMPVL_TGT_AVX2 static void tail(Index i, Index end, const F& f) {
    for (; i < end; ++i) f(D1{}, i);
  }
};

/// The arithmetic on eight doubles per __m512d.
struct D512Ops {
  using reg = __m512d;
  SYMPVL_TGT_AVX512 static reg set1(double a) { return _mm512_set1_pd(a); }
  SYMPVL_TGT_AVX512 static reg zero() { return _mm512_setzero_pd(); }
  SYMPVL_TGT_AVX512 static reg fma(reg a, reg b, reg c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  SYMPVL_TGT_AVX512 static reg fnma(reg a, reg b, reg c) {
    return _mm512_fnmadd_pd(a, b, c);
  }
  SYMPVL_TGT_AVX512 static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  SYMPVL_TGT_AVX512 static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  SYMPVL_TGT_AVX512 static reg div(reg a, reg b) { return _mm512_div_pd(a, b); }
};

/// The AVX-512 tail: the first `k` lanes load and store, the rest read 0.
struct D512Masked : D512Ops {
  __mmask8 k;
  SYMPVL_TGT_AVX512 reg load(const double* p) const {
    return _mm512_maskz_loadu_pd(k, p);
  }
  SYMPVL_TGT_AVX512 void store(double* p, reg v) const {
    _mm512_mask_storeu_pd(p, k, v);
  }
};

/// Eight doubles per __m512d; a tail runs masked.
struct D512 : D512Ops {
  static constexpr Index n = 8;
  SYMPVL_TGT_AVX512 static reg load(const double* p) { return _mm512_loadu_pd(p); }
  SYMPVL_TGT_AVX512 static void store(double* p, reg v) {
    _mm512_storeu_pd(p, v);
  }
  template <class F>
  SYMPVL_TGT_AVX512 static void tail(Index i, Index end, const F& f) {
    if (i < end)
      f(D512Masked{{}, static_cast<__mmask8>((1u << (end - i)) - 1u)}, i);
  }
};

// Complex lane sets hold interleaved [re, im] doubles (std::complex
// <double>'s guaranteed layout). A product a·b vectorizes as
//   fmaddsub(dup_re(a), b, mul(dup_im(a), swap(b)))
// (even lanes a_re·b_re − a_im·b_im, odd lanes a_re·b_im + a_im·b_re).
// The broadcast operand `a` always takes the dup role, so every width
// rounds identically. `bcast` builds dup_re(a) and dup_im(a) from a's
// parts in registers, so a loop-invariant `a` is broadcast once, outside
// the loop.

/// One complex per __m128d: the bottom of every complex tail.
struct C128 {
  using reg = __m128d;
  struct bc {
    reg re, im;
  };
  static constexpr Index n = 1;
  SYMPVL_TGT_AVX2 static reg load(const Complex* p) {
    return _mm_loadu_pd(reinterpret_cast<const double*>(p));
  }
  SYMPVL_TGT_AVX2 static void store(Complex* p, reg v) {
    _mm_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  SYMPVL_TGT_AVX2 static bc bcast(const Complex& z) {
    return {_mm_set1_pd(z.real()), _mm_set1_pd(z.imag())};
  }
  SYMPVL_TGT_AVX2 static reg cmul(const bc& a, reg b) {
    return _mm_fmaddsub_pd(a.re, b, _mm_mul_pd(a.im, _mm_permute_pd(b, 0x1)));
  }
  SYMPVL_TGT_AVX2 static reg zero() { return _mm_setzero_pd(); }
  SYMPVL_TGT_AVX2 static reg add(reg a, reg b) { return _mm_add_pd(a, b); }
  SYMPVL_TGT_AVX2 static reg sub(reg a, reg b) { return _mm_sub_pd(a, b); }
};

/// Two complex per __m256d; a tail complex runs in C128.
struct C256 {
  using reg = __m256d;
  struct bc {
    reg re, im;
  };
  static constexpr Index n = 2;
  SYMPVL_TGT_AVX2 static reg load(const Complex* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  SYMPVL_TGT_AVX2 static void store(Complex* p, reg v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  SYMPVL_TGT_AVX2 static bc bcast(const Complex& z) {
    return {_mm256_set1_pd(z.real()), _mm256_set1_pd(z.imag())};
  }
  SYMPVL_TGT_AVX2 static reg cmul(const bc& a, reg b) {
    return _mm256_fmaddsub_pd(a.re, b,
                              _mm256_mul_pd(a.im, _mm256_permute_pd(b, 0x5)));
  }
  SYMPVL_TGT_AVX2 static reg zero() { return _mm256_setzero_pd(); }
  SYMPVL_TGT_AVX2 static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  SYMPVL_TGT_AVX2 static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  template <class F>
  SYMPVL_TGT_AVX2 static void tail(Index i, Index end, const F& f) {
    if (i < end) f(C128{}, i);
  }
};

/// Four complex per __m512d; a tail cascades through C256 and C128.
struct C512 {
  using reg = __m512d;
  struct bc {
    reg re, im;
  };
  static constexpr Index n = 4;
  SYMPVL_TGT_AVX512 static reg load(const Complex* p) {
    return _mm512_loadu_pd(reinterpret_cast<const double*>(p));
  }
  SYMPVL_TGT_AVX512 static void store(Complex* p, reg v) {
    _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  SYMPVL_TGT_AVX512 static bc bcast(const Complex& z) {
    return {_mm512_set1_pd(z.real()), _mm512_set1_pd(z.imag())};
  }
  SYMPVL_TGT_AVX512 static reg cmul(const bc& a, reg b) {
    return _mm512_fmaddsub_pd(a.re, b,
                              _mm512_mul_pd(a.im, _mm512_permute_pd(b, 0x55)));
  }
  SYMPVL_TGT_AVX512 static reg zero() { return _mm512_setzero_pd(); }
  SYMPVL_TGT_AVX512 static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  SYMPVL_TGT_AVX512 static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  template <class F>
  SYMPVL_TGT_AVX512 static void tail(Index i, Index end, const F& f) {
    if (i + 2 <= end) {
      f(C256{}, i);
      i += 2;
    }
    if (i < end) f(C128{}, i);
  }
};

// ---------------------------------------------------------------------
// nrhs = 1 double kernels, shared by the AVX2 and AVX-512 tables. A
// vector across the right-hand sides would hold one live lane, so these
// switch layout and keep every chain (see kernels.hpp).
// ---------------------------------------------------------------------

// In-panel forward solve: for each column j, x[j+1..w) -= L(j+1..w, j)·x[j]
// vectorized down the column, each element the one fused
// x[i] − L(i,j)·x[j] of the general kernel.
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

// Below-panel updates. Every row's (forward) or column's (backward) FMA
// chain is the one the general kernels run on their single RHS lane: acc
// starts at zero, takes fma(L, x, acc) in ascending order, and is
// subtracted once.

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

// ---------------------------------------------------------------------
// The vector kernels, one body compiled once per level: each instance
// lives in its level's namespace and carries that level's target.
// ---------------------------------------------------------------------

namespace avx2 {
using DV = D256;
using CV = C256;
#define SYMPVL_KTGT SYMPVL_TGT_AVX2
#include "linalg/kernels_simd.inc"
#undef SYMPVL_KTGT
}  // namespace avx2

namespace avx512 {
using DV = D512;
using CV = C512;
#define SYMPVL_KTGT SYMPVL_TGT_AVX512
#include "linalg/kernels_simd.inc"
#undef SYMPVL_KTGT
}  // namespace avx512

#endif  // SYMPVL_X86

}  // namespace

template <typename T>
const PanelKernels<T>& panel_kernels(SimdLevel level) {
  static const PanelKernels<T> scalar = {
      &sc_gemm<T>,          &sc_scale_cols<T>,    &sc_trsm_forward<T>,
      &sc_trsm_backward<T>, &sc_below_forward<T>, &sc_below_backward<T>,
      &sc_diag_solve<T>,    &axpy_n<T>,           &scale_n<T>};
#if SYMPVL_X86
  if (level == SimdLevel::kAvx512) return avx512::kTable<T>;
  if (level == SimdLevel::kAvx2) return avx2::kTable<T>;
#else
  (void)level;
#endif
  return scalar;
}

template const PanelKernels<double>& panel_kernels<double>(SimdLevel);
template const PanelKernels<Complex>& panel_kernels<Complex>(SimdLevel);

}  // namespace kernels

}  // namespace sympvl
