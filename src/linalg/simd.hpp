// Runtime SIMD dispatch for the dense panel microkernels.
//
// The supernodal LDLᵀ path spends its time in three dense primitives —
// the rank-k panel update (GEMM-like), the triangular panel solves, and
// diagonal scaling. Each has a scalar variant and one width-generic
// vector body compiled as AVX2+FMA and as AVX-512, all in every binary
// (via GCC/Clang `target` attributes, so no special -m flags are
// needed) and selected once per factorization:
//
//   1. an explicit KernelOptions::simd (anything but kAuto) wins;
//   2. else the SYMPVL_SIMD environment variable
//      ("scalar" | "avx2" | "avx512"; anything else falls through);
//   3. else the best level the CPU supports (CPUID probe, cached).
//
// A requested level the host cannot execute is clamped down to the best
// supported one, so SYMPVL_SIMD=avx512 on an AVX2-only host silently
// runs AVX2 — tests that force levels stay portable.
//
// Numerical contract: the scalar level rounds twice the multiply-add
// chains the vector levels fuse, so scalar and vector results differ in
// the last bits (dispatch-parity tests bound the drift at 1e-12), and the
// resolved level is part of a factorization's identity — FactorCache
// keys on it. AVX2 and AVX-512 are two compilations of one kernel source
// and agree bit for bit. Within one level, single-RHS and multi-RHS
// solves run per-column bit-identical arithmetic (the vector kernels'
// remainder lanes use the same fused ops as the full vectors).
#pragma once

namespace sympvl {

/// SIMD dispatch level of the dense panel microkernels.
enum class SimdLevel {
  kAuto,    ///< resolve from SYMPVL_SIMD, then the CPUID probe
  kScalar,  ///< portable C++ kernels (the reference arithmetic)
  kAvx2,    ///< 256-bit AVX2 + FMA
  kAvx512,  ///< 512-bit AVX-512 F/VL
};

inline const char* simd_level_name(SimdLevel s) {
  switch (s) {
    case SimdLevel::kAuto: return "auto";
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

/// Best level the executing CPU supports (cached CPUID probe; kScalar on
/// non-x86 builds).
SimdLevel detect_simd_level();

/// Resolves a requested level to the one the kernels will actually run:
/// kAuto consults SYMPVL_SIMD (re-read on every call so tests can flip
/// it), then the CPU probe; explicit requests are clamped down to
/// detect_simd_level(). Never returns kAuto.
SimdLevel resolve_simd_level(SimdLevel request);

}  // namespace sympvl
