// SIMD dispatch layer: every resolvable level (scalar, AVX2, AVX-512
// where the host supports it) must produce the same factorization and
// solves to rounding on the paper's meshes and on pathological shapes,
// must fail identically under injected pivot faults, and the elimination-
// tree parallel schedule must be bit-identical to the serial one.
#include "linalg/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>

#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/rc_interconnect.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/sympvl.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {
namespace {

KernelOptions supernodal_at(SimdLevel level) {
  KernelOptions o;
  o.path = KernelPath::kSupernodal;
  o.simd = level;
  return o;
}

// Every level the current host can actually run. kScalar is always
// present; the vector levels appear only when CPUID reports them, so the
// suite degrades gracefully on narrow hosts.
std::vector<SimdLevel> host_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = detect_simd_level();
  if (best >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (best >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

SMat random_spd_sparse(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.1, 2.0);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 1.0 + u(rng));
  for (Index k = 0; k < 3 * n; ++k) {
    const Index a = pick(rng), b = pick(rng);
    if (a == b) continue;
    const double w = u(rng);
    t.add(a, a, w);
    t.add(b, b, w);
    t.add_symmetric(a, b, -w);
  }
  return t.compress();
}

SMat diagonal_spd(Index n) {
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0 + static_cast<double>(i));
  return t.compress();
}

SMat fully_dense_spd(Index n) {
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) {
    t.add(i, i, static_cast<double>(n) + 1.0);
    for (Index j = 0; j < i; ++j)
      t.add_symmetric(i, j, -1.0 / (1.0 + std::abs(static_cast<double>(i - j))));
  }
  return t.compress();
}

SMat shifted_pencil_of(const MnaSystem& sys, double s0) {
  TripletBuilder<double> t(sys.size(), sys.size());
  for (Index j = 0; j < sys.size(); ++j) {
    for (Index k = sys.G.colptr()[static_cast<size_t>(j)];
         k < sys.G.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(sys.G.rowind()[static_cast<size_t>(k)], j,
            sys.G.values()[static_cast<size_t>(k)]);
    for (Index k = sys.C.colptr()[static_cast<size_t>(j)];
         k < sys.C.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(sys.C.rowind()[static_cast<size_t>(k)], j,
            s0 * sys.C.values()[static_cast<size_t>(k)]);
  }
  return t.compress();
}

Mat multi_rhs(Index n, Index p) {
  Mat b(n, p);
  for (Index j = 0; j < p; ++j)
    for (Index i = 0; i < n; ++i)
      b(i, j) = std::sin(static_cast<double>(i + 1) *
                         (0.3 + 0.1 * static_cast<double>(j)));
  return b;
}

// Factor + single/multi-RHS solves at `level`, compared entry by entry
// against the scalar reference (same path, same symbolic, so the only
// variable is the instruction set — agreement must be ~machine epsilon).
void expect_level_parity(const SMat& a, const char* label) {
  const LDLT ref(a, Ordering::kRCM, 1e-14, supernodal_at(SimdLevel::kScalar));
  ASSERT_EQ(ref.simd_level(), SimdLevel::kScalar) << label;
  const Index n = a.rows();
  std::vector<double> b1(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i)
    b1[static_cast<size_t>(i)] = std::cos(0.7 * static_cast<double>(i)) + 0.1;
  const Mat bp = multi_rhs(n, 7);
  const std::vector<double> x_ref = ref.solve(b1);
  const Mat xp_ref = ref.solve(bp);
  double dmax = 0.0, xmax = 0.0, xpmax = 0.0;
  for (const double v : ref.d()) dmax = std::max(dmax, std::abs(v));
  for (const double v : x_ref) xmax = std::max(xmax, std::abs(v));
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < bp.cols(); ++j)
      xpmax = std::max(xpmax, std::abs(xp_ref(i, j)));

  for (const SimdLevel level : host_levels()) {
    if (level == SimdLevel::kScalar) continue;
    const LDLT f(a, Ordering::kRCM, 1e-14, supernodal_at(level));
    ASSERT_EQ(f.simd_level(), level) << label;
    ASSERT_EQ(f.d().size(), ref.d().size()) << label;
    for (size_t i = 0; i < ref.d().size(); ++i)
      EXPECT_NEAR(f.d()[i], ref.d()[i], 1e-12 * dmax)
          << label << " d[" << i << "] at " << simd_level_name(level);
    const std::vector<double> x = f.solve(b1);
    for (Index i = 0; i < n; ++i)
      EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                  1e-12 * xmax)
          << label << " x[" << i << "] at " << simd_level_name(level);
    const Mat xp = f.solve(bp);
    for (Index i = 0; i < n; ++i)
      for (Index j = 0; j < bp.cols(); ++j)
        EXPECT_NEAR(xp(i, j), xp_ref(i, j), 1e-12 * xpmax)
            << label << " X(" << i << "," << j << ") at "
            << simd_level_name(level);
  }
}

// ---- Cross-level parity on the paper's meshes ------------------------------

TEST(SimdDispatch, PackageMeshParityAcrossLevels) {
  const MnaSystem sys =
      build_mna(make_package_circuit({.pins = 16, .segments = 5}).netlist,
                MnaForm::kGeneral);
  expect_level_parity(shifted_pencil_of(sys, automatic_shift(sys)), "package");
}

TEST(SimdDispatch, InterconnectMeshParityAcrossLevels) {
  const MnaSystem sys =
      build_mna(make_interconnect_circuit({.wires = 4, .segments = 60}).netlist,
                MnaForm::kRC);
  expect_level_parity(shifted_pencil_of(sys, automatic_shift(sys)),
                      "interconnect");
}

TEST(SimdDispatch, RandomSparseParityAcrossLevels) {
  expect_level_parity(random_spd_sparse(257, 99), "random_spd");
}

// ---- Pathological shapes: remainder lanes, tiny panels, huge panels --------

TEST(SimdDispatch, DiagonalMatrixParityAcrossLevels) {
  // Width-1 panels everywhere (after relaxation caps): every kernel call
  // is a remainder lane.
  expect_level_parity(diagonal_spd(65), "diagonal");
}

TEST(SimdDispatch, FullyDenseMatrixParityAcrossLevels) {
  // One giant panel: the blocked kernels run at full width, with an odd n
  // forcing a remainder row in every vector op.
  expect_level_parity(fully_dense_spd(61), "dense");
}

TEST(SimdDispatch, SingletonSystemAcrossLevels) {
  const SMat a = diagonal_spd(1);
  for (const SimdLevel level : host_levels()) {
    const LDLT f(a, Ordering::kNatural, 0.0, supernodal_at(level));
    std::vector<double> b = {6.0};
    const std::vector<double> x = f.solve(b);
    EXPECT_DOUBLE_EQ(x[0], 3.0) << simd_level_name(level);
  }
}

// ---- Determinism: the parallel schedule must not change the bits ----------

TEST(SimdDispatch, ThreadCountDoesNotChangeBits) {
  const MnaSystem sys =
      build_mna(make_package_circuit({.pins = 16, .segments = 6}).netlist,
                MnaForm::kGeneral);
  const SMat a = shifted_pencil_of(sys, automatic_shift(sys));
  const Mat b = multi_rhs(a.rows(), 16);
  const Index previous = num_threads();

  set_num_threads(1);
  const LDLT serial(a, Ordering::kRCM, 1e-14, supernodal_at(SimdLevel::kAuto));
  const Mat x_serial = serial.solve(b);

  set_num_threads(4);
  const LDLT parallel(a, Ordering::kRCM, 1e-14,
                      supernodal_at(SimdLevel::kAuto));
  const Mat x_parallel = parallel.solve(b);
  set_num_threads(previous);

  // Per-supernode arithmetic is schedule-independent and the descendant
  // pull order is fixed by the symbolic structure, so the factors and
  // solves must agree bit for bit — not just to rounding.
  ASSERT_EQ(serial.d().size(), parallel.d().size());
  for (size_t i = 0; i < serial.d().size(); ++i)
    EXPECT_EQ(serial.d()[i], parallel.d()[i]) << "d[" << i << "]";
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j)
      EXPECT_EQ(x_serial(i, j), x_parallel(i, j))
          << "X(" << i << "," << j << ")";
}

// ---- Level resolution: env override, clamping, explicit request ------------

TEST(SimdResolve, AutoFollowsDetectionWithoutEnv) {
  unsetenv("SYMPVL_SIMD");
  EXPECT_EQ(resolve_simd_level(SimdLevel::kAuto), detect_simd_level());
}

TEST(SimdResolve, EnvForcesScalar) {
  setenv("SYMPVL_SIMD", "scalar", 1);
  EXPECT_EQ(resolve_simd_level(SimdLevel::kAuto), SimdLevel::kScalar);
  unsetenv("SYMPVL_SIMD");
}

TEST(SimdResolve, EnvRequestsClampToHost) {
  setenv("SYMPVL_SIMD", "avx512", 1);
  EXPECT_EQ(resolve_simd_level(SimdLevel::kAuto),
            std::min(SimdLevel::kAvx512, detect_simd_level()));
  setenv("SYMPVL_SIMD", "avx2", 1);
  EXPECT_EQ(resolve_simd_level(SimdLevel::kAuto),
            std::min(SimdLevel::kAvx2, detect_simd_level()));
  unsetenv("SYMPVL_SIMD");
}

TEST(SimdResolve, ExplicitRequestBeatsEnv) {
  setenv("SYMPVL_SIMD", "avx2", 1);
  EXPECT_EQ(resolve_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  unsetenv("SYMPVL_SIMD");
}

TEST(SimdResolve, ExplicitRequestClampsToHost) {
  unsetenv("SYMPVL_SIMD");
  EXPECT_LE(resolve_simd_level(SimdLevel::kAvx512), detect_simd_level());
}

// ---- Path resolution: the RHS-width term of the heuristic ------------------

TEST(KernelPathResolve, WideRhsBlocksFavorSimplicial) {
  KernelOptions o;  // path = kAuto
  // n = 100: blocks wider than n/4 tip the heuristic to simplicial.
  EXPECT_EQ(resolve_kernel_path(o, 100, 26), KernelPath::kSimplicial);
  EXPECT_EQ(resolve_kernel_path(o, 100, 25), KernelPath::kSupernodal);
  // Unknown width (<= 0) leaves the n-only rule.
  EXPECT_EQ(resolve_kernel_path(o, 100, 0), KernelPath::kSupernodal);
  EXPECT_EQ(resolve_kernel_path(o, 100), KernelPath::kSupernodal);
  // Tiny systems stay simplicial regardless of width.
  EXPECT_EQ(resolve_kernel_path(o, 8, 1), KernelPath::kSimplicial);
  // An explicit path always wins over the heuristic.
  o.path = KernelPath::kSupernodal;
  EXPECT_EQ(resolve_kernel_path(o, 100, 64), KernelPath::kSupernodal);
  o.path = KernelPath::kSimplicial;
  EXPECT_EQ(resolve_kernel_path(o, 100000, 1), KernelPath::kSimplicial);
}

}  // namespace
}  // namespace sympvl
