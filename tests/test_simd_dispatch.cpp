// SIMD dispatch layer: every resolvable level (scalar, AVX2, AVX-512
// where the host supports it) must produce the same factorization and
// solves to rounding on the paper's meshes and on pathological shapes,
// must fail identically under injected pivot faults, and the elimination-
// tree parallel schedule of the backward solve must be bit-identical to
// the serial one. Each
// level's panel kernels keep the per-column contract: a wide call's
// columns carry the bits of the nrhs = 1 call.
#include "linalg/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <type_traits>
#include <utility>

#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/power_grid.hpp"
#include "gen/rc_interconnect.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/sympvl.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {
namespace {

KernelOptions supernodal_at(SimdLevel level) {
  KernelOptions o;
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

// ---- The pooled numeric factor keeps L and D bit for bit ------------------

// A g×g 5-point grid Laplacian plus a diagonal shift, placed at `offset`
// in an n×n builder (two calls with disjoint offsets make a forest).
void add_grid(TripletBuilder<double>& t, Index g, Index offset) {
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index i = offset + r * g + c;
      t.add(i, i, 4.5);
      if (c + 1 < g) t.add_symmetric(i, i + 1, -1.0);
      if (r + 1 < g) t.add_symmetric(i, i + g, -1.0);
    }
}

SMat grid_system(Index g) {
  TripletBuilder<double> t(g * g, g * g);
  add_grid(t, g, 0);
  return t.compress();
}

CSMat as_complex_pencil(const SMat& g, double w) {
  TripletBuilder<Complex> t(g.rows(), g.cols());
  for (Index j = 0; j < g.cols(); ++j)
    for (Index k = g.colptr()[static_cast<size_t>(j)];
         k < g.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(g.rowind()[static_cast<size_t>(k)], j,
            Complex(g.values()[static_cast<size_t>(k)], 0.0));
  for (Index i = 0; i < g.rows(); ++i) t.add(i, i, Complex(0.0, w));
  return t.compress();
}

// An argument of the one kernel.panel_update span among `events`.
double panel_span_arg(const std::vector<obs::Event>& events, const char* key) {
  double value = -1.0;
  int spans = 0;
  for (const obs::Event& e : events) {
    if (e.phase != 'X' || std::strcmp(e.name, "kernel.panel_update") != 0) continue;
    ++spans;
    for (int k = 0; k < e.nargs; ++k)
      if (std::strcmp(e.args[k].key, key) == 0) value = e.args[k].num;
  }
  EXPECT_EQ(spans, 1);
  return value;
}

// The pool splits a factor must make at every width: a top-set
// supernode's incoming updates by rows (the panel span's row_splits
// argument), an in-panel trailing update by columns (column_splits).
struct Splits {
  bool rows = false;
  bool columns = false;
};

// Factors `a` at 1 thread and then at 2, 3 and 4, each of which must run
// on the pool (the panel span's threads argument says so) and make the
// `expected` splits, and memcmps L and D against the 1-thread factor.
template <typename T>
void expect_pooled_factor_bits(const SparseMatrix<T>& a, Ordering ordering,
                               const char* what, Splits expected) {
  SCOPED_TRACE(what);
  const Index previous = num_threads();
  set_num_threads(1);
  const SparseLDLT<T> ref(a, ordering);
  const SparseMatrix<T> l_ref = ref.l_matrix();
  for (const Index threads : {2, 3, 4}) {
    set_num_threads(threads);
    obs::enable(true);
    obs::reset();
    const SparseLDLT<T> f(a, ordering);
    const std::vector<obs::Event> events = obs::snapshot_events();
    obs::enable(false);
    obs::reset();
    EXPECT_EQ(panel_span_arg(events, "threads"), static_cast<double>(threads));
    if (expected.rows) {
      EXPECT_GT(panel_span_arg(events, "row_splits"), 0.0) << threads << " threads";
    }
    if (expected.columns) {
      EXPECT_GT(panel_span_arg(events, "column_splits"), 0.0) << threads << " threads";
    }
    const SparseMatrix<T> l = f.l_matrix();
    ASSERT_EQ(l.colptr(), l_ref.colptr()) << threads << " threads";
    ASSERT_EQ(l.rowind(), l_ref.rowind()) << threads << " threads";
    EXPECT_EQ(std::memcmp(l.values().data(), l_ref.values().data(),
                          l.values().size() * sizeof(T)),
              0)
        << "L at " << threads << " threads";
    ASSERT_EQ(f.d().size(), ref.d().size());
    EXPECT_EQ(std::memcmp(f.d().data(), ref.d().data(), f.d().size() * sizeof(T)), 0)
        << "D at " << threads << " threads";
  }
  set_num_threads(previous);
}

template <typename F>
void for_real_and_complex(const SMat& a, const F& check) {
  check(a);
  check(as_complex_pencil(a, 0.7));
}

TEST(SimdDispatch, PooledFactorKeepsBitsAtEveryThreadCount) {
  // Grids under nested dissection and under minimum degree (a bushy
  // tree); both store explicit zeros in relaxed panels, and their top
  // separators pull updates above the row-split threshold. Minimum
  // degree's top panels are also wide enough to split their in-panel
  // factor by columns.
  const SMat grid = grid_system(110);
  for (const Ordering ordering : {Ordering::kNestedDissection, Ordering::kMinDegree}) {
    EXPECT_GT(LDLT(grid, ordering).panel_zeros(), 0);
    for_real_and_complex(grid, [&](const auto& a) {
      expect_pooled_factor_bits(
          a, ordering, ordering_name(ordering),
          {.rows = true, .columns = ordering == Ordering::kMinDegree});
    });
  }
  // The package mesh: a quasi-definite pencil with negative pivots.
  const MnaSystem sys =
      build_mna(make_package_circuit({.pins = 96, .segments = 60}).netlist,
                MnaForm::kGeneral);
  const SMat package = shifted_pencil_of(sys, automatic_shift(sys));
  EXPECT_GT(LDLT(package, Ordering::kNestedDissection).negative_pivots(), 0);
  for_real_and_complex(package, [&](const auto& a) {
    expect_pooled_factor_bits(a, Ordering::kNestedDissection, "package",
                              {.rows = true, .columns = true});
  });
  // A forest: two disconnected grids, so two roots.
  TripletBuilder<double> t(2 * 80 * 80, 2 * 80 * 80);
  add_grid(t, 80, 0);
  add_grid(t, 80, 80 * 80);
  for_real_and_complex(t.compress(), [&](const auto& a) {
    expect_pooled_factor_bits(a, Ordering::kNestedDissection, "forest",
                              {.rows = true});
  });
  // One dense panel: fewer supernodes than threads, all of its work in
  // the top set's in-panel factor, split by columns, and no update to
  // split by rows.
  const SMat dense = fully_dense_spd(200);
  EXPECT_EQ(LDLT(dense, Ordering::kNatural).supernode_count(), 1);
  for_real_and_complex(dense, [&](const auto& a) {
    expect_pooled_factor_bits(a, Ordering::kNatural, "dense", {.columns = true});
  });
}

TEST(SimdDispatch, SerialPushEqualsParallelPull) {
  // Every forward solve pushes each supernode's below-row update
  // serially, whatever the thread count; the backward solve fans tree
  // levels out. On a 220×220 grid with nested dissection the 1-RHS
  // backward sweep fans out at 4 threads (at g <= 160 it never does), no
  // forward sweep does, and every column of every solve must carry the
  // bits of the 1-thread single-vector solve.
  const Index g = 220;
  TripletBuilder<double> t(g * g, g * g);
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index i = r * g + c;
      t.add(i, i, 4.5);
      if (c + 1 < g) t.add_symmetric(i, i + 1, -1.0);
      if (r + 1 < g) t.add_symmetric(i, i + g, -1.0);
    }
  const LDLT f(t.compress(), Ordering::kNestedDissection, 0.0,
               supernodal_at(SimdLevel::kAuto));
  const Index n = f.size();
  const Index p = 4;
  Mat bm(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      bm(i, j) = std::sin(0.37 * static_cast<double>(i) + static_cast<double>(j)) + 0.2;
  std::vector<std::vector<double>> cols(static_cast<size_t>(p));
  for (Index j = 0; j < p; ++j)
    for (Index i = 0; i < n; ++i) cols[static_cast<size_t>(j)].push_back(bm(i, j));
  const std::vector<double>& b = cols[0];
  const Index previous = num_threads();

  set_num_threads(1);
  std::vector<std::vector<double>> pushed;
  for (const std::vector<double>& c : cols) pushed.push_back(f.solve(c));
  const std::vector<double> m1 = f.solve_m(b);
  const std::vector<double> mt1 = f.solve_mt(b);
  const Mat xb1 = f.solve(bm);

  set_num_threads(4);
  obs::enable(true);
  obs::reset();
  const std::vector<double> x4 = f.solve(b);
  const std::vector<double> m4 = f.solve_m(b);
  const std::vector<double> mt4 = f.solve_mt(b);
  const Mat xb4 = f.solve(bm);
  const std::vector<obs::Event> events = obs::snapshot_events();
  obs::enable(false);
  obs::reset();
  set_num_threads(previous);

  // Fanned-out chunk spans by phase. The span's threads argument is
  // num_threads(), not the lane that ran the chunk, so the counts are
  // deterministic.
  int forward_fanned = 0, backward_1 = 0;
  for (const obs::Event& e : events) {
    if (e.phase != 'X' || std::strcmp(e.name, "kernel.trsm") != 0) continue;
    const char* phase = "";
    double nrhs = 0.0, threads = 0.0;
    for (int k = 0; k < e.nargs; ++k) {
      if (std::strcmp(e.args[k].key, "phase") == 0) phase = e.args[k].str;
      if (std::strcmp(e.args[k].key, "nrhs") == 0) nrhs = e.args[k].num;
      if (std::strcmp(e.args[k].key, "threads") == 0) threads = e.args[k].num;
    }
    if (threads <= 1.0) continue;
    const bool forward = std::strcmp(phase, "forward") == 0;
    if (forward) ++forward_fanned;
    if (!forward && nrhs == 1.0) ++backward_1;
  }
  EXPECT_EQ(forward_fanned, 0) << "a forward solve fanned out";
  EXPECT_GE(backward_1, 1) << "no 1-RHS backward level fanned out";
  EXPECT_TRUE(pushed[0] == x4) << "solve(Vec)";
  EXPECT_TRUE(m1 == m4) << "solve_m";
  EXPECT_TRUE(mt1 == mt4) << "solve_mt";
  for (Index j = 0; j < p; ++j)
    for (Index i = 0; i < n; ++i) {
      ASSERT_EQ(xb4(i, j), xb1(i, j)) << "X(" << i << "," << j << ")";
      ASSERT_EQ(xb4(i, j), pushed[static_cast<size_t>(j)][static_cast<size_t>(i)])
          << "X(" << i << "," << j << ") against solve(Vec)";
    }
}

// ---- The nrhs = 1 kernel contract ------------------------------------------

// Every column of a wide panel-kernel call must carry the bits of the same
// kernel run on that column alone, at every level: the nrhs = 1 paths
// (row-vectorized forward update, 4/2/1 backward column chains, column-
// vectorized in-panel solve) keep each element's FMA chain.
TEST(SimdDispatch, SingleRhsKernelsMatchEveryWideColumn) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const SimdLevel level : host_levels()) {
    const auto& K = kernels::panel_kernels<double>(level);
    for (const Index r : {0, 1, 7, 8, 9, 17})
      for (const Index w : {1, 2, 3, 4, 5, 9}) {
        const Index ld = w + r + 3;  // ld > h
        std::vector<double> panel(static_cast<size_t>(ld * w));
        for (double& v : panel) v = u(rng);
        // Gapped ascending target rows below the w top rows.
        std::vector<Index> rows(static_cast<size_t>(r));
        for (Index i = 0; i < r; ++i) rows[static_cast<size_t>(i)] = w + 1 + 2 * i;
        const Index len = w + 2 * r + 2;
        for (const Index nrhs : {3, 8, 9}) {
          std::vector<double> wide(static_cast<size_t>(len * nrhs));
          for (double& v : wide) v = u(rng);
          auto column = [&](const std::vector<double>& x, Index c) {
            std::vector<double> col(static_cast<size_t>(len));
            for (Index i = 0; i < len; ++i)
              col[static_cast<size_t>(i)] = x[static_cast<size_t>(i * nrhs + c)];
            return col;
          };
          using Run = std::function<void(Index, double*)>;
          const std::pair<const char*, Run> ops[] = {
              {"below_forward",
               [&](Index k, double* x) {
                 K.below_forward(r, w, k, panel.data() + w, ld, rows.data(), x, x);
               }},
              {"below_backward",
               [&](Index k, double* x) {
                 K.below_backward(r, w, k, panel.data() + w, ld, rows.data(), x, x);
               }},
              {"trsm_forward",
               [&](Index k, double* x) { K.trsm_forward(w, panel.data(), ld, k, x); }},
              {"trsm_backward",
               [&](Index k, double* x) { K.trsm_backward(w, panel.data(), ld, k, x); }},
          };
          for (const auto& [name, run] : ops) {
            std::vector<double> xw = wide;
            run(nrhs, xw.data());
            for (Index c = 0; c < nrhs; ++c) {
              std::vector<double> x1 = column(wide, c);
              run(1, x1.data());
              const std::vector<double> got = column(xw, c);
              for (Index i = 0; i < len; ++i)
                ASSERT_TRUE(same_bits(got[static_cast<size_t>(i)],
                                      x1[static_cast<size_t>(i)]))
                    << name << " at " << simd_level_name(level) << ": r=" << r
                    << " w=" << w << " nrhs=" << nrhs << " column " << c
                    << " row " << i;
            }
          }
        }
      }
  }
}

// ---- AVX2 and AVX-512 agree bit for bit ------------------------------------

template <typename T>
T random_entry(std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  if constexpr (std::is_same_v<T, double>) {
    return u(rng);
  } else {
    const double re = u(rng);
    return T(re, u(rng));
  }
}

// Runs every entry of the AVX2 and the AVX-512 table on the same inputs:
// full vectors, both tail kinds (AVX2's element-wise std::fma, AVX-512's
// masked lanes and complex half-width cascade) and the nrhs = 1 routes.
// Every lane executes the same fused operations, so each output buffer,
// padding included, must match byte for byte.
template <typename T>
void expect_vector_tables_agree() {
  const auto& k2 = kernels::panel_kernels<T>(SimdLevel::kAvx2);
  const auto& k5 = kernels::panel_kernels<T>(SimdLevel::kAvx512);
  std::mt19937 rng(2024);
  auto random_vec = [&](Index len) {
    std::vector<T> v(static_cast<size_t>(len));
    for (T& e : v) e = random_entry<T>(rng);
    return v;
  };
  // Runs op(K, out) at both levels on copies of `init`.
  auto agree = [&](const std::vector<T>& init, const auto& op) {
    std::vector<T> x2 = init, x5 = init;
    op(k2, x2.data());
    op(k5, x5.data());
    return std::memcmp(x2.data(), x5.data(), init.size() * sizeof(T)) == 0;
  };
  using K = kernels::PanelKernels<T>;

  for (Index m = 1; m <= 37; ++m)
    for (Index q = 1; q <= 9; ++q)
      for (const Index k : {1, 3, 5}) {
        const Index lda = m + 1, ldb = q + 2, ldc = m + 3;
        const std::vector<T> a = random_vec(lda * k), b = random_vec(ldb * k);
        ASSERT_TRUE(agree(random_vec(ldc * q), [&](const K& kt, T* c) {
          kt.gemm_nt_acc(m, q, k, a.data(), lda, b.data(), ldb, c, ldc);
        })) << "gemm_nt_acc m=" << m << " q=" << q << " k=" << k;
      }

  for (Index n = 1; n <= 40; ++n) {
    const T alpha = random_entry<T>(rng);
    const std::vector<T> x = random_vec(n);
    ASSERT_TRUE(agree(random_vec(n), [&](const K& kt, T* y) {
      kt.axpy(n, alpha, x.data(), y);
    })) << "axpy n=" << n;
    ASSERT_TRUE(agree(random_vec(n), [&](const K& kt, T* y) {
      kt.scale(n, alpha, y);
    })) << "scale n=" << n;
    const Index w = 3, lds = n + 1, ldd = n + 2;
    const std::vector<T> src = random_vec(lds * w), d = random_vec(w);
    ASSERT_TRUE(agree(random_vec(ldd * w), [&](const K& kt, T* dst) {
      kt.scale_cols(n, w, src.data(), lds, d.data(), dst, ldd);
    })) << "scale_cols q=" << n;
  }

  for (Index w = 1; w <= 13; ++w)
    for (const Index nrhs : {1, 2, 3, 5, 8, 11, 16, 19}) {
      std::vector<T> d = random_vec(w);
      for (T& e : d) e += T(2.0);  // pivots away from zero
      ASSERT_TRUE(agree(random_vec(w * nrhs), [&](const K& kt, T* x) {
        kt.diag_solve(w, nrhs, d.data(), x);
      })) << "diag_solve n=" << w << " nrhs=" << nrhs;
      for (Index r = 0; r <= 21; ++r) {
        const Index ld = w + r + 1;
        const std::vector<T> panel = random_vec(ld * w);
        // Gapped ascending target rows below the w top rows.
        std::vector<Index> rows(static_cast<size_t>(r));
        for (Index i = 0; i < r; ++i) rows[static_cast<size_t>(i)] = w + 1 + 2 * i;
        const std::vector<T> x = random_vec((w + 2 * r + 2) * nrhs);
        ASSERT_TRUE(agree(x, [&](const K& kt, T* xs) {
          kt.below_forward(r, w, nrhs, panel.data() + w, ld, rows.data(), xs, xs);
        })) << "below_forward r=" << r << " w=" << w << " nrhs=" << nrhs;
        ASSERT_TRUE(agree(x, [&](const K& kt, T* xs) {
          kt.below_backward(r, w, nrhs, panel.data() + w, ld, rows.data(), xs, xs);
        })) << "below_backward r=" << r << " w=" << w << " nrhs=" << nrhs;
        if (r > 0) continue;
        ASSERT_TRUE(agree(x, [&](const K& kt, T* xs) {
          kt.trsm_forward(w, panel.data(), ld, nrhs, xs);
        })) << "trsm_forward w=" << w << " nrhs=" << nrhs;
        ASSERT_TRUE(agree(x, [&](const K& kt, T* xs) {
          kt.trsm_backward(w, panel.data(), ld, nrhs, xs);
        })) << "trsm_backward w=" << w << " nrhs=" << nrhs;
      }
    }
}

TEST(SimdDispatch, VectorTablesAgreeBitForBit) {
  if (detect_simd_level() < SimdLevel::kAvx512)
    GTEST_SKIP() << "host lacks AVX-512";
  expect_vector_tables_agree<double>();
  expect_vector_tables_agree<Complex>();

  // A complex factor G + jωC of a power-grid pencil, through the AC path's
  // supernodal LDLᵀ and its 1-, 3- and 16-column solves.
  const MnaSystem sys =
      build_mna(make_power_grid({.ports = 16, .rows = 40, .cols = 40}).netlist,
                MnaForm::kRC);
  const Complex s(0.0, 2.0 * M_PI * 1e9);
  const Index n = sys.size();
  TripletBuilder<Complex> t(n, n);
  auto add = [&](const SMat& m, Complex scale) {
    for (Index j = 0; j < n; ++j)
      for (Index k = m.colptr()[static_cast<size_t>(j)];
           k < m.colptr()[static_cast<size_t>(j) + 1]; ++k)
        t.add(m.rowind()[static_cast<size_t>(k)], j,
              scale * m.values()[static_cast<size_t>(k)]);
  };
  add(sys.G, Complex(1.0));
  add(sys.C, s);
  const CSMat a = t.compress();
  const CLDLT ref(a, Ordering::kNestedDissection, 0.0,
                  supernodal_at(SimdLevel::kScalar));
  const CLDLT f2(a, Ordering::kNestedDissection, 0.0,
                 supernodal_at(SimdLevel::kAvx2));
  const CLDLT f5(a, Ordering::kNestedDissection, 0.0,
                 supernodal_at(SimdLevel::kAvx512));
  ASSERT_EQ(f2.simd_level(), SimdLevel::kAvx2);
  ASSERT_EQ(f5.simd_level(), SimdLevel::kAvx512);
  ASSERT_EQ(f2.d().size(), f5.d().size());
  EXPECT_EQ(std::memcmp(f2.d().data(), f5.d().data(),
                        f2.d().size() * sizeof(Complex)),
            0)
      << "D";
  double dmax = 0.0;
  for (const Complex& v : ref.d()) dmax = std::max(dmax, std::abs(v));
  for (size_t i = 0; i < ref.d().size(); ++i)
    ASSERT_LE(std::abs(f5.d()[i] - ref.d()[i]), 1e-12 * dmax) << "d[" << i << "]";
  for (const Index p : {1, 3, 16}) {
    CMat b(n, p);
    for (Index j = 0; j < p; ++j)
      for (Index i = 0; i < n; ++i)
        b(i, j) = Complex(std::sin(0.3 * static_cast<double>(i + j)),
                          std::cos(0.7 * static_cast<double>(i) + 0.1));
    const CMat x_ref = ref.solve(b), x2 = f2.solve(b), x5 = f5.solve(b);
    EXPECT_EQ(std::memcmp(x2.data(), x5.data(),
                          static_cast<size_t>(n * p) * sizeof(Complex)),
              0)
        << "X with p = " << p;
    double xmax = 0.0;
    for (Index j = 0; j < p; ++j)
      for (Index i = 0; i < n; ++i) xmax = std::max(xmax, std::abs(x_ref(i, j)));
    for (Index j = 0; j < p; ++j)
      for (Index i = 0; i < n; ++i)
        ASSERT_LE(std::abs(x5(i, j) - x_ref(i, j)), 1e-12 * xmax)
            << "X(" << i << "," << j << ") with p = " << p;
  }
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

}  // namespace
}  // namespace sympvl
