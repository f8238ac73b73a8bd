// Supernodal kernel layer: supernode detection edge cases, the
// simplicial-vs-supernodal equivalence contract (same L pattern, values
// to rounding, bit-identical single/multi-RHS solves within a path), and
// the serial numeric factor's trace.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "circuit/mna.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {
namespace {

KernelOptions simplicial_opt() {
  KernelOptions o;
  o.path = KernelPath::kSimplicial;
  return o;
}

KernelOptions supernodal_opt() {
  KernelOptions o;
  o.path = KernelPath::kSupernodal;
  return o;
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

SMat tridiagonal_spd(Index n) {
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 4.0);
  for (Index i = 0; i + 1 < n; ++i) t.add_symmetric(i, i + 1, -1.0);
  return t.compress();
}

// 5-point Laplacian of a g×g grid plus a diagonal shift (SPD).
SMat grid_laplacian(Index g) {
  const Index n = g * g;
  TripletBuilder<double> t(n, n);
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index i = r * g + c;
      t.add(i, i, 4.5);
      if (c + 1 < g) t.add_symmetric(i, i + 1, -1.0);
      if (r + 1 < g) t.add_symmetric(i, i + g, -1.0);
    }
  return t.compress();
}

// Diagonal leading block loosely coupled into a dense trailing block.
SMat arrow_with_dense_tail(Index n, Index tail) {
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 10.0 + static_cast<double>(i));
  const Index t0 = n - tail;
  for (Index i = t0; i < n; ++i)
    for (Index j = t0; j < i; ++j) t.add_symmetric(i, j, -0.5);
  for (Index i = 0; i < t0; ++i) t.add_symmetric(i, t0 + i % tail, -1.0);
  return t.compress();
}

// A circuit whose two ports share the same node: the starting block has
// duplicated columns, the deflation regression case for the reduction
// drivers. Here it exercises the factorization the drivers run on it.
MnaSystem duplicated_port_system() {
  Netlist nl;
  const Index chain = 40;
  for (Index i = 1; i <= chain; ++i) {
    nl.add_resistor(i, i + 1, 1.0 + 0.01 * static_cast<double>(i));
    nl.add_capacitor(i + 1, 0, 1e-12);
    nl.add_inductor(i, i % 7 == 0 ? 0 : i + 1, 1e-9);
  }
  nl.add_port(1, 0);
  nl.add_port(1, 0);  // duplicated port on the same node
  return build_mna(nl);
}

// ---- detect_supernodes on hand-built trees ---------------------------------

TEST(DetectSupernodes, FullyDenseMatrixIsOneSupernode) {
  // Dense lower structure: parent chain, lnz(j) = n-1-j — every merge is
  // fundamental even with relaxation off.
  const Index n = 12;
  std::vector<Index> parent(n), lnz(n);
  for (Index j = 0; j < n; ++j) {
    parent[static_cast<size_t>(j)] = j + 1 < n ? j + 1 : -1;
    lnz[static_cast<size_t>(j)] = n - 1 - j;
  }
  const auto part = detect_supernodes(parent, lnz, 0, 0.0);
  EXPECT_EQ(part.count(), 1);
  EXPECT_EQ(part.max_width(), n);
  EXPECT_EQ(part.zeros, 0);
  EXPECT_EQ(part.panel_entries, n * (n + 1) / 2);
}

TEST(DetectSupernodes, TridiagonalStrictGivesOneColumnSupernodes) {
  // Tridiagonal: lnz = 1,...,1,0. Only the final pair is fundamental;
  // with relaxation off everything else stays a 1-column supernode.
  const Index n = 10;
  std::vector<Index> parent(n), lnz(n, 1);
  for (Index j = 0; j < n; ++j)
    parent[static_cast<size_t>(j)] = j + 1 < n ? j + 1 : -1;
  lnz[static_cast<size_t>(n - 1)] = 0;
  const auto part = detect_supernodes(parent, lnz, 0, 0.0);
  EXPECT_EQ(part.count(), n - 1);
  EXPECT_EQ(part.max_width(), 2);
  EXPECT_EQ(part.zeros, 0);
}

TEST(DetectSupernodes, RelaxationMergesTridiagonalUpToSlack) {
  const Index n = 64;
  std::vector<Index> parent(n), lnz(n, 1);
  for (Index j = 0; j < n; ++j)
    parent[static_cast<size_t>(j)] = j + 1 < n ? j + 1 : -1;
  lnz[static_cast<size_t>(n - 1)] = 0;
  const Index relax_zeros = 6;
  // Ratio 1.0: only the absolute slack binds.
  const auto part = detect_supernodes(parent, lnz, relax_zeros, 1.0);
  EXPECT_LT(part.count(), n - 1);  // something merged...
  EXPECT_GT(part.count(), 1);      // ...but not everything
  EXPECT_GT(part.zeros, 0);
  for (size_t s = 0; s + 1 < part.start.size(); ++s) {
    const Index a = part.start[s], e = part.start[s + 1];
    const Index w = e - a;
    // Panel zeros = dense − actual must respect the absolute slack.
    const Index dense = w * (w + 1) / 2 + w * lnz[static_cast<size_t>(e - 1)];
    Index actual = 0;
    for (Index j = a; j < e; ++j) actual += 1 + lnz[static_cast<size_t>(j)];
    EXPECT_LE(dense - actual, relax_zeros);
  }
}

TEST(DetectSupernodes, BrokenChainNeverMerges) {
  // parent(j-1) != j (both columns hang off a later root): no merge even
  // though the lnz counts line up.
  std::vector<Index> parent = {2, 2, -1};
  std::vector<Index> lnz = {1, 1, 0};
  const auto part = detect_supernodes(parent, lnz);
  ASSERT_GE(part.count(), 2);
  EXPECT_EQ(part.start[0], 0);
  EXPECT_EQ(part.start[1], 1);
}

// ---- end-to-end structure on matrices --------------------------------------

TEST(Kernels, DenseTrailingBlockBecomesOnePanel) {
  const Index n = 60, tail = 12;
  const SMat a = arrow_with_dense_tail(n, tail);
  const LDLT f(a, Ordering::kNatural, 0.0, supernodal_opt());
  ASSERT_TRUE(f.supernodal());
  // The trailing dense block must have amalgamated into a single wide
  // panel (possibly wider, if relaxation merged leading columns into it).
  EXPECT_GE(f.max_panel_width(), tail);
  EXPECT_LT(f.supernode_count(), n);
}

TEST(Kernels, TridiagonalStrictSupernodalMatchesSymbolicNnz) {
  // The fixed amalgamation slack merges the tridiagonal's columns into
  // panels that store explicit zeros; nnz(L) still reports the symbolic
  // count, and the gathered L drops the stored zeros.
  const Index n = 100;
  const SMat a = tridiagonal_spd(n);
  const LDLT f(a, Ordering::kNatural, 0.0, supernodal_opt());
  ASSERT_TRUE(f.supernodal());
  EXPECT_GT(f.panel_zeros(), 0);
  EXPECT_EQ(f.l_nnz(), n - 1);  // symbolic count, not panel entries
  EXPECT_EQ(f.l_matrix().nnz(), n - 1);
}

// ---- simplicial vs supernodal equivalence ----------------------------------

void expect_same_factor(const SMat& a, Ordering ordering) {
  const LDLT fs(a, ordering, 0.0, simplicial_opt());
  const LDLT fn(a, ordering, 0.0, supernodal_opt());
  ASSERT_FALSE(fs.supernodal());
  ASSERT_TRUE(fn.supernodal());
  ASSERT_EQ(fs.l_nnz(), fn.l_nnz());

  const SMat ls = fs.l_matrix();
  const SMat ln = fn.l_matrix();
  ASSERT_EQ(ls.colptr(), ln.colptr());
  ASSERT_EQ(ls.rowind(), ln.rowind());
  double lmax = 0.0;
  for (const double v : ls.values()) lmax = std::max(lmax, std::abs(v));
  for (size_t k = 0; k < ls.values().size(); ++k)
    EXPECT_NEAR(ls.values()[k], ln.values()[k], 1e-12 * lmax) << "entry " << k;
  for (Index i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(fs.d()[static_cast<size_t>(i)], fn.d()[static_cast<size_t>(i)],
                1e-12 * std::abs(fs.d()[static_cast<size_t>(i)]) + 1e-300);
  EXPECT_EQ(fs.negative_pivots(), fn.negative_pivots());
}

TEST(Kernels, LMatchesSimplicialOnRcm) {
  expect_same_factor(random_spd_sparse(150, 11), Ordering::kRCM);
}

TEST(Kernels, LMatchesSimplicialOnMinDegree) {
  expect_same_factor(random_spd_sparse(150, 12), Ordering::kMinDegree);
}

TEST(Kernels, SolvesMatchSimplicial) {
  const Index n = 130;
  const SMat a = random_spd_sparse(n, 21);
  const LDLT fs(a, Ordering::kRCM, 0.0, simplicial_opt());
  const LDLT fn(a, Ordering::kRCM, 0.0, supernodal_opt());
  Vec b(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i)
    b[static_cast<size_t>(i)] = std::sin(static_cast<double>(i) * 0.7);
  const Vec xs = fs.solve(b);
  const Vec xn = fn.solve(b);
  double xmax = 0.0;
  for (const double v : xs) xmax = std::max(xmax, std::abs(v));
  for (Index i = 0; i < n; ++i)
    EXPECT_NEAR(xs[static_cast<size_t>(i)], xn[static_cast<size_t>(i)],
                1e-12 * xmax);
}

TEST(Kernels, SupernodalMultiRhsBitIdenticalToSingle) {
  const Index n = 120, p = 5;
  const SMat a = random_spd_sparse(n, 31);
  const LDLT f(a, Ordering::kRCM, 0.0, supernodal_opt());
  ASSERT_TRUE(f.supernodal());
  Mat b(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      b(i, j) = std::cos(static_cast<double>(i * p + j));
  const Mat x = f.solve(b);
  for (Index j = 0; j < p; ++j) {
    Vec col(static_cast<size_t>(n));
    for (Index i = 0; i < n; ++i) col[static_cast<size_t>(i)] = b(i, j);
    const Vec xj = f.solve(col);
    for (Index i = 0; i < n; ++i)
      ASSERT_EQ(x(i, j), xj[static_cast<size_t>(i)]) << i << "," << j;
  }
}

TEST(Kernels, ComplexPencilMatchesSimplicial) {
  const Index n = 90;
  const SMat g = random_spd_sparse(n, 41);
  // Complex symmetric pencil G + i·w·I.
  TripletBuilder<Complex> t(n, n);
  for (Index j = 0; j < n; ++j)
    for (Index k = g.colptr()[static_cast<size_t>(j)];
         k < g.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(g.rowind()[static_cast<size_t>(k)], j,
            Complex(g.values()[static_cast<size_t>(k)], 0.0));
  for (Index i = 0; i < n; ++i) t.add(i, i, Complex(0.0, 0.35));
  const CSMat a = t.compress();
  const CLDLT fs(a, Ordering::kRCM, 0.0, simplicial_opt());
  const CLDLT fn(a, Ordering::kRCM, 0.0, supernodal_opt());
  CVec b(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i)
    b[static_cast<size_t>(i)] =
        Complex(std::sin(static_cast<double>(i)), 0.25);
  const CVec xs = fs.solve(b);
  const CVec xn = fn.solve(b);
  double xmax = 0.0;
  for (const Complex& v : xs) xmax = std::max(xmax, std::abs(v));
  for (Index i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(xs[static_cast<size_t>(i)] - xn[static_cast<size_t>(i)]),
                0.0, 1e-12 * xmax);
}

TEST(Kernels, DuplicatedPortDeflationCircuitMatches) {
  const MnaSystem sys = duplicated_port_system();
  ASSERT_EQ(sys.port_count(), 2);
  // The quasi-definite shifted pencil the drivers factor (eq. 26 shape).
  TripletBuilder<double> t(sys.size(), sys.size());
  const double s0 = 1e9;
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
  const SMat a = t.compress();
  const LDLT fs(a, Ordering::kRCM, 0.0, simplicial_opt());
  const LDLT fn(a, Ordering::kRCM, 0.0, supernodal_opt());
  EXPECT_EQ(fs.negative_pivots(), fn.negative_pivots());
  // Starting block: solve against both (identical) port columns at once.
  Mat b(sys.size(), sys.port_count());
  for (Index i = 0; i < sys.size(); ++i)
    for (Index j = 0; j < sys.port_count(); ++j) b(i, j) = sys.B(i, j);
  const Mat xs = fs.solve(b);
  const Mat xn = fn.solve(b);
  double xmax = 0.0;
  for (Index i = 0; i < sys.size(); ++i)
    for (Index j = 0; j < 2; ++j) xmax = std::max(xmax, std::abs(xs(i, j)));
  for (Index i = 0; i < sys.size(); ++i) {
    for (Index j = 0; j < 2; ++j)
      EXPECT_NEAR(xs(i, j), xn(i, j), 1e-12 * xmax);
    // Duplicated columns stay exactly duplicated through the blocked path.
    ASSERT_EQ(xn(i, 0), xn(i, 1));
  }
}

TEST(Kernels, MOperatorMatchesSimplicial) {
  const Index n = 110;
  const SMat a = random_spd_sparse(n, 51);
  const LDLT fs(a, Ordering::kRCM, 0.0, simplicial_opt());
  const LDLT fn(a, Ordering::kRCM, 0.0, supernodal_opt());
  Vec b(static_cast<size_t>(n), 1.0);
  const Vec ms = fs.solve_m(b), mn = fn.solve_m(b);
  const Vec ts = fs.solve_mt(b), tn = fn.solve_mt(b);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(ms[static_cast<size_t>(i)], mn[static_cast<size_t>(i)],
                1e-12 * (1.0 + std::abs(ms[static_cast<size_t>(i)])));
    EXPECT_NEAR(ts[static_cast<size_t>(i)], tn[static_cast<size_t>(i)],
                1e-12 * (1.0 + std::abs(ts[static_cast<size_t>(i)])));
  }
}

// ---- the serial numeric factor ---------------------------------------------

TEST(Kernels, SerialFactorTracesOnePanelSpanOnCallerLane) {
  // Min-degree on a 110×110 grid gives a bushy elimination tree with wide
  // levels; with a 4-thread pool the numeric factor must still run as one
  // sweep on the calling thread, with the bits of a 1-thread factor.
  const SMat a = grid_laplacian(110);
  const Index previous = num_threads();
  set_num_threads(1);
  const LDLT serial(a, Ordering::kMinDegree, 0.0, supernodal_opt());

  set_num_threads(4);
  obs::enable(true);
  obs::reset();
  { obs::ScopedTimer marker("test.caller_lane"); }
  const LDLT pooled(a, Ordering::kMinDegree, 0.0, supernodal_opt());
  const std::vector<obs::Event> events = obs::snapshot_events();
  obs::enable(false);
  obs::reset();
  set_num_threads(previous);

  ASSERT_TRUE(pooled.supernodal());
  int caller_tid = -1;
  std::vector<const obs::Event*> panel_spans;
  for (const obs::Event& e : events) {
    if (std::strcmp(e.name, "test.caller_lane") == 0) caller_tid = e.tid;
    if (e.phase == 'X' && std::strcmp(e.name, "kernel.panel_update") == 0)
      panel_spans.push_back(&e);
  }
  ASSERT_GE(caller_tid, 0);
  ASSERT_EQ(panel_spans.size(), 1u);
  EXPECT_EQ(panel_spans[0]->tid, caller_tid);

  ASSERT_EQ(serial.d().size(), pooled.d().size());
  for (size_t i = 0; i < serial.d().size(); ++i)
    ASSERT_EQ(serial.d()[i], pooled.d()[i]) << "d[" << i << "]";
}

TEST(Kernels, SerialSolveSpansCarrySimdThreadsFlops) {
  // A 1-thread solve never fans out: each sweep is one kernel.trsm span on
  // the caller, and it carries the same kernel args as a fanned-out chunk,
  // with flops = 2 × panel entries × nrhs.
  const SMat a = grid_laplacian(40);
  const Index previous = num_threads();
  set_num_threads(1);
  const LDLT f(a, Ordering::kMinDegree, 0.0, supernodal_opt());
  Vec b(static_cast<size_t>(a.rows()), 1.0);
  Mat b4(a.rows(), 4);
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < 4; ++j) b4(i, j) = 1.0 + static_cast<double>(j);
  obs::enable(true);
  obs::reset();
  (void)f.solve(b);
  (void)f.solve(b4);
  const std::vector<obs::Event> events = obs::snapshot_events();
  obs::enable(false);
  obs::reset();
  set_num_threads(previous);

  auto find = [](const obs::Event& e, const char* key) -> const obs::Arg* {
    for (int k = 0; k < e.nargs; ++k)
      if (std::strcmp(e.args[k].key, key) == 0) return &e.args[k];
    return nullptr;
  };
  std::vector<double> flops_1, flops_4;
  for (const obs::Event& e : events) {
    if (e.phase != 'X' || std::strcmp(e.name, "kernel.trsm") != 0) continue;
    const obs::Arg* simd = find(e, "simd");
    const obs::Arg* threads = find(e, "threads");
    const obs::Arg* flops = find(e, "flops");
    const obs::Arg* nrhs = find(e, "nrhs");
    ASSERT_NE(simd, nullptr);
    ASSERT_NE(threads, nullptr);
    ASSERT_NE(flops, nullptr);
    ASSERT_NE(nrhs, nullptr);
    EXPECT_STREQ(simd->str, simd_level_name(f.simd_level()));
    EXPECT_EQ(threads->num, 1.0);
    EXPECT_GT(flops->num, 0.0);
    (nrhs->num == 1.0 ? flops_1 : flops_4).push_back(flops->num);
  }
  // Forward and backward per solve.
  ASSERT_EQ(flops_1.size(), 2u);
  ASSERT_EQ(flops_4.size(), 2u);
  for (size_t k = 0; k < 2; ++k) EXPECT_EQ(flops_4[k], 4.0 * flops_1[k]);
}

// ---- path resolution --------------------------------------------------------

TEST(Kernels, ResolveHonorsExplicitPathAndHeuristic) {
  KernelOptions o;
  EXPECT_EQ(resolve_kernel_path(simplicial_opt(), 5000),
            KernelPath::kSimplicial);
  EXPECT_EQ(resolve_kernel_path(supernodal_opt(), 4), KernelPath::kSupernodal);
  EXPECT_EQ(resolve_kernel_path(o, 8), KernelPath::kSimplicial);
  EXPECT_EQ(resolve_kernel_path(o, 4096), KernelPath::kSupernodal);
}

TEST(Kernels, ZeroPivotErrorIdenticalAcrossPaths) {
  // Structurally singular: a 60-node resistor chain with no ground path
  // has a singular G; both kernels must throw the same structured error.
  const Index n = 60;
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(i, i, 1.0);
    t.add(i + 1, i + 1, 1.0);
    t.add_symmetric(i, i + 1, -1.0);
  }
  const SMat a = t.compress();
  for (const auto& opt : {simplicial_opt(), supernodal_opt()}) {
    try {
      const LDLT f(a, Ordering::kNatural, 1e-12, opt);
      FAIL() << "expected kZeroPivot for " << kernel_path_name(opt.path);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kZeroPivot);
      EXPECT_EQ(e.context().stage, "ldlt.factor");
      EXPECT_EQ(e.context().index, n - 1);
    }
  }
}

}  // namespace
}  // namespace sympvl
