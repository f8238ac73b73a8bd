// Supernodal kernel layer: supernode detection edge cases, the factor
// against a dense unpivoted LDLᵀ reference (L, D, inertia and every solve
// to rounding; single/multi-RHS solves bit-identical per column), the
// analysis' memory layout, and the serial numeric factor's trace.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>

#include "circuit/mna.hpp"
#include "linalg/factorized_pencil.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {
namespace {

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

// ---- the dense reference ----------------------------------------------------

template <typename T>
T scalar(double re, double im) {
  if constexpr (std::is_same_v<T, Complex>)
    return Complex(re, im);
  else
    return re;
}

// Test-local dense unpivoted LDLᵀ of the permuted matrix P·A·Pᵀ, with P
// the factor's own permutation, and its solves. Complex symmetric: no
// conjugation anywhere.
template <typename T>
struct DenseLdlt {
  std::vector<Index> perm;  // new -> old
  Matrix<T> l;              // unit lower triangle
  std::vector<T> d;

  DenseLdlt(const SparseMatrix<T>& a, const std::vector<Index>& p)
      : perm(p), l(a.rows(), a.rows()), d(static_cast<size_t>(a.rows())) {
    const Index n = a.rows();
    std::vector<Index> inv(static_cast<size_t>(n));
    for (Index i = 0; i < n; ++i) inv[static_cast<size_t>(perm[static_cast<size_t>(i)])] = i;
    Matrix<T> m(n, n);
    for (Index j = 0; j < n; ++j)
      for (Index q = a.colptr()[static_cast<size_t>(j)];
           q < a.colptr()[static_cast<size_t>(j) + 1]; ++q)
        m(inv[static_cast<size_t>(a.rowind()[static_cast<size_t>(q)])],
          inv[static_cast<size_t>(j)]) = a.values()[static_cast<size_t>(q)];
    for (Index j = 0; j < n; ++j) {
      T dj = m(j, j);
      for (Index k = 0; k < j; ++k) dj -= l(j, k) * l(j, k) * d[static_cast<size_t>(k)];
      d[static_cast<size_t>(j)] = dj;
      l(j, j) = T(1);
      for (Index i = j + 1; i < n; ++i) {
        T v = m(i, j);
        for (Index k = 0; k < j; ++k) v -= l(i, k) * l(j, k) * d[static_cast<size_t>(k)];
        l(i, j) = v / dj;
      }
    }
  }

  Index size() const { return l.rows(); }
  std::vector<T> gather(const std::vector<T>& b) const {
    std::vector<T> x(b.size());
    for (size_t i = 0; i < b.size(); ++i) x[i] = b[static_cast<size_t>(perm[i])];
    return x;
  }
  std::vector<T> scatter(const std::vector<T>& x) const {
    std::vector<T> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) out[static_cast<size_t>(perm[i])] = x[i];
    return out;
  }
  void forward(std::vector<T>& x) const {
    for (Index i = 0; i < size(); ++i)
      for (Index k = 0; k < i; ++k) x[static_cast<size_t>(i)] -= l(i, k) * x[static_cast<size_t>(k)];
  }
  void backward(std::vector<T>& x) const {
    for (Index i = size() - 1; i >= 0; --i)
      for (Index k = i + 1; k < size(); ++k)
        x[static_cast<size_t>(i)] -= l(k, i) * x[static_cast<size_t>(k)];
  }
  void scale(std::vector<T>& x, bool sqrt_abs) const {
    for (size_t i = 0; i < x.size(); ++i)
      x[i] /= sqrt_abs ? T(std::sqrt(std::abs(d[i]))) : d[i];
  }
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x = gather(b);
    forward(x);
    scale(x, false);
    backward(x);
    return scatter(x);
  }
  std::vector<T> solve_m(const std::vector<T>& b) const {
    std::vector<T> x = gather(b);
    forward(x);
    scale(x, true);
    return x;
  }
  std::vector<T> solve_mt(const std::vector<T>& b) const {
    std::vector<T> x = b;
    scale(x, true);
    backward(x);
    return scatter(x);
  }
};

template <typename T>
Matrix<T> test_rhs(Index n, Index p) {
  Matrix<T> b(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      b(i, j) = scalar<T>(std::sin(0.7 * static_cast<double>(i) + static_cast<double>(j)),
                          0.25 - 0.01 * static_cast<double>(j));
  return b;
}

template <typename T>
void expect_near_vec(const std::vector<T>& got, const std::vector<T>& want,
                     double rel, const char* what) {
  double vmax = 0.0;
  for (const T& v : want) vmax = std::max(vmax, std::abs(v));
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, rel * vmax) << what << "[" << i << "]";
}

// Every output of the factor of `a` against the dense reference at the
// 1e-12 bounds: L entry by entry (gathered from the panels), D, the
// inertia (real only), solve, solve(Mat) over p columns, solve_m and
// solve_mt.
template <typename T>
void expect_matches_dense(const SparseLDLT<T>& f, const SparseMatrix<T>& a,
                          Index p = 3) {
  const Index n = a.rows();
  const DenseLdlt<T> ref(a, f.permutation());

  const SparseMatrix<T> lf = f.l_matrix();
  EXPECT_EQ(lf.nnz(), f.l_nnz()) << "gathered L drops only stored zeros";
  const Matrix<T> ld = lf.to_dense();
  double lmax = 0.0;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < i; ++j) lmax = std::max(lmax, std::abs(ref.l(i, j)));
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      if (j >= i) {
        EXPECT_EQ(ld(i, j), T(0)) << "L(" << i << "," << j << ") above the diagonal";
        continue;
      }
      EXPECT_NEAR(std::abs(ld(i, j) - ref.l(i, j)), 0.0, 1e-12 * lmax)
          << "L(" << i << "," << j << ")";
    }
  for (Index i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(f.d()[static_cast<size_t>(i)] - ref.d[static_cast<size_t>(i)]),
                0.0, 1e-12 * std::abs(ref.d[static_cast<size_t>(i)]) + 1e-300)
        << "d[" << i << "]";
  if constexpr (std::is_same_v<T, double>) {
    Index negative = 0;
    for (const double v : ref.d) negative += v < 0.0 ? 1 : 0;
    EXPECT_EQ(f.negative_pivots(), negative);
  }

  const Matrix<T> b = test_rhs<T>(n, p);
  const std::vector<T> b0 = b.col(0);
  expect_near_vec(f.solve(b0), ref.solve(b0), 1e-12, "solve");
  const Matrix<T> x = f.solve(b);
  for (Index j = 0; j < p; ++j)
    expect_near_vec(x.col(j), ref.solve(b.col(j)), 1e-12, "solve(Mat)");
  const std::vector<T> m = f.solve_m(b0), mref = ref.solve_m(b0);
  const std::vector<T> t = f.solve_mt(b0), tref = ref.solve_mt(b0);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(m[static_cast<size_t>(i)] - mref[static_cast<size_t>(i)]), 0.0,
                1e-12 * (1.0 + std::abs(mref[static_cast<size_t>(i)])))
        << "solve_m[" << i << "]";
    EXPECT_NEAR(std::abs(t[static_cast<size_t>(i)] - tref[static_cast<size_t>(i)]), 0.0,
                1e-12 * (1.0 + std::abs(tref[static_cast<size_t>(i)])))
        << "solve_mt[" << i << "]";
  }
}

// A real SPD matrix as a complex-symmetric pencil G + i·w·I.
CSMat complex_pencil(const SMat& g, double w) {
  const Index n = g.rows();
  TripletBuilder<Complex> t(n, n);
  for (Index j = 0; j < n; ++j)
    for (Index k = g.colptr()[static_cast<size_t>(j)];
         k < g.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(g.rowind()[static_cast<size_t>(k)], j,
            Complex(g.values()[static_cast<size_t>(k)], 0.0));
  for (Index i = 0; i < n; ++i) t.add(i, i, Complex(0.0, w));
  return t.compress();
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
  const LDLT f(a, Ordering::kNatural);
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
  const LDLT f(a, Ordering::kNatural);
  EXPECT_GT(f.panel_zeros(), 0);
  EXPECT_EQ(f.l_nnz(), n - 1);  // symbolic count, not panel entries
  EXPECT_EQ(f.l_matrix().nnz(), n - 1);
}

// Independent structural analysis of a permuted pattern: the L pattern by
// dense boolean elimination, its etree, and from them the supernode
// layout LdltSymbolic must store.
struct ReferenceLayout {
  Index supernodes = 0, row_entries = 0, panel_entries = 0, segments = 0,
        levels = 0, l_nnz = 0;
};

ReferenceLayout reference_layout(const SMat& a, const std::vector<Index>& perm) {
  const Index n = a.rows();
  std::vector<Index> inv(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) inv[static_cast<size_t>(perm[static_cast<size_t>(i)])] = i;
  std::vector<std::vector<char>> nz(static_cast<size_t>(n),
                                    std::vector<char>(static_cast<size_t>(n), 0));
  for (Index j = 0; j < n; ++j)
    for (Index q = a.colptr()[static_cast<size_t>(j)];
         q < a.colptr()[static_cast<size_t>(j) + 1]; ++q)
      nz[static_cast<size_t>(inv[static_cast<size_t>(a.rowind()[static_cast<size_t>(q)])])]
        [static_cast<size_t>(inv[static_cast<size_t>(j)])] = 1;
  // nz[i][j], i > j: L(i, j) structurally nonzero after elimination.
  for (Index j = 0; j < n; ++j)
    for (Index i = j + 1; i < n; ++i) {
      if (!nz[static_cast<size_t>(i)][static_cast<size_t>(j)]) continue;
      for (Index k = i + 1; k < n; ++k)
        if (nz[static_cast<size_t>(k)][static_cast<size_t>(j)])
          nz[static_cast<size_t>(k)][static_cast<size_t>(i)] = 1;
    }
  std::vector<Index> parent(static_cast<size_t>(n), -1), lnz(static_cast<size_t>(n), 0);
  std::vector<std::vector<Index>> rows(static_cast<size_t>(n));
  ReferenceLayout out;
  for (Index j = 0; j < n; ++j)
    for (Index i = j + 1; i < n; ++i)
      if (nz[static_cast<size_t>(i)][static_cast<size_t>(j)]) {
        if (parent[static_cast<size_t>(j)] < 0) parent[static_cast<size_t>(j)] = i;
        ++lnz[static_cast<size_t>(j)];
        rows[static_cast<size_t>(j)].push_back(i);
        ++out.l_nnz;
      }
  const SupernodePartition part = detect_supernodes(parent, lnz);
  out.supernodes = part.count();
  std::vector<Index> owner(static_cast<size_t>(n));
  for (Index s = 0; s < part.count(); ++s)
    for (Index j = part.start[static_cast<size_t>(s)];
         j < part.start[static_cast<size_t>(s) + 1]; ++j)
      owner[static_cast<size_t>(j)] = s;
  std::vector<Index> level(static_cast<size_t>(part.count()), 0);
  for (Index s = 0; s < part.count(); ++s) {
    const Index w = part.start[static_cast<size_t>(s) + 1] - part.start[static_cast<size_t>(s)];
    const std::vector<Index>& below =
        rows[static_cast<size_t>(part.start[static_cast<size_t>(s) + 1] - 1)];
    const Index r = static_cast<Index>(below.size());
    out.row_entries += r;
    out.panel_entries += (w + r) * w;
    Index last_target = -1;
    for (const Index row : below)
      if (owner[static_cast<size_t>(row)] != last_target) {
        last_target = owner[static_cast<size_t>(row)];
        ++out.segments;
      }
    if (r > 0) {
      Index& up = level[static_cast<size_t>(owner[static_cast<size_t>(below[0])])];
      up = std::max(up, level[static_cast<size_t>(s)] + 1);
    }
  }
  for (const Index l : level) out.levels = std::max(out.levels, l + 1);
  return out;
}

TEST(Kernels, AnalysisStoresRowListsAndFactorStoresValuesOnly) {
  // A small nested-dissection grid: the analysis keeps one below-row list
  // per supernode (Σ rₛ entries, far fewer than nnz(L)) and one subtree
  // work estimate per supernode, and a numeric factor holds only its
  // panel entries, D and √|D|.
  const SMat a = grid_laplacian(12);
  const Index n = a.rows();
  const auto sym = std::make_shared<const LdltSymbolic>(a, Ordering::kNestedDissection);
  const LDLT f(a, sym);
  const ReferenceLayout ref = reference_layout(a, sym->permutation());

  EXPECT_EQ(sym->l_nnz(), ref.l_nnz);
  EXPECT_EQ(sym->supernode_count(), ref.supernodes);
  EXPECT_EQ(sym->panel_entries(), ref.panel_entries);
  EXPECT_LT(ref.row_entries, ref.l_nnz);
  const Index s = ref.supernodes;
  const Index index_entries =
      2 * n                     // perm, perm_inv
      + (n + 1) + 2 * a.nnz()   // permuted pattern and its source map
      + 3 * (s + 1)             // super_start, panel_offset, row_ptr
      + ref.row_entries         // the row lists: Σ rₛ
      + (s + 1) + 3 * ref.segments  // update segments
      + s                       // supernode parents
      + (ref.levels + 1) + s;   // level schedule
  EXPECT_EQ(sym->bytes(),
            static_cast<std::int64_t>(index_entries * sizeof(Index) +
                                      (ref.levels + s) * sizeof(double)));
  EXPECT_EQ(f.factor_bytes(),
            static_cast<std::int64_t>((ref.panel_entries + 2 * n) * sizeof(double)));
}

// ---- the factor against the dense reference --------------------------------
// (The names predate the dense reference: these tests used to compare the
// supernodal factor with the deleted simplicial one.)

TEST(Kernels, LMatchesSimplicialOnRcm) {
  const SMat a = random_spd_sparse(150, 11);
  expect_matches_dense(LDLT(a, Ordering::kRCM), a);
}

TEST(Kernels, LMatchesSimplicialOnMinDegree) {
  const SMat a = random_spd_sparse(150, 12);
  expect_matches_dense(LDLT(a, Ordering::kMinDegree), a);
}

TEST(Kernels, SolvesMatchSimplicial) {
  const SMat a = random_spd_sparse(130, 21);
  expect_matches_dense(LDLT(a, Ordering::kRCM), a, 5);
}

TEST(Kernels, SupernodalMultiRhsBitIdenticalToSingle) {
  const Index n = 120, p = 5;
  const SMat a = random_spd_sparse(n, 31);
  const LDLT f(a, Ordering::kRCM);
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
  const CSMat a = complex_pencil(random_spd_sparse(90, 41), 0.35);
  expect_matches_dense(CLDLT(a, Ordering::kRCM), a);
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
  const LDLT f(a, Ordering::kRCM);
  expect_matches_dense(f, a);
  // Starting block: solve against both (identical) port columns at once.
  const Mat x = f.solve(sys.B);
  const DenseLdlt<double> ref(a, f.permutation());
  for (Index j = 0; j < 2; ++j)
    expect_near_vec(x.col(j), ref.solve(sys.B.col(j)), 1e-12, "port column");
  // Duplicated columns stay exactly duplicated through the blocked path.
  for (Index i = 0; i < sys.size(); ++i) ASSERT_EQ(x(i, 0), x(i, 1));
}

TEST(Kernels, MOperatorMatchesSimplicial) {
  const SMat a = random_spd_sparse(110, 51);
  expect_matches_dense(LDLT(a, Ordering::kRCM), a);
}

// The shapes the removed kernel-path heuristic sent down a separate
// column-at-a-time path — tiny systems (n < 48) and blocks wider than
// n/4 — factor supernodally like everything else: each matches the dense
// reference, and each column of a block solve carries the bits of its
// single-vector solve.
template <typename T>
void expect_small_or_wide_shape(const SparseMatrix<T>& a, Index p) {
  const SparseLDLT<T> f(a);
  EXPECT_GE(f.supernode_count(), 1);
  expect_matches_dense(f, a, p);
  const Matrix<T> b = test_rhs<T>(a.rows(), p);
  const Matrix<T> x = f.solve(b);
  for (Index j = 0; j < p; ++j) {
    const std::vector<T> xj = f.solve(b.col(j));
    for (Index i = 0; i < a.rows(); ++i)
      ASSERT_TRUE(x(i, j) == xj[static_cast<size_t>(i)]) << i << "," << j;
  }
}

TEST(Kernels, TinyAndWideBlockShapesFactorSupernodally) {
  for (const auto& [n, p] : {std::pair<Index, Index>{8, 2}, {40, 4}, {100, 26}}) {
    SCOPED_TRACE("n = " + std::to_string(n) + ", p = " + std::to_string(p));
    const SMat a = random_spd_sparse(n, static_cast<unsigned>(70 + n));
    expect_small_or_wide_shape(a, p);
    expect_small_or_wide_shape(complex_pencil(a, 0.6), p);
  }
}

// ---- the pooled numeric factor ---------------------------------------------

TEST(Kernels, PooledFactorTracesOnePanelSpanOnCallerLane) {
  // Min-degree on a 110×110 grid gives a bushy elimination tree, and its
  // work passes the factor's pool gate: with a 4-thread pool the numeric
  // factor runs whole subtrees on the workers, then the top set on the
  // caller. It records one kernel.panel_update span on the calling thread
  // with threads = 4, the pool's parallel.chunk spans on worker lanes,
  // and the bits of a 1-thread factor.
  const SMat a = grid_laplacian(110);
  const Index previous = num_threads();
  set_num_threads(1);
  const LDLT serial(a, Ordering::kMinDegree);

  set_num_threads(4);
  obs::enable(true);
  obs::reset();
  { obs::ScopedTimer marker("test.caller_lane"); }
  const LDLT pooled(a, Ordering::kMinDegree);
  const std::vector<obs::Event> events = obs::snapshot_events();
  obs::enable(false);
  obs::reset();
  set_num_threads(previous);

  int caller_tid = -1;
  std::vector<const obs::Event*> panel_spans, chunk_spans;
  for (const obs::Event& e : events) {
    if (std::strcmp(e.name, "test.caller_lane") == 0) caller_tid = e.tid;
    if (e.phase != 'X') continue;
    if (std::strcmp(e.name, "kernel.panel_update") == 0) panel_spans.push_back(&e);
    if (std::strcmp(e.name, "parallel.chunk") == 0) chunk_spans.push_back(&e);
  }
  ASSERT_GE(caller_tid, 0);
  ASSERT_EQ(panel_spans.size(), 1u);
  EXPECT_EQ(panel_spans[0]->tid, caller_tid);
  double threads = 0.0;
  for (int k = 0; k < panel_spans[0]->nargs; ++k)
    if (std::strcmp(panel_spans[0]->args[k].key, "threads") == 0)
      threads = panel_spans[0]->args[k].num;
  EXPECT_EQ(threads, 4.0);
  const auto on_worker = [&](const obs::Event* e) { return e->tid != caller_tid; };
  EXPECT_TRUE(std::any_of(chunk_spans.begin(), chunk_spans.end(), on_worker))
      << "no parallel.chunk span on a worker lane";

  ASSERT_EQ(serial.d().size(), pooled.d().size());
  for (size_t i = 0; i < serial.d().size(); ++i)
    ASSERT_EQ(serial.d()[i], pooled.d()[i]) << "d[" << i << "]";
  const SMat l1 = serial.l_matrix();
  const SMat l4 = pooled.l_matrix();
  ASSERT_EQ(l1.rowind(), l4.rowind());
  EXPECT_EQ(std::memcmp(l1.values().data(), l4.values().data(),
                        l1.values().size() * sizeof(double)),
            0);
}

TEST(Kernels, SerialSolveSpansCarrySimdThreadsFlops) {
  // A 1-thread solve never fans out: each sweep is one kernel.trsm span on
  // the caller, and it carries the same kernel args as a fanned-out chunk,
  // with flops = 2 × panel entries × nrhs.
  const SMat a = grid_laplacian(40);
  const Index previous = num_threads();
  set_num_threads(1);
  const LDLT f(a, Ordering::kMinDegree);
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

// ---- zero pivots ------------------------------------------------------------

TEST(Kernels, ZeroPivotErrorIdenticalAcrossPaths) {
  // Structurally singular: a 60-node resistor chain with no ground path
  // has a singular G; the factor throws the structured zero-pivot error
  // at the last column.
  const Index n = 60;
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(i, i, 1.0);
    t.add(i + 1, i + 1, 1.0);
    t.add_symmetric(i, i + 1, -1.0);
  }
  const SMat a = t.compress();
  try {
    const LDLT f(a, Ordering::kNatural, 1e-12);
    FAIL() << "expected kZeroPivot";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kZeroPivot);
    EXPECT_EQ(e.context().stage, "ldlt.factor");
    EXPECT_EQ(e.context().index, n - 1);
  }
}

TEST(Kernels, ZeroPivotsInTwoSubtreesRaiseTheLowerColumnAtAnyWidth) {
  // A grounded 100×100 grid beside two ungrounded 20×20 grids: each small
  // Laplacian is singular, so each has a zero pivot at its last column,
  // and at 4 threads the two small components factor as separate worker
  // subtrees. The error is the 1-thread factor's, code, message and
  // context: the lower of the two failing columns.
  const Index big = 100 * 100, small = 20 * 20;
  const Index n = big + 2 * small;
  TripletBuilder<double> t(n, n);
  const auto add_mesh = [&](Index g, Index offset, double ground) {
    for (Index r = 0; r < g; ++r)
      for (Index c = 0; c < g; ++c) {
        const Index i = offset + r * g + c;
        t.add(i, i, ground);
        if (c + 1 < g) {
          t.add_symmetric(i, i + 1, -1.0);
          t.add(i, i, 1.0);
          t.add(i + 1, i + 1, 1.0);
        }
        if (r + 1 < g) {
          t.add_symmetric(i, i + g, -1.0);
          t.add(i, i, 1.0);
          t.add(i + g, i + g, 1.0);
        }
      }
  };
  add_mesh(100, 0, 0.5);
  add_mesh(20, big, 0.0);
  add_mesh(20, big + small, 0.0);
  const SMat a = t.compress();

  // The permuted column of each small component's last elimination.
  const LdltSymbolic sym(a, Ordering::kNestedDissection);
  Index last[2] = {-1, -1};
  for (Index k = 0; k < n; ++k) {
    const Index old = sym.permutation()[static_cast<size_t>(k)];
    if (old >= big) last[(old - big) / small] = k;
  }

  const Index previous = num_threads();
  const auto factor_error = [&](Index threads) {
    set_num_threads(threads);
    try {
      const LDLT f(a, Ordering::kNestedDissection, 1e-8);
    } catch (const Error& e) {
      return e;
    }
    return Error(ErrorCode::kUnknown, "no error");
  };
  const Error serial = factor_error(1);
  const Error pooled = factor_error(4);
  set_num_threads(previous);

  EXPECT_EQ(serial.code(), ErrorCode::kZeroPivot);
  EXPECT_EQ(serial.context().index, std::min(last[0], last[1]));
  EXPECT_EQ(pooled.code(), serial.code());
  EXPECT_STREQ(pooled.what(), serial.what());
  EXPECT_EQ(pooled.context().stage, serial.context().stage);
  EXPECT_EQ(pooled.context().index, serial.context().index);
  EXPECT_EQ(pooled.context().value, serial.context().value);
}

// ---- the pencil's blocked operator ------------------------------------------

// A g×g RC mesh: resistors and coupling capacitors between neighbours, a
// capacitor from every node to ground.
MnaSystem rc_mesh_system(Index g) {
  Netlist nl;
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index node = 1 + r * g + c;
      if (c + 1 < g) {
        nl.add_resistor(node, node + 1, 1.0 + 0.01 * static_cast<double>(node));
        nl.add_capacitor(node, node + 1, 0.2e-12);
      }
      if (r + 1 < g) nl.add_resistor(node, node + g, 1.5);
      nl.add_capacitor(node, 0, 1e-12 * (1.0 + 0.1 * static_cast<double>(c)));
    }
  nl.add_port(1, 0);
  nl.add_port(g * g, 0);
  return build_mna(nl);
}

// Columns that reach C·X's zero skip: a zero column and a unit vector
// beside two dense ones.
Mat operand_block(Index n) {
  Mat v(n, 4);
  for (Index i = 0; i < n; ++i) {
    v(i, 0) = std::cos(0.37 * static_cast<double>(i));
    v(i, 2) = i == n / 2 ? 1.0 : 0.0;
    v(i, 3) = -std::sin(0.11 * static_cast<double>(i));
  }
  return v;
}

void expect_column_bits(const Mat& block, Index col, const Vec& single,
                        const char* what) {
  ASSERT_EQ(block.rows(), static_cast<Index>(single.size())) << what;
  for (Index i = 0; i < block.rows(); ++i)
    ASSERT_EQ(block(i, col), single[static_cast<size_t>(i)])
        << what << " column " << col << " row " << i;
}

// apply_block, solve_m(Mat) and solve_mt(Mat) of the pencil G + shift·C,
// each column against its single-vector call, bit for bit.
void expect_blocked_operator_bits(const MnaSystem& sys, double shift, bool dense,
                                  SimdLevel simd) {
  PencilFactorOptions opt;
  opt.shift = shift;
  opt.dense = dense;
  opt.kernels.simd = simd;
  const FactorizedPencil pencil(sys.G, sys.C, opt);
  const Mat v = operand_block(pencil.size());
  const Mat op = pencil.apply_block(v);
  const Mat m = pencil.solve_m(v);
  const Mat mt = pencil.solve_mt(v);
  for (Index c = 0; c < v.cols(); ++c) {
    const Vec vc = v.col(c);
    expect_column_bits(op, c, pencil.apply(vc), "apply_block");
    expect_column_bits(m, c, pencil.solve_m(vc), "solve_m");
    expect_column_bits(mt, c, pencil.solve_mt(vc), "solve_mt");
  }
}

TEST(Kernels, PencilBlockedOperatorBitIdenticalOnRcMesh) {
  const MnaSystem sys = rc_mesh_system(12);
  for (SimdLevel simd : {SimdLevel::kScalar, SimdLevel::kAuto}) {
    SCOPED_TRACE(simd_level_name(resolve_simd_level(simd)));
    expect_blocked_operator_bits(sys, 1e9, false, simd);
  }
  expect_blocked_operator_bits(sys, 1e9, true, SimdLevel::kAuto);
}

TEST(Kernels, PencilBlockedOperatorBitIdenticalWithNegativePivots) {
  // The RLC chain's shifted pencil has a negative inductor-current block:
  // J is indefinite and the J scaling flips signs.
  const MnaSystem sys = duplicated_port_system();
  PencilFactorOptions opt;
  opt.shift = 1e9;
  ASSERT_GT(FactorizedPencil(sys.G, sys.C, opt).negative_j(), 0);
  for (SimdLevel simd : {SimdLevel::kScalar, SimdLevel::kAuto}) {
    SCOPED_TRACE(simd_level_name(resolve_simd_level(simd)));
    expect_blocked_operator_bits(sys, 1e9, false, simd);
  }
  expect_blocked_operator_bits(sys, 1e9, true, SimdLevel::kAuto);
}

}  // namespace
}  // namespace sympvl
