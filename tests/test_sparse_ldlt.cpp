#include "linalg/sparse_ldlt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <random>

#include "linalg/dense_factor.hpp"
#include "linalg/factorized_pencil.hpp"
#include "mor/pencil.hpp"

namespace sympvl {
namespace {

// Random sparse SPD matrix: weighted graph Laplacian + positive diagonal.
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

// Quasi-definite matrix [[A, Bᵀ], [B, -C]] with A, C SPD.
SMat random_quasi_definite(Index na, Index nb, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.2, 1.5);
  std::uniform_int_distribution<Index> picka(0, na - 1);
  const Index n = na + nb;
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < na; ++i) t.add(i, i, 2.0 + u(rng));
  for (Index i = 0; i < nb; ++i) t.add(na + i, na + i, -(1.0 + u(rng)));
  for (Index i = 0; i < nb; ++i) {
    // couple each "inductor row" to two node rows
    t.add_symmetric(picka(rng), na + i, 1.0);
    t.add_symmetric(picka(rng), na + i, -1.0);
  }
  return t.compress();
}

TEST(SparseLDLT, SolvesSpdSystem) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const SMat a = random_spd_sparse(40, seed);
    const LDLT f(a);
    Vec b(40);
    for (size_t i = 0; i < 40; ++i) b[i] = std::cos(static_cast<double>(i));
    const Vec x = f.solve(b);
    const Vec r = a.multiply(x);
    for (size_t i = 0; i < 40; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
  }
}

TEST(SparseLDLT, MatchesDenseSolve) {
  const SMat a = random_spd_sparse(25, 9);
  Vec b(25, 1.0);
  const Vec xs = LDLT(a).solve(b);
  const Vec xd = LU(a.to_dense()).solve(b);
  for (size_t i = 0; i < 25; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLDLT, NaturalOrderingAlsoWorks) {
  const SMat a = random_spd_sparse(30, 4);
  Vec b(30, 2.0);
  const Vec x1 = LDLT(a, Ordering::kRCM).solve(b);
  const Vec x2 = LDLT(a, Ordering::kNatural).solve(b);
  for (size_t i = 0; i < 30; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST(SparseLDLT, AllPositivePivotsForSpd) {
  const SMat a = random_spd_sparse(30, 5);
  const LDLT f(a);
  EXPECT_EQ(f.negative_pivots(), 0);
  for (double s : f.j_signs()) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(SparseLDLT, QuasiDefiniteInertia) {
  const Index na = 20, nb = 8;
  const SMat a = random_quasi_definite(na, nb, 11);
  const LDLT f(a);
  // Quasi-definite: exactly nb negative pivots regardless of ordering.
  EXPECT_EQ(f.negative_pivots(), nb);
  Vec b(static_cast<size_t>(na + nb), 1.0);
  const Vec x = f.solve(b);
  const Vec r = a.multiply(x);
  for (double v : r) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(SparseLDLT, ThrowsOnSingular) {
  // Pure graph Laplacian (no ground ties): singular.
  TripletBuilder<double> t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 1.0);
  t.add_symmetric(0, 1, -1.0);
  t.add_symmetric(1, 2, -1.0);
  EXPECT_THROW(LDLT{t.compress()}, Error);
}

TEST(SparseLDLT, RejectsAsymmetric) {
  TripletBuilder<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(0, 1, 0.5);
  EXPECT_THROW(LDLT{t.compress()}, Error);
}

TEST(SparseLDLT, MFactorReconstructs) {
  // A = M J Mᵀ: verify via applying both sides to random vectors.
  const SMat a = random_quasi_definite(15, 5, 21);
  const LDLT f(a);
  const Vec j = f.j_signs();
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 5; ++trial) {
    Vec x(static_cast<size_t>(a.rows()));
    for (auto& v : x) v = u(rng);
    // y = A x and z = M J Mᵀ x (via solve_m/solve_mt inverses):
    // Mᵀx requires the forward map; instead check M⁻¹·A·M⁻ᵀ = J:
    // w = M⁻¹ A M⁻ᵀ x should equal J x.
    Vec w = f.solve_mt(x);
    w = a.multiply(w);
    w = f.solve_m(w);
    for (size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(w[i], j[i] * x[i], 1e-8);
  }
}

TEST(SparseLDLT, ComplexSymmetricSolve) {
  // Complex-symmetric pencil G + jωC as used by the AC sweep.
  const SMat g = random_spd_sparse(20, 31);
  const SMat c = random_spd_sparse(20, 32);
  const Complex s(0.0, 2.0 * M_PI * 1e9);
  const CSMat pencil = pencil_combine(g, c, s);
  const CLDLT f(pencil);
  CVec b(20, Complex(1.0, -0.5));
  const CVec x = f.solve(b);
  const CVec r = pencil.multiply(x);
  for (const auto& v : r) EXPECT_NEAR(std::abs(v - Complex(1.0, -0.5)), 0.0, 1e-8);
}

TEST(SparseLDLT, PivotRatioReported) {
  const SMat a = random_spd_sparse(10, 8);
  const LDLT f(a);
  EXPECT_GT(f.pivot_ratio(), 0.0);
  EXPECT_LE(f.pivot_ratio(), 1.0);
}

TEST(SparseLDLT, FillInBounded) {
  // Tridiagonal matrices factor with zero fill beyond the band.
  const Index n = 50;
  TripletBuilder<double> t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (Index i = 0; i + 1 < n; ++i) t.add_symmetric(i, i + 1, -1.0);
  const LDLT f(t.compress(), Ordering::kNatural);
  EXPECT_EQ(f.l_nnz(), n - 1);
}

// ---- Port-sparse solves --------------------------------------------------

// g×g RC mesh: G a grounded grid Laplacian, C the node capacitances. Its
// nested-dissection factor has a bushy supernodal tree, so a sparse
// right-hand side reaches only part of it.
SMat mesh_g(Index g) {
  TripletBuilder<double> t(g * g, g * g);
  for (Index r = 0; r < g; ++r)
    for (Index c = 0; c < g; ++c) {
      const Index i = r * g + c;
      t.add(i, i, 4.0 + 0.01 * static_cast<double>(i % 7));
      if (c + 1 < g) t.add_symmetric(i, i + 1, -1.0 - 0.1 * static_cast<double>(i % 3));
      if (r + 1 < g) t.add_symmetric(i, i + g, -1.0 - 0.1 * static_cast<double>(i % 5));
    }
  return t.compress();
}

SMat mesh_c(Index g) {
  TripletBuilder<double> t(g * g, g * g);
  for (Index i = 0; i < g * g; ++i) t.add(i, i, 1e-12 * (1.0 + 0.1 * static_cast<double>(i % 4)));
  return t.compress();
}

// The port sets of the parity tests: empty, one row, scattered rows, all.
std::vector<std::vector<Index>> port_sets(Index n) {
  std::vector<Index> scattered, all;
  for (Index i = 5; i < n; i += 97) scattered.push_back(i);
  for (Index i = 0; i < n; ++i) all.push_back(i);
  return {{}, {n / 3}, scattered, all};
}

template <typename T>
T rhs_value(std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  if constexpr (std::is_same_v<T, double>)
    return u(rng);
  else
    return T(u(rng), u(rng));
}

// n×p right-hand side whose nonzeros lie on `rows`: row k of the set is
// nonzero in every column but those with (k + c) % 3 == 2.
template <typename T>
Matrix<T> port_rhs(Index n, const std::vector<Index>& rows, Index p, unsigned seed) {
  std::mt19937 rng(seed);
  Matrix<T> b(n, p);
  for (size_t k = 0; k < rows.size(); ++k)
    for (Index c = 0; c < p; ++c)
      if ((static_cast<Index>(k) + c) % 3 != 2) b(rows[k], c) = rhs_value<T>(rng);
  return b;
}

// [B | 1]: a right-hand side whose every row is nonzero, so a forward sweep
// visits every supernode. Per-column bit identity across block widths then
// makes its first p columns the full sweep's bits for B.
template <typename T>
Matrix<T> with_ones_column(const Matrix<T>& b) {
  Matrix<T> out(b.rows(), b.cols() + 1);
  for (Index i = 0; i < b.rows(); ++i) {
    for (Index c = 0; c < b.cols(); ++c) out(i, c) = b(i, c);
    out(i, b.cols()) = T(1);
  }
  return out;
}

template <typename T>
Matrix<T> leading_columns(const Matrix<T>& x, Index p) {
  Matrix<T> out(x.rows(), p);
  for (Index i = 0; i < x.rows(); ++i)
    for (Index c = 0; c < p; ++c) out(i, c) = x(i, c);
  return out;
}

template <typename T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<size_t>(a.rows() * a.cols())) == 0;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(T) * a.size()) == 0;
}

// max over columns of ‖A·x − b‖∞ / (1 + ‖b‖∞).
template <typename T>
double residual(const SparseMatrix<T>& a, const Matrix<T>& x, const Matrix<T>& b) {
  double worst = 0.0;
  for (Index c = 0; c < b.cols(); ++c) {
    const std::vector<T> bc = b.col(c);
    const std::vector<T> r = a.multiply(x.col(c));
    double err = 0.0, scale = 0.0;
    for (size_t i = 0; i < r.size(); ++i) {
      err = std::max(err, std::abs(r[i] - bc[i]));
      scale = std::max(scale, std::abs(bc[i]));
    }
    worst = std::max(worst, err / (1.0 + scale));
  }
  return worst;
}

template <typename T>
Matrix<T> as_column(const std::vector<T>& v) {
  Matrix<T> m(static_cast<Index>(v.size()), 1);
  for (size_t i = 0; i < v.size(); ++i) m(static_cast<Index>(i), 0) = v[i];
  return m;
}

template <typename T>
std::vector<T> first_column(const Matrix<T>& m) {
  std::vector<T> v(static_cast<size_t>(m.rows()));
  for (Index i = 0; i < m.rows(); ++i) v[static_cast<size_t>(i)] = m(i, 0);
  return v;
}

// A forward sweep that skips the supernodes a sparse right-hand side
// never reaches keeps every bit of the full sweep: solve, solve_m and the
// Lanczos starting block against the all-ones-column oracle, for real
// and complex factors, 1 to 64 columns, and empty, single-row, scattered
// and full port sets.
TEST(SparseLDLT, ForwardSkipKeepsFullSweepBits) {
  const Index g = 24;
  const SMat gm = mesh_g(g), cm = mesh_c(g);
  const Index n = gm.rows();
  const LDLT real(gm, Ordering::kNestedDissection);
  const CSMat cm_pencil = pencil_combine(gm, cm, Complex(0.0, 2.0 * M_PI * 1e10));
  const CLDLT cplx(cm_pencil, Ordering::kNestedDissection);
  PencilFactorOptions popt;
  popt.shift = 1e9;
  popt.ordering = Ordering::kNestedDissection;
  const FactorizedPencil pencil(gm, cm, popt);
  unsigned seed = 1;
  for (const std::vector<Index>& rows : port_sets(n))
    for (const Index p : {1, 3, 16, 64}) {
      SCOPED_TRACE("ports " + std::to_string(rows.size()) + ", nrhs " + std::to_string(p));
      const Mat b = port_rhs<double>(n, rows, p, seed++);
      const CMat cb = port_rhs<Complex>(n, rows, p, seed++);
      const Mat b1 = with_ones_column(b);
      // The oracle leans on a correct skip test; the residuals do not.
      EXPECT_LT(residual(gm, real.solve(b), b), 1e-12);
      EXPECT_LT(residual(cm_pencil, cplx.solve(cb), cb), 1e-12);
      EXPECT_TRUE(same_bits(real.solve(b), leading_columns(real.solve(b1), p)));
      EXPECT_TRUE(same_bits(real.solve_m(b), leading_columns(real.solve_m(b1), p)));
      EXPECT_TRUE(same_bits(cplx.solve(cb), leading_columns(cplx.solve(with_ones_column(cb)), p)));
      EXPECT_TRUE(same_bits(starting_block(pencil, b),
                            leading_columns(starting_block(pencil, b1), p)));
      if (p == 1) {
        const Vec v = first_column(b);
        const CVec cv = first_column(cb);
        EXPECT_TRUE(same_bits(real.solve(v), first_column(real.solve(with_ones_column(b)))));
        EXPECT_TRUE(same_bits(real.solve_m(v), first_column(real.solve_m(b1))));
        EXPECT_TRUE(same_bits(cplx.solve(cv), first_column(cplx.solve(with_ones_column(cb)))));
      }
    }
}

// −0.0 is a nonzero for the skip: a supernode holding one is swept, where
// a −0.0 below a +0.0 row can turn into +0.0.
TEST(SparseLDLT, ForwardSkipSweepsNegativeZeroRows) {
  const SMat gm = mesh_g(20);
  const Index n = gm.rows();
  const LDLT f(gm, Ordering::kNestedDissection);
  for (const std::vector<Index>& rows : port_sets(n)) {
    if (rows.empty()) continue;
    Mat b(n, 2);
    for (const Index i : rows) b(i, 0) = -0.0;
    b(rows.front(), 1) = 1.0;
    const Mat x = f.solve(b);
    EXPECT_TRUE(same_bits(x, leading_columns(f.solve(with_ones_column(b)), 2)))
        << rows.size() << " rows";
  }
  // Every row −0.0: had the sweep skipped it, every entry would keep its
  // sign bit; the swept solve turns some into +0.0.
  Vec b(static_cast<size_t>(n), -0.0);
  const Vec x = f.solve(b);
  EXPECT_TRUE(same_bits(x, first_column(f.solve(with_ones_column(as_column(b))))));
  Index plus_zero = 0;
  for (const double v : x) plus_zero += std::bit_cast<std::uint64_t>(v) == 0 ? 1 : 0;
  EXPECT_GT(plus_zero, 0);
}

// The same incidence-style B as a sparse matrix and as a dense block.
template <typename T>
void incidence_rhs(Index n, const std::vector<Index>& rows, Index p, unsigned seed,
                   SMat* sparse, Matrix<T>* dense) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 2.0);
  TripletBuilder<double> t(n, p);
  *dense = Matrix<T>(n, p);
  for (Index c = 0; c < p; ++c) {
    if (rows.empty()) break;
    // One or two port rows per column, as the MNA port incidence has.
    const Index r0 = rows[static_cast<size_t>(c) % rows.size()];
    const Index r1 = rows[static_cast<size_t>(3 * c + 1) % rows.size()];
    const double v = u(rng);
    t.add(r0, c, v);
    (*dense)(r0, c) = T(v);
    if (r1 != r0 && c % 2 == 1) {
      t.add(r1, c, -v);
      (*dense)(r1, c) = T(-v);
    }
  }
  *sparse = t.compress();
}

template <typename T>
Matrix<T> gather_rows(const Matrix<T>& x, const std::vector<Index>& rows) {
  Matrix<T> out(static_cast<Index>(rows.size()), x.cols());
  for (size_t k = 0; k < rows.size(); ++k)
    for (Index c = 0; c < x.cols(); ++c) out(static_cast<Index>(k), c) = x(rows[k], c);
  return out;
}

template <typename T>
void expect_row_solves_match(const SparseLDLT<T>& f, unsigned seed) {
  const Index n = f.size();
  for (std::vector<Index> rows : port_sets(n)) {
    if (rows.size() > 2) rows.push_back(rows[1]);  // a repeated row
    const LdltRowReach reach = f.symbolic().row_reach(rows);
    EXPECT_EQ(reach.rows, rows);
    EXPECT_TRUE(std::is_sorted(reach.supernodes.rbegin(), reach.supernodes.rend()));
    if (rows.empty()) {
      EXPECT_TRUE(reach.supernodes.empty());
    }
    if (static_cast<Index>(rows.size()) >= n) {
      EXPECT_EQ(static_cast<Index>(reach.supernodes.size()), f.supernode_count());
    }
    for (const Index p : {1, 3, 16, 64}) {
      SCOPED_TRACE("rows " + std::to_string(rows.size()) + ", nrhs " + std::to_string(p));
      SMat bs;
      Matrix<T> bd;
      incidence_rhs(n, rows.empty() ? std::vector<Index>{n / 2} : rows, p, seed++, &bs, &bd);
      const Matrix<T> x = f.solve_rows(bs, reach);
      EXPECT_TRUE(same_bits(x, gather_rows(f.solve(bd), rows)));
    }
  }
}

// The row-restricted solve returns the full solve's rows bit for bit.
TEST(SparseLDLT, RowRestrictedSolveMatchesFullSolveRows) {
  const Index g = 24;
  const SMat gm = mesh_g(g), cm = mesh_c(g);
  expect_row_solves_match(LDLT(gm, Ordering::kNestedDissection), 7);
  expect_row_solves_match(
      CLDLT(pencil_combine(gm, cm, Complex(0.0, 2.0 * M_PI * 1e10)),
            Ordering::kNestedDissection),
      11);
  expect_row_solves_match(LDLT(random_quasi_definite(60, 20, 3)), 13);
}

// A stored −0.0 in the sparse right-hand side seeds the forward sweep as
// any nonzero does; a reach resolved against another analysis is refused.
TEST(SparseLDLT, RowRestrictedSolveEdges) {
  const SMat gm = mesh_g(16);
  const Index n = gm.rows();
  const LDLT f(gm, Ordering::kNestedDissection);
  SMat b(n, 2);
  b.set_raw({0, 1, 3}, {n / 4, 3, n - 2}, {-0.0, -0.0, 1.0});
  Mat bd(n, 2);
  bd(n / 4, 0) = -0.0;
  bd(3, 1) = -0.0;
  bd(n - 2, 1) = 1.0;
  std::vector<Index> rows;
  for (Index i = 0; i < n; i += 3) rows.push_back(i);
  const Mat x = f.solve_rows(b, f.symbolic().row_reach(rows));
  EXPECT_TRUE(same_bits(x, gather_rows(f.solve(bd), rows)));
  EXPECT_TRUE(same_bits(f.solve(bd), leading_columns(f.solve(with_ones_column(bd)), 2)));

  const LDLT other(gm, Ordering::kNestedDissection);
  EXPECT_THROW((void)f.solve_rows(b, other.symbolic().row_reach(rows)), Error);
  EXPECT_THROW((void)f.symbolic().row_reach({n}), Error);
}

// Pinned behaviour: a non-finite L entry in a panel the forward sweep
// skips no longer reaches the rows below it. Natural order, supernodes
// {0} and {1, 2}: the pivot 1e-300 of column 0 makes L(2,0) = Inf (and
// the last pivot −Inf). With b = e₁, column 0's panel is never swept, so
// X(1) and X(2) stay finite; a sweep through it would form Inf·(+0) =
// NaN in row 2 and spread it to row 1.
TEST(SparseLDLT, NonFiniteLOutsideTheReachStaysOut) {
  TripletBuilder<double> t(3, 3);
  t.add(0, 0, 1e-300);
  t.add(1, 1, 1.0);
  t.add(2, 2, 3.0);
  t.add_symmetric(0, 2, 1e10);
  t.add_symmetric(1, 2, 1.0);
  const LDLT f(t.compress(), Ordering::kNatural);
  ASSERT_EQ(f.supernode_count(), 2);
  const SMat l = f.l_matrix();
  bool inf_in_l = false;
  for (const double v : l.values()) inf_in_l |= std::isinf(v);
  ASSERT_TRUE(inf_in_l);

  const Vec x = f.solve(Vec{0.0, 1.0, 0.0});
  EXPECT_EQ(x[1], 1.0);
  EXPECT_EQ(x[2], 0.0);
  Mat b(3, 1);
  b(1, 0) = 1.0;
  EXPECT_EQ(f.solve(b)(1, 0), 1.0);
  SMat bs(3, 1);
  bs.set_raw({0, 1}, {1}, {1.0});
  const Mat xr = f.solve_rows(bs, f.symbolic().row_reach({1, 2}));
  EXPECT_EQ(xr(0, 0), 1.0);
  EXPECT_EQ(xr(1, 0), 0.0);
  // A right-hand side that does reach column 0 still meets the Inf.
  EXPECT_TRUE(std::isnan(f.solve(Vec{1.0, 1.0, 0.0})[1]));
}

}  // namespace
}  // namespace sympvl
