#include "linalg/dense_factor.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "linalg/eig.hpp"

namespace sympvl {
namespace {

Mat random_matrix(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat a(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) a(i, j) = u(rng);
  return a;
}

Mat random_symmetric(Index n, unsigned seed) {
  Mat a = random_matrix(n, seed);
  return a + a.transpose();
}

// The signs of J in A = M J Mᵀ, {#(+1), #(-1)}: A's inertia by Sylvester's
// law (symmetric_factor rejects a singular A).
std::pair<Index, Index> j_signs(const BunchKaufman& bk) {
  Mat m;
  Vec j;
  bk.symmetric_factor(m, j);
  Index pos = 0, neg = 0;
  for (double v : j) ++(v > 0.0 ? pos : neg);
  return {pos, neg};
}

Mat random_spd(Index n, unsigned seed) {
  Mat a = random_matrix(n, seed);
  Mat s = a.transpose() * a;
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

TEST(DenseLU, SolvesKnownSystem) {
  Mat a{{2.0, 1.0}, {1.0, 3.0}};
  const Vec x = LU(a).solve(Vec{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(DenseLU, RandomResidual) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const Mat a = random_matrix(20, seed);
    Vec b(20);
    for (size_t i = 0; i < 20; ++i) b[i] = static_cast<double>(i) - 7.5;
    const Vec x = LU(a).solve(b);
    const Vec r = a * x;
    for (size_t i = 0; i < 20; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
  }
}

TEST(DenseLU, DetectsSingular) {
  Mat a{{1.0, 2.0}, {2.0, 4.0}};
  LU lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(Vec{1.0, 1.0}), Error);
}

TEST(DenseLU, ComplexSolve) {
  CMat a(2, 2);
  a(0, 0) = Complex(1.0, 1.0);
  a(0, 1) = Complex(0.0, -1.0);
  a(1, 0) = Complex(2.0, 0.0);
  a(1, 1) = Complex(3.0, 1.0);
  CVec b{Complex(1.0, 0.0), Complex(0.0, 1.0)};
  const CVec x = CLU(a).solve(b);
  // Verify the residual.
  const CVec r = a * x;
  EXPECT_NEAR(std::abs(r[0] - b[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(r[1] - b[1]), 0.0, 1e-12);
}

TEST(DenseLU, MatrixRhs) {
  const Mat a = random_matrix(8, 11);
  const Mat x = LU(a).solve(Mat::identity(8));
  const Mat should_be_i = a * x;
  EXPECT_NEAR((should_be_i - Mat::identity(8)).max_abs(), 0.0, 1e-9);
}

TEST(DenseCholesky, FactorAndSolve) {
  const Mat a = random_spd(15, 5);
  const DenseCholesky chol(a);
  // L·Lᵀ = A.
  const Mat l = chol.matrix_l();
  EXPECT_NEAR((l * l.transpose() - a).max_abs(), 0.0, 1e-9);
  Vec b(15, 1.0);
  const Vec x = chol.solve(b);
  const Vec r = a * x;
  for (double v : r) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(DenseCholesky, RejectsIndefinite) {
  Mat a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(DenseCholesky{a}, Error);
}

TEST(DenseCholesky, TriangularSolves) {
  const Mat a = random_spd(6, 9);
  const DenseCholesky chol(a);
  Vec b(6, 2.0);
  const Vec y = chol.solve_l(b);
  const Vec x = chol.solve_lt(y);
  const Vec r = a * x;
  for (double v : r) EXPECT_NEAR(v, 2.0, 1e-10);
}

TEST(DenseQR, Reconstruction) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat a(10, 4);
  for (Index i = 0; i < 10; ++i)
    for (Index j = 0; j < 4; ++j) a(i, j) = u(rng);
  const DenseQR qr(a);
  const Mat q = qr.q_thin();
  const Mat r = qr.r();
  EXPECT_NEAR((q * r - a).max_abs(), 0.0, 1e-12);
  // Orthonormal columns.
  EXPECT_NEAR((q.transpose() * q - Mat::identity(4)).max_abs(), 0.0, 1e-12);
}

TEST(DenseQR, FullQOrthogonal) {
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat a(7, 3);
  for (Index i = 0; i < 7; ++i)
    for (Index j = 0; j < 3; ++j) a(i, j) = u(rng);
  const DenseQR qr(a);
  const Mat q = qr.q_full();
  EXPECT_NEAR((q.transpose() * q - Mat::identity(7)).max_abs(), 0.0, 1e-12);
  // First columns coincide with the thin factor.
  const Mat qt = qr.q_thin();
  EXPECT_NEAR((q.block(0, 7, 0, 3) - qt).max_abs(), 0.0, 1e-12);
}

TEST(DenseQR, RankDetection) {
  Mat a(5, 3);
  for (Index i = 0; i < 5; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // dependent column
    a(i, 2) = static_cast<double>(i * i);
  }
  EXPECT_EQ(DenseQR(a).rank(), 2);
}

TEST(DenseQR, LeastSquares) {
  // Overdetermined fit of y = 2x + 1.
  Mat a(4, 2);
  Vec b(4);
  for (Index i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 1.0;
    b[static_cast<size_t>(i)] = 2.0 * static_cast<double>(i) + 1.0;
  }
  const Vec x = DenseQR(a).solve(b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(BunchKaufman, ReconstructionViaSymmetricFactor) {
  for (unsigned seed : {1u, 2u, 7u, 13u}) {
    const Mat a = random_symmetric(12, seed);
    const BunchKaufman bk(a);
    Mat m;
    Vec j;
    bk.symmetric_factor(m, j);
    // A = M J Mᵀ.
    Mat mj = m;
    for (Index c = 0; c < mj.cols(); ++c)
      for (Index r = 0; r < mj.rows(); ++r) mj(r, c) *= j[static_cast<size_t>(c)];
    EXPECT_NEAR((mj * m.transpose() - a).max_abs(), 0.0,
                1e-9 * (1.0 + a.max_abs()))
        << "seed " << seed;
  }
}

TEST(BunchKaufman, Solve) {
  for (unsigned seed : {3u, 8u}) {
    const Mat a = random_symmetric(16, seed);
    Vec b(16);
    for (size_t i = 0; i < 16; ++i) b[i] = std::sin(static_cast<double>(i));
    const Vec x = BunchKaufman(a).solve(b);
    const Vec r = a * x;
    for (size_t i = 0; i < 16; ++i) EXPECT_NEAR(r[i], b[i], 1e-8);
  }
}

TEST(BunchKaufman, InertiaOfIndefinite) {
  // diag(2, -3, 5) rotated by a random orthogonal-ish congruence keeps
  // inertia (Sylvester's law).
  Mat d{{2.0, 0.0, 0.0}, {0.0, -3.0, 0.0}, {0.0, 0.0, 5.0}};
  const Mat p = random_matrix(3, 21);
  const Mat a = p * d * p.transpose();
  const auto [pos, neg] = j_signs(BunchKaufman(a));
  EXPECT_EQ(pos, 2);
  EXPECT_EQ(neg, 1);
}

TEST(BunchKaufman, HandlesZeroDiagonal) {
  // Classic BK stress case: zero diagonal forces 2x2 pivots.
  Mat a{{0.0, 1.0}, {1.0, 0.0}};
  const BunchKaufman bk(a);
  const Vec x = bk.solve(Vec{1.0, 2.0});
  EXPECT_NEAR(x[0], 2.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
  const auto [pos, neg] = j_signs(bk);
  EXPECT_EQ(pos, 1);
  EXPECT_EQ(neg, 1);
}

TEST(BunchKaufman, RejectsNonSymmetric) {
  Mat a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(BunchKaufman{a}, Error);
}

TEST(BunchKaufman, JSignsMatchInertia) {
  // Against an independent reference: the signs of A's eigenvalues.
  const Mat a = random_symmetric(10, 33);
  Index neg = 0;
  for (double l : eig_symmetric(a).values)
    if (l < 0.0) ++neg;
  EXPECT_EQ(j_signs(BunchKaufman(a)).second, neg);
}

}  // namespace
}  // namespace sympvl
