// FactorChain: the two-rung fallback of the exact solves (unpivoted LDLᵀ,
// then the pivoted sparse LU when the LDLᵀ throws).
#include "linalg/factor_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "fault.hpp"

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

Vec test_rhs(Index n) {
  Vec b(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i)
    b[static_cast<size_t>(i)] = std::cos(static_cast<double>(i));
  return b;
}

double max_abs_diff(const Vec& a, const Vec& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

double vec_inf(const Vec& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

TEST(FactorChain, SpdTakesLdltFirstRung) {
  const SMat a = random_spd_sparse(40, 3);
  const FactorChainD chain(a);
  EXPECT_FALSE(chain.used_fallback());
  EXPECT_EQ(chain.bytes(), LDLT(a).factor_bytes());

  const Vec b = test_rhs(40);
  const Vec x = chain.solve(b);
  const Vec r = a.multiply(x);
  EXPECT_LT(max_abs_diff(r, b), 1e-9);
}

TEST(FactorChain, ForcedLdltFailureFallsBackToLuAndMatches) {
  const SMat a = random_spd_sparse(50, 7);
  const Vec b = test_rhs(50);
  const FactorChainD clean(a);
  const Vec x_clean = clean.solve(b);

  fault::arm("factor.ldlt@*");
  const FactorChainD chain(a);
  EXPECT_EQ(fault::fire_count("factor.ldlt"), 1);
  fault::disarm();

  EXPECT_TRUE(chain.used_fallback());
  EXPECT_EQ(chain.bytes(), LUSparse(a).factor_bytes());

  // Same matrix, different factorization: answers agree to solver tol.
  const Vec x = chain.solve(b);
  EXPECT_LT(max_abs_diff(x, x_clean), 1e-10 * (1.0 + vec_inf(x_clean)));
}

TEST(FactorChain, AllRungsExhaustedThrowsStructuredSingular) {
  // At tolerance 0 an exactly singular matrix can still factor with a
  // rounding-sized pivot, so the faults make both rungs fail for certain.
  const SMat a = random_spd_sparse(24, 5);
  fault::arm("factor.ldlt@*;factor.lu@*");
  try {
    FactorChainD chain(a);
    ADD_FAILURE() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kSingular);
    EXPECT_EQ(ex.context().stage, "factor_chain");
    const std::string what = ex.what();
    EXPECT_NE(what.find("every factorization rung"), std::string::npos);
    EXPECT_NE(what.find("ldlt: "), std::string::npos) << what;
    EXPECT_NE(what.find("; lu: "), std::string::npos) << what;
  }
  EXPECT_EQ(fault::fire_count("factor.ldlt"), 1);
  EXPECT_EQ(fault::fire_count("factor.lu"), 1);
  fault::disarm();
}

TEST(FactorChain, ComplexPencilSolvesAccurately) {
  const Index n = 32;
  const SMat g = random_spd_sparse(n, 11);
  TripletBuilder<Complex> t(n, n);
  for (Index j = 0; j < g.cols(); ++j)
    for (Index k = g.colptr()[static_cast<size_t>(j)];
         k < g.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(g.rowind()[static_cast<size_t>(k)], j,
            Complex(g.values()[static_cast<size_t>(k)], 0.0));
  for (Index i = 0; i < n; ++i) t.add(i, i, Complex(0.0, 0.5));
  const CSMat a = t.compress();

  const FactorChainZ chain(a);
  CVec b(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i)
    b[static_cast<size_t>(i)] =
        Complex(std::cos(double(i)), std::sin(double(i)));
  const CVec x = chain.solve(b);
  const CVec r = a.multiply(x);
  double m = 0.0;
  for (size_t i = 0; i < r.size(); ++i) m = std::max(m, std::abs(r[i] - b[i]));
  EXPECT_LT(m, 1e-9);
}

}  // namespace
}  // namespace sympvl
