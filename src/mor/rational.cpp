#include "mor/rational.hpp"

#include <cmath>
#include <memory>

#include "linalg/factor_cache.hpp"
#include "linalg/sparse_lu.hpp"
#include "mor/pencil.hpp"

namespace sympvl {

namespace {

// Shifted solver: (G + s₀C)⁻¹ — symmetric LDLᵀ acquired through the
// shared FactorCache (a multipoint run revisiting a shift, or a SyMPVL
// run at the same point, reuses the factorization), with an uncached
// pivoted-LU fallback for pencils the unpivoted LDLᵀ cannot handle.
class ShiftedSolver {
 public:
  ShiftedSolver(const MnaSystem& sys, double shift, FactorCache* cache) {
    PencilFactorOptions opt;
    opt.shift = shift;
    try {
      FactorCache& c = cache != nullptr ? *cache : FactorCache::global();
      const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
      pencil_ = c.acquire(fp, opt, [&] {
        return std::make_shared<const FactorizedPencil>(sys.G, sys.C, opt, &c);
      });
    } catch (const Error&) {
      const SMat gt = assemble_pencil(sys.G, sys.C, shift);
      lu_ = std::make_unique<LUSparse>(gt, kDefaultOrdering,
                                       /*pivot_threshold=*/1.0,
                                       /*zero_pivot_tol=*/1e-12);
    }
  }
  Vec solve(const Vec& b) const {
    return pencil_ ? pencil_->solve(b) : lu_->solve(b);
  }

 private:
  std::shared_ptr<const FactorizedPencil> pencil_;
  std::unique_ptr<LUSparse> lu_;
};

}  // namespace

ArnoldiModel rational_reduce(const MnaSystem& sys,
                             const RationalOptions& options) {
  require(!options.shifts.empty(), "rational_reduce: no expansion points");
  require(options.iterations_per_shift >= 1,
          "rational_reduce: iterations_per_shift must be >= 1");
  const Index p = sys.port_count();
  require(p >= 1, "rational_reduce: system has no ports");

  // Union basis over all expansion points, orthonormalized with doubly
  // applied modified Gram-Schmidt and norm-relative deflation.
  std::vector<Vec> basis;
  for (double shift : options.shifts) {
    require(shift >= 0.0, "rational_reduce: shifts must be real and >= 0");
    const ShiftedSolver solver(sys, shift, options.factor_cache);
    std::vector<Vec> block;
    for (Index j = 0; j < p; ++j) block.push_back(solver.solve(sys.B.col(j)));
    for (Index it = 0; it < options.iterations_per_shift; ++it) {
      std::vector<Vec> accepted =
          mgs_union_append(basis, std::move(block), options.deflation_tol);
      if (it + 1 == options.iterations_per_shift) break;
      block.clear();
      for (const auto& q : accepted)
        block.push_back(solver.solve(sys.C.multiply(q)));
      if (block.empty()) break;
    }
  }
  require(!basis.empty(), "rational_reduce: basis deflated to nothing");
  return congruence_project(sys, basis);
}

std::vector<Vec> mgs_union_append(std::vector<Vec>& basis,
                                  std::vector<Vec> block, double deflation_tol,
                                  Index max_size) {
  std::vector<Vec> accepted;
  for (auto& w : block) {
    if (static_cast<Index>(basis.size()) >= max_size) break;
    const double ref = norm2(w);
    if (ref == 0.0) continue;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& q : basis) {
        const double h = dot(q, w);
        axpy(-h, q, w);
      }
    const double nrm = norm2(w);
    if (nrm <= deflation_tol * ref) continue;
    scale(w, 1.0 / nrm);
    basis.push_back(w);
    accepted.push_back(w);
  }
  return accepted;
}

ArnoldiModel congruence_project(const MnaSystem& sys,
                                const std::vector<Vec>& basis, double s0) {
  const Index n = static_cast<Index>(basis.size());
  const Index p = sys.port_count();
  require(n >= 1, "congruence_project: empty basis");
  // G̃ = G + s₀C, assembled only when shifted: at s₀ = 0 it is G itself.
  const SMat shifted = s0 != 0.0 ? assemble_pencil(sys.G, sys.C, s0) : SMat();
  const SMat& gt = s0 != 0.0 ? shifted : sys.G;
  Mat gr(n, n), cr(n, n), br(n, p);
  // Column-at-a-time projection: G̃·qⱼ and C·qⱼ live only while column j's
  // inner products are formed, so the scratch is two N-vectors instead of
  // two dense N×n blocks (the old gv/cv temporaries dominated memory for
  // large systems).
  for (Index j = 0; j < n; ++j) {
    const Vec gv = gt.multiply(basis[static_cast<size_t>(j)]);
    const Vec cv = sys.C.multiply(basis[static_cast<size_t>(j)]);
    for (Index i = 0; i < n; ++i) {
      gr(i, j) = dot(basis[static_cast<size_t>(i)], gv);
      cr(i, j) = dot(basis[static_cast<size_t>(i)], cv);
    }
  }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      br(i, j) = dot(basis[static_cast<size_t>(i)], sys.B.col(j));
  return ArnoldiModel(std::move(gr), std::move(cr), std::move(br), sys.variable,
                      sys.s_prefactor, s0);
}

Vec rational_shifts_for_band(const MnaSystem& sys, double f_min, double f_max,
                             Index count) {
  require(f_min > 0.0 && f_max > f_min && count >= 1,
          "rational_shifts_for_band: invalid band");
  Vec shifts(static_cast<size_t>(count));
  const double l0 = std::log10(f_min);
  const double l1 = std::log10(f_max);
  for (Index k = 0; k < count; ++k) {
    const double f =
        std::pow(10.0, count == 1 ? 0.5 * (l0 + l1)
                                  : l0 + (l1 - l0) * static_cast<double>(k) /
                                             static_cast<double>(count - 1));
    const double w = 2.0 * M_PI * f;
    shifts[static_cast<size_t>(k)] =
        (sys.variable == SVariable::kS) ? w : w * w;
  }
  return shifts;
}

}  // namespace sympvl
