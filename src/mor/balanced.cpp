#include "mor/balanced.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"

namespace sympvl {

BalancedResult balanced_truncation(const MnaSystem& sys,
                                   const BalancedOptions& options) {
  require(sys.variable == SVariable::kS && sys.s_prefactor == 0,
          "balanced_truncation: requires an s-domain (RC/general) form");
  require(sys.definite,
          "balanced_truncation: requires the PSD RC assembly (G, C PSD)");
  const Index n = sys.size();
  const Index p = sys.port_count();
  require(options.order >= 1 && options.order <= n,
          "balanced_truncation: order out of range");

  // Symmetric coordinates: C = RRᵀ, Ã = −R⁻¹GR⁻ᵀ, B̃ = R⁻¹B.
  const DenseCholesky chol(sys.C.to_dense());  // throws unless C is PD
  const Mat g = sys.G.to_dense();
  Mat a_tilde(n, n);
  for (Index j = 0; j < n; ++j) {
    Vec col = chol.solve_l(g.col(j));
    a_tilde.set_col(j, col);
  }
  // a_tilde now holds R⁻¹G; apply R⁻ᵀ from the right via transposition.
  {
    const Mat t = a_tilde.transpose();
    for (Index j = 0; j < n; ++j) a_tilde.set_col(j, chol.solve_l(t.col(j)));
    // a_tilde = R⁻¹(R⁻¹G)ᵀ = R⁻¹GᵀR⁻ᵀ = R⁻¹GR⁻ᵀ (G symmetric).
  }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) a_tilde(i, j) = -a_tilde(i, j);
  a_tilde = symmetrized(std::move(a_tilde));  // rounding noise
  Mat b_tilde(n, p);
  for (Index j = 0; j < p; ++j) b_tilde.set_col(j, chol.solve_l(sys.B.col(j)));

  // Gramian by spectral solution of the Lyapunov equation ÃP + PÃ = −B̃B̃ᵀ.
  const SymmetricEig eig = eig_symmetric(a_tilde);
  for (double l : eig.values)
    require(l < 0.0,
            "balanced_truncation: system has a pole at the origin (G "
            "singular — no DC path); the Gramian does not exist");
  // W = Vᵀ B̃B̃ᵀ V, then P̃ᵢⱼ = Wᵢⱼ / (−λᵢ − λⱼ).
  const Mat vb = eig.vectors.transpose() * b_tilde;  // n×p
  Mat p_hat(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      double w = 0.0;
      for (Index k = 0; k < p; ++k) w += vb(i, k) * vb(j, k);
      p_hat(i, j) = w / (-eig.values[static_cast<size_t>(i)] -
                         eig.values[static_cast<size_t>(j)]);
    }
  const Mat gram = symmetrized(eig.vectors * p_hat * eig.vectors.transpose());

  // For this symmetric realization P = Q: the Hankel singular values are
  // |eig(P)| and the balancing transformation is orthogonal.
  const SymmetricEig peig = eig_symmetric(gram);
  BalancedResult result{{Mat(), Mat(), Mat(), sys.variable, 0, 0.0}, {}, 0.0};
  Vec hsv;
  std::vector<Index> order_idx;
  for (Index i = n - 1; i >= 0; --i) {  // descending
    hsv.push_back(std::max(0.0, peig.values[static_cast<size_t>(i)]));
    order_idx.push_back(i);
  }
  const Index k = options.order;
  double bound = 0.0;
  for (Index i = k; i < n; ++i) bound += 2.0 * hsv[static_cast<size_t>(i)];

  // Truncate to the dominant Hankel directions.
  Mat u(n, k);
  for (Index c = 0; c < k; ++c)
    for (Index i = 0; i < n; ++i)
      u(i, c) = peig.vectors(i, order_idx[static_cast<size_t>(c)]);
  const Mat ar = u.transpose() * (a_tilde * u);
  const Mat br = u.transpose() * b_tilde;
  Mat gr = ar;
  for (Index i = 0; i < k; ++i)
    for (Index j = 0; j < k; ++j) gr(i, j) = -ar(i, j);

  result.model = ArnoldiModel(std::move(gr), Mat::identity(k), br,
                              sys.variable, sys.s_prefactor, /*s0=*/0.0);
  result.hankel_singular_values = std::move(hsv);
  result.error_bound = bound;
  return result;
}

}  // namespace sympvl
