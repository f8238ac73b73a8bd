#include "mor/postprocess.hpp"

#include <cmath>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"

namespace sympvl {

ModalModel::ModalModel(CVec poles, std::vector<CMat> residues, Mat direct,
                       SVariable variable, int s_prefactor)
    : poles_(std::move(poles)),
      residues_(std::move(residues)),
      direct_(std::move(direct)),
      variable_(variable),
      s_prefactor_(s_prefactor) {
  require(poles_.size() == residues_.size(),
          "ModalModel: one residue per pole required");
  for (const auto& r : residues_)
    require(r.rows() == direct_.rows() && r.cols() == direct_.cols(),
            "ModalModel: residue shape mismatch");
}

CMat ModalModel::eval(Complex s) const {
  const Index p = port_count();
  const Complex sigma = (variable_ == SVariable::kS) ? s : s * s;
  CMat z(p, p);
  for (Index i = 0; i < p; ++i)
    for (Index j = 0; j < p; ++j) z(i, j) = Complex(direct_(i, j), 0.0);
  for (size_t k = 0; k < poles_.size(); ++k) {
    const Complex denom = sigma - poles_[k];
    require(std::abs(denom) > 0.0, "ModalModel::eval: evaluation at a pole");
    const Complex w = Complex(1.0, 0.0) / denom;
    for (Index i = 0; i < p; ++i)
      for (Index j = 0; j < p; ++j) z(i, j) += residues_[k](i, j) * w;
  }
  Complex pref(1.0, 0.0);
  for (int k = 0; k < s_prefactor_; ++k) pref *= s;
  for (Index i = 0; i < p; ++i)
    for (Index j = 0; j < p; ++j) z(i, j) *= pref;
  return z;
}

CVec ModalModel::physical_poles() const {
  CVec out;
  for (const Complex& sigma : poles_) {
    if (variable_ == SVariable::kS) {
      out.push_back(sigma);
    } else {
      const Complex root = std::sqrt(sigma);
      out.push_back(root);
      out.push_back(-root);
    }
  }
  return out;
}

bool ModalModel::is_stable(double tol) const {
  for (const Complex& pole : physical_poles())
    if (pole.real() > tol) return false;
  return true;
}

ModalModel modal_decompose(const ReducedModel& model) {
  const Index n = model.order();
  const Index p = model.port_count();
  const GeneralEig eig = eig_general_vectors(model.t());

  // Ẑ(σ') = ρᵀΔ·X (I + σ'Λ)⁻¹ X⁻¹·ρ with σ' = σ − s₀. Terms with λ = 0
  // contribute the constant aₖbₖᵀ; terms with λ ≠ 0 give residues
  // Rₖ = aₖbₖᵀ/λₖ at poles σₖ = s₀ − 1/λₖ.
  const CMat xinv = dense_solve(eig.vectors, CMat::identity(n));
  // a = (ρᵀΔ)·X  (p×n), b = X⁻¹·ρ (n×p).
  const Mat rho_delta = matmul_transA(model.rho(), model.delta());
  CMat a(p, n);
  for (Index i = 0; i < p; ++i)
    for (Index k = 0; k < n; ++k) {
      Complex acc(0.0, 0.0);
      for (Index m = 0; m < n; ++m) acc += rho_delta(i, m) * eig.vectors(m, k);
      a(i, k) = acc;
    }
  CMat b(n, p);
  for (Index k = 0; k < n; ++k)
    for (Index j = 0; j < p; ++j) {
      Complex acc(0.0, 0.0);
      for (Index m = 0; m < n; ++m) acc += xinv(k, m) * model.rho()(m, j);
      b(k, j) = acc;
    }

  CVec poles;
  std::vector<CMat> residues;
  Mat direct(p, p);
  const double lambda_scale = model.t().max_abs() + 1e-300;
  for (Index k = 0; k < n; ++k) {
    const Complex lambda = eig.values[static_cast<size_t>(k)];
    CMat term(p, p);
    for (Index i = 0; i < p; ++i)
      for (Index j = 0; j < p; ++j) term(i, j) = a(i, k) * b(k, j);
    if (std::abs(lambda) < 1e-13 * lambda_scale) {
      // Pole at infinity: constant contribution.
      for (Index i = 0; i < p; ++i)
        for (Index j = 0; j < p; ++j) direct(i, j) += term(i, j).real();
    } else {
      poles.push_back(Complex(model.shift(), 0.0) - Complex(1.0, 0.0) / lambda);
      CMat r(p, p);
      for (Index i = 0; i < p; ++i)
        for (Index j = 0; j < p; ++j) r(i, j) = term(i, j) / lambda;
      residues.push_back(std::move(r));
    }
  }
  return ModalModel(std::move(poles), std::move(residues), std::move(direct),
                    model.variable(), model.s_prefactor());
}

ModalModel enforce_stability(const ModalModel& model, StabilizeMode mode,
                             StabilizeReport* report) {
  StabilizeReport rep;
  CVec poles;
  std::vector<CMat> residues;
  Mat direct = model.direct();
  const Index p = model.port_count();

  const bool s_plane = model.variable() == SVariable::kS;
  for (size_t k = 0; k < model.pencil_poles().size(); ++k) {
    const Complex sigma = model.pencil_poles()[k];
    // Stability in the physical plane: for kS the pole is σ itself; for
    // kSSquared stability of s = ±√σ requires σ on the negative real axis.
    bool unstable;
    if (s_plane) {
      unstable = sigma.real() > 0.0;
    } else {
      unstable = !(sigma.real() <= 0.0 && std::abs(sigma.imag()) <=
                                              1e-9 * (1.0 + std::abs(sigma)));
    }
    if (!unstable) {
      poles.push_back(sigma);
      residues.push_back(model.residues()[k]);
      continue;
    }
    ++rep.unstable_poles;
    if (mode == StabilizeMode::kFlip) {
      const Complex flipped =
          s_plane ? Complex(-sigma.real(), sigma.imag())
                  : Complex(-std::abs(sigma), 0.0);
      poles.push_back(flipped);
      residues.push_back(model.residues()[k]);
      ++rep.flipped;
    } else {
      // kDrop: delete the term but preserve the DC value by folding the
      // term's σ = 0 contribution, −R/σₖ, into the direct part.
      const CMat& r = model.residues()[k];
      for (Index i = 0; i < p; ++i)
        for (Index j = 0; j < p; ++j)
          direct(i, j) += (r(i, j) / (Complex(0.0, 0.0) - sigma)).real();
      ++rep.dropped;
    }
  }
  if (report != nullptr) *report = rep;
  return ModalModel(std::move(poles), std::move(residues), std::move(direct),
                    model.variable(), model.s_prefactor());
}

ModalModel enforce_residue_psd(const ModalModel& model, double tol) {
  const Index p = model.port_count();
  double scale = model.direct().max_abs();
  for (const auto& r : model.residues()) scale = std::max(scale, r.max_abs());
  const double abs_tol = tol * (scale + 1e-300);

  CVec poles = model.pencil_poles();
  std::vector<CMat> residues;
  for (size_t k = 0; k < poles.size(); ++k) {
    require(std::abs(poles[k].imag()) <= tol * (1.0 + std::abs(poles[k])),
            "enforce_residue_psd: complex pole; only real-pole models "
            "(RC-type) are supported");
    const CMat& rc = model.residues()[k];
    Mat r(p, p);
    for (Index i = 0; i < p; ++i)
      for (Index j = 0; j < p; ++j) {
        require(std::abs(rc(i, j).imag()) <= abs_tol,
                "enforce_residue_psd: complex residue entry");
        r(i, j) = rc(i, j).real();
      }
    // Symmetrize then clip negative eigenvalues.
    const SymmetricEig eig = eig_symmetric(symmetrized(std::move(r)));
    Mat clipped(p, p);
    for (Index m = 0; m < p; ++m) {
      const double lam = std::max(0.0, eig.values[static_cast<size_t>(m)]);
      if (lam == 0.0) continue;
      for (Index i = 0; i < p; ++i)
        for (Index j = 0; j < p; ++j)
          clipped(i, j) += lam * eig.vectors(i, m) * eig.vectors(j, m);
    }
    CMat out(p, p);
    for (Index i = 0; i < p; ++i)
      for (Index j = 0; j < p; ++j) out(i, j) = Complex(clipped(i, j), 0.0);
    residues.push_back(std::move(out));
  }
  return ModalModel(std::move(poles), std::move(residues), model.direct(),
                    model.variable(), model.s_prefactor());
}

}  // namespace sympvl
