// Reduced-order model produced by SyMPVL: the matrix-Padé approximant
//   Zₙ(s) = ρₙᵀ Δₙ (I + σ'Tₙ)⁻¹ ρₙ,  σ' = f(s) − s₀   (eq. 19 + eq. 26)
// together with evaluation, pole/stability analysis, moment expansion,
// time-domain simulation (eq. 23), and direct MNA stamping (Section 6).
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "mor/lanczos.hpp"
#include "sim/transient.hpp"

namespace sympvl {

/// A reduced-order p-port model of order n.
class ReducedModel {
 public:
  ReducedModel() = default;

  /// Builds a model from Lanczos output. `variable`/`s_prefactor` mirror
  /// the MnaSystem the model was reduced from; `s0` is the frequency shift
  /// of eq. (26) applied in the pencil variable.
  ReducedModel(const LanczosResult& lanczos, SVariable variable,
               int s_prefactor, double s0);

  /// Serializes the model (full double precision, versioned text format) —
  /// reduced models are deliverable artifacts independent of the circuit
  /// they came from.
  std::string to_text() const;
  static ReducedModel from_text(const std::string& text);
  void save(const std::string& path) const;
  static ReducedModel load(const std::string& path);

  Index order() const { return t_.rows(); }
  Index port_count() const { return rho_.cols(); }
  double shift() const { return s0_; }
  SVariable variable() const { return variable_; }
  int s_prefactor() const { return s_prefactor_; }

  const Mat& t() const { return t_; }
  const Mat& delta() const { return delta_; }
  const Mat& rho() const { return rho_; }
  const LanczosResult& lanczos() const { return lanczos_; }

  /// Evaluates the physical Zₙ(s) at a complex frequency point.
  CMat eval(Complex s) const;

  /// Poles of Zₙ in the physical s-plane. In the pencil variable the poles
  /// are σ = s₀ − 1/λ(Tₙ) (Section 5); the LC form maps back through
  /// s = ±√σ. Eigenvalues λ = 0 correspond to poles at infinity and are
  /// omitted.
  CVec poles() const;

  /// True when every pole satisfies Re(s) ≤ tol (Section 5.1).
  bool is_stable(double tol = 1e-9) const;

  /// kth moment μₖ = ρₙᵀΔₙTₙᵏρₙ of the expansion
  /// Ẑ(σ₀+σ') = Σₖ (−σ')ᵏ μₖ; matches the exact moments of moments.hpp for
  /// k < q(n) (Section 3.2).
  Mat moment(Index k) const;

  /// Time-domain simulation of the reduced system (eq. 23),
  ///   Δₙ⁻¹x + TₙΔₙ⁻¹ẋ = ρₙ·i(t),  v = ρₙᵀx,
  /// driven by port current waveforms; returns port voltages. Requires the
  /// prefactor-free s-domain form (RC or general RLC) and zero shift.
  TransientResult simulate_transient(const std::vector<Waveform>& port_currents,
                                     const TransientOptions& options) const;

  /// Section 6, "stamped directly into the Jacobian": augments the host
  /// circuit's general-form MNA with the reduced model attached at
  /// `attach_nodes` (one circuit node per reduced port, datum allowed as 0
  /// only through the host side). The host's own .port definitions remain
  /// the observation ports of the returned system. The augmented pencil is
  /// symmetric by construction.
  MnaSystem stamp_into(const Netlist& host,
                       const std::vector<Index>& attach_nodes) const;

 private:
  Mat t_, delta_, rho_;
  Mat delta_inv_;     // cached Δ⁻¹
  Mat t_delta_inv_;   // cached TΔ⁻¹ (symmetric)
  SVariable variable_ = SVariable::kS;
  int s_prefactor_ = 0;
  double s0_ = 0.0;
  LanczosResult lanczos_;
};

}  // namespace sympvl
