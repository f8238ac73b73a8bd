// Reduced-order model produced by SyMPVL: the matrix-Padé approximant
//   Zₙ(s) = ρₙᵀ Δₙ (I + σ'Tₙ)⁻¹ ρₙ,  σ' = f(s) − s₀   (eq. 19 + eq. 26)
// together with evaluation, pole/stability analysis, moment expansion,
// time-domain simulation (eq. 23), and direct MNA stamping (Section 6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "mor/lanczos.hpp"
#include "mor/pole_residue.hpp"
#include "sim/transient.hpp"

namespace sympvl {

/// A reduced-order p-port model of order n.
class ReducedModel {
 public:
  ReducedModel() = default;

  /// Builds a model from Lanczos output. `variable`/`s_prefactor` mirror
  /// the MnaSystem the model was reduced from; `s0` is the frequency shift
  /// of eq. (26) applied in the pencil variable. When Δₙ⁻¹ is positive
  /// definite and TₙΔₙ⁻¹ symmetric (J = I: the RC, RL and LC classes of
  /// Section 5) the constructor also builds the pole–residue form of the
  /// pencil (Δₙ⁻¹, TₙΔₙ⁻¹, ρₙ) that eval() and poles() then use.
  ReducedModel(const LanczosResult& lanczos, SVariable variable,
               int s_prefactor, double s0);

  /// Serializes the model (full double precision, versioned text format) —
  /// reduced models are deliverable artifacts independent of the circuit
  /// they came from.
  std::string to_text() const;
  static ReducedModel from_text(const std::string& text);
  void save(const std::string& path) const;
  static ReducedModel load(const std::string& path);

  Index order() const { return lanczos_.t.rows(); }
  Index port_count() const { return lanczos_.rho.cols(); }
  double shift() const { return s0_; }
  SVariable variable() const { return variable_; }
  int s_prefactor() const { return s_prefactor_; }

  const Mat& t() const { return lanczos_.t; }
  const Mat& delta() const { return lanczos_.delta; }
  const Mat& rho() const { return lanczos_.rho; }
  const LanczosResult& lanczos() const { return lanczos_; }

  /// The pole–residue form eval() and poles() use, or nullptr when the
  /// model evaluates through the dense LU (indefinite or singular Δₙ, or
  /// a TₙΔₙ⁻¹ that is not symmetric to 1e-12 relative).
  const PoleResidueForm* pole_residue() const {
    return form_ ? &*form_ : nullptr;
  }

  /// Evaluates the physical Zₙ(s) at a complex frequency point: through
  /// the pole–residue form when there is one, else by solving
  /// (I + σTₙ)X = ρₙ with a dense complex LU. Throws when s is a pole.
  CMat eval(Complex s) const;

  /// Poles of Zₙ in the physical s-plane. In the pencil variable the poles
  /// are σ = s₀ − 1/λ(Tₙ) (Section 5), real when the pole–residue form
  /// exists; the LC form maps back through s = ±√σ. Eigenvalues with
  /// |λ| ≤ 1e-13·max|λ| are poles at infinity and are omitted.
  CVec poles() const;

  /// True when every pole satisfies Re(s) ≤ tol (Section 5.1).
  bool is_stable(double tol = 1e-9) const;

  /// Heap bytes the model holds: Tₙ, Δₙ, ρₙ, the cluster structure and
  /// the pole–residue form.
  std::int64_t bytes() const;

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
  // The reduced pencil of eq. (23) as computed: Gr = Δ⁻¹ and Cr = TΔ⁻¹.
  // Cr is symmetric in exact arithmetic (ΔT is); the transient and
  // stamping paths symmetrize it.
  struct Pencil {
    Mat gr, cr;
  };
  Pencil pencil() const;

  SVariable variable_ = SVariable::kS;
  int s_prefactor_ = 0;
  double s0_ = 0.0;
  LanczosResult lanczos_;  // Tₙ, Δₙ, ρₙ
  std::optional<PoleResidueForm> form_;
};

}  // namespace sympvl
