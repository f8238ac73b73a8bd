#include "sim/sensitivity.hpp"

#include <cmath>

#include "linalg/factor_chain.hpp"

namespace sympvl {

SensitivityResult z_sensitivities(const Netlist& netlist, Complex s,
                                  Index port_row, Index port_col) {
  const MnaSystem sys = build_mna(netlist, MnaForm::kGeneral);
  const Index p = sys.port_count();
  require(0 <= port_row && port_row < p && 0 <= port_col && port_col < p,
          "z_sensitivities: port index out of range");
  const Index n = sys.size();
  const Index nn = sys.node_unknowns;

  // Factor the pencil once; solve for the two port columns (identical
  // when row == col — the reciprocity that makes the adjoint free).
  const FactorChainZ fact(pencil_combine(sys.G, sys.C, s));
  auto solve = [&](const Vec& b) {
    CVec bc(static_cast<size_t>(n));
    for (Index i = 0; i < n; ++i) bc[static_cast<size_t>(i)] = Complex(b[static_cast<size_t>(i)], 0.0);
    return fact.solve(bc);
  };
  const CVec xi = solve(sys.B.col(port_row));
  const CVec xj = (port_row == port_col) ? xi : solve(sys.B.col(port_col));

  // aᵀx for a two-terminal element between netlist nodes n1, n2.
  auto branch = [&](const CVec& x, Index n1, Index n2) {
    Complex v(0.0, 0.0);
    if (n1 >= 1) v += x[static_cast<size_t>(n1 - 1)];
    if (n2 >= 1) v -= x[static_cast<size_t>(n2 - 1)];
    return v;
  };

  SensitivityResult out;
  out.s = s;
  out.port_row = port_row;
  out.port_col = port_col;

  for (const auto& r : netlist.resistors()) {
    // dP/dR = −(1/R²)·aaᵀ  ⇒  dZ = +(1/R²)(aᵀxᵢ)(aᵀxⱼ).
    const Complex ai = branch(xi, r.n1, r.n2);
    const Complex aj = branch(xj, r.n1, r.n2);
    out.d_resistance.push_back(ai * aj / (r.resistance * r.resistance));
  }
  for (const auto& c : netlist.capacitors()) {
    // dP/dC = s·aaᵀ  ⇒  dZ = −s(aᵀxᵢ)(aᵀxⱼ).
    const Complex ai = branch(xi, c.n1, c.n2);
    const Complex aj = branch(xj, c.n1, c.n2);
    out.d_capacitance.push_back(-s * ai * aj);
  }
  const auto& inds = netlist.inductors();
  for (size_t e = 0; e < inds.size(); ++e) {
    // General form stores −L on the current-unknown diagonal:
    // dP/dL = −s·eₑeₑᵀ  ⇒  dZ = +s·xᵢ[nn+e]·xⱼ[nn+e]; in addition every
    // mutual M = k·√(L₁L₂) involving this inductor depends on L through
    // dM/dLₑ = M/(2Lₑ), contributing its off-diagonal term.
    const Complex ii = xi[static_cast<size_t>(nn) + e];
    const Complex ij = xj[static_cast<size_t>(nn) + e];
    Complex d = s * ii * ij;
    for (const auto& m : netlist.mutuals()) {
      if (m.l1 != static_cast<Index>(e) && m.l2 != static_cast<Index>(e))
        continue;
      const double mval =
          m.coupling * std::sqrt(inds[static_cast<size_t>(m.l1)].inductance *
                                 inds[static_cast<size_t>(m.l2)].inductance);
      const double dm_dl = mval / (2.0 * inds[e].inductance);
      const Complex cross =
          xi[static_cast<size_t>(nn + m.l1)] * xj[static_cast<size_t>(nn + m.l2)] +
          xi[static_cast<size_t>(nn + m.l2)] * xj[static_cast<size_t>(nn + m.l1)];
      d += s * dm_dl * cross;
    }
    out.d_inductance.push_back(d);
  }
  for (const auto& m : netlist.mutuals()) {
    // M = k·√(L₁L₂), stored as −M off-diagonal:
    // dP/dk = −s·√(L₁L₂)(e₁e₂ᵀ + e₂e₁ᵀ)
    //   ⇒ dZ = +s·√(L₁L₂)(xᵢ[l₁]xⱼ[l₂] + xᵢ[l₂]xⱼ[l₁]).
    const double root =
        std::sqrt(inds[static_cast<size_t>(m.l1)].inductance *
                  inds[static_cast<size_t>(m.l2)].inductance);
    const Complex term =
        xi[static_cast<size_t>(nn + m.l1)] * xj[static_cast<size_t>(nn + m.l2)] +
        xi[static_cast<size_t>(nn + m.l2)] * xj[static_cast<size_t>(nn + m.l1)];
    out.d_coupling.push_back(s * root * term);
  }
  return out;
}

}  // namespace sympvl
