#include "circuit/mna.hpp"

#include <cmath>

#include "linalg/dense_factor.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// Stamps value·a·aᵀ for a two-terminal element between nodes n1, n2 where
// a = e(n1) − e(n2) in reduced node space (datum dropped, node k → k−1).
void stamp_two_terminal(TripletBuilder<double>& t, Index n1, Index n2,
                        double value) {
  const Index i = n1 - 1;
  const Index j = n2 - 1;
  if (i >= 0) t.add(i, i, value);
  if (j >= 0) t.add(j, j, value);
  if (i >= 0 && j >= 0) {
    t.add(i, j, -value);
    t.add(j, i, -value);
  }
}

// B column for a port: e(n1) − e(n2) in reduced node space.
void set_port_column(Mat& b, Index col, Index n1, Index n2) {
  if (n1 >= 1) b(n1 - 1, col) = 1.0;
  if (n2 >= 1) b(n2 - 1, col) = -1.0;
}

// Stamps A_lᵀ ℒ⁻¹ A_l into the builder: Σ_ij (ℒ⁻¹)_ij a_i a_jᵀ with
// a_i = e(n1_i) − e(n2_i).
void stamp_inverse_inductance(TripletBuilder<double>& t, const Netlist& nl,
                              const Mat& linv) {
  const auto& inds = nl.inductors();
  const Index m = static_cast<Index>(inds.size());
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) {
      const double v = linv(i, j);
      if (v == 0.0) continue;
      const Index a1 = inds[static_cast<size_t>(i)].n1 - 1;
      const Index a2 = inds[static_cast<size_t>(i)].n2 - 1;
      const Index b1 = inds[static_cast<size_t>(j)].n1 - 1;
      const Index b2 = inds[static_cast<size_t>(j)].n2 - 1;
      // (a_i a_jᵀ) has +v at (a1,b1),(a2,b2) and −v at (a1,b2),(a2,b1).
      if (a1 >= 0 && b1 >= 0) t.add(a1, b1, v);
      if (a2 >= 0 && b2 >= 0) t.add(a2, b2, v);
      if (a1 >= 0 && b2 >= 0) t.add(a1, b2, -v);
      if (a2 >= 0 && b1 >= 0) t.add(a2, b1, -v);
    }
  }
}

MnaSystem build_general(const Netlist& nl) {
  const Index nn = nl.node_count() - 1;
  const Index nl_count = static_cast<Index>(nl.inductors().size());
  const Index n = nn + nl_count;
  MnaSystem sys;
  sys.node_unknowns = nn;
  sys.inductor_unknowns = nl_count;
  sys.variable = SVariable::kS;
  sys.s_prefactor = 0;
  sys.definite = false;

  TripletBuilder<double> g(n, n);
  TripletBuilder<double> c(n, n);
  for (const auto& r : nl.resistors())
    stamp_two_terminal(g, r.n1, r.n2, 1.0 / r.resistance);
  for (const auto& cap : nl.capacitors())
    stamp_two_terminal(c, cap.n1, cap.n2, cap.capacitance);
  // Inductor branch rows: A_lᵀ in the node block, −ℒ in the current block.
  const auto& inds = nl.inductors();
  for (Index k = 0; k < nl_count; ++k) {
    const Index i1 = inds[static_cast<size_t>(k)].n1 - 1;
    const Index i2 = inds[static_cast<size_t>(k)].n2 - 1;
    if (i1 >= 0) g.add_symmetric(i1, nn + k, 1.0);
    if (i2 >= 0) g.add_symmetric(i2, nn + k, -1.0);
    c.add(nn + k, nn + k, -inds[static_cast<size_t>(k)].inductance);
  }
  for (const auto& m : nl.mutuals()) {
    const double mv = m.coupling *
                      std::sqrt(inds[static_cast<size_t>(m.l1)].inductance *
                                inds[static_cast<size_t>(m.l2)].inductance);
    c.add(nn + m.l1, nn + m.l2, -mv);
    c.add(nn + m.l2, nn + m.l1, -mv);
  }
  sys.G = g.compress();
  sys.C = c.compress();

  sys.B.resize(n, nl.port_count());
  for (Index p = 0; p < nl.port_count(); ++p) {
    const auto& port = nl.ports()[static_cast<size_t>(p)];
    set_port_column(sys.B, p, port.n1, port.n2);
    sys.port_names.push_back(port.name);
  }
  return sys;
}

MnaSystem build_rc(const Netlist& nl) {
  require(!nl.has_inductors(), "build_mna(kRC): circuit contains inductors");
  const Index nn = nl.node_count() - 1;
  MnaSystem sys;
  sys.node_unknowns = nn;
  sys.variable = SVariable::kS;
  sys.s_prefactor = 0;
  sys.definite = true;

  TripletBuilder<double> g(nn, nn);
  TripletBuilder<double> c(nn, nn);
  for (const auto& r : nl.resistors())
    stamp_two_terminal(g, r.n1, r.n2, 1.0 / r.resistance);
  for (const auto& cap : nl.capacitors())
    stamp_two_terminal(c, cap.n1, cap.n2, cap.capacitance);
  sys.G = g.compress();
  sys.C = c.compress();

  sys.B.resize(nn, nl.port_count());
  for (Index p = 0; p < nl.port_count(); ++p) {
    const auto& port = nl.ports()[static_cast<size_t>(p)];
    set_port_column(sys.B, p, port.n1, port.n2);
    sys.port_names.push_back(port.name);
  }
  return sys;
}

MnaSystem build_rl(const Netlist& nl) {
  require(!nl.has_capacitors(), "build_mna(kRL): circuit contains capacitors");
  require(nl.has_inductors(), "build_mna(kRL): no inductors present");
  const Index nn = nl.node_count() - 1;
  MnaSystem sys;
  sys.node_unknowns = nn;
  sys.variable = SVariable::kS;
  sys.s_prefactor = 1;  // eq. (8): Z(s) = s·Ẑ(s)
  sys.definite = true;

  const Mat lmat = inductance_matrix(nl);
  const Mat linv = dense_solve(lmat, Mat::identity(lmat.rows()));
  TripletBuilder<double> g(nn, nn);
  stamp_inverse_inductance(g, nl, linv);
  TripletBuilder<double> c(nn, nn);
  for (const auto& r : nl.resistors())
    stamp_two_terminal(c, r.n1, r.n2, 1.0 / r.resistance);
  sys.G = g.compress();
  sys.C = c.compress();

  sys.B.resize(nn, nl.port_count());
  for (Index p = 0; p < nl.port_count(); ++p) {
    const auto& port = nl.ports()[static_cast<size_t>(p)];
    set_port_column(sys.B, p, port.n1, port.n2);
    sys.port_names.push_back(port.name);
  }
  return sys;
}

MnaSystem build_lc(const Netlist& nl) {
  require(!nl.has_resistors(), "build_mna(kLC): circuit contains resistors");
  require(nl.has_inductors(), "build_mna(kLC): no inductors present");
  const Index nn = nl.node_count() - 1;
  MnaSystem sys;
  sys.node_unknowns = nn;
  sys.variable = SVariable::kSSquared;
  sys.s_prefactor = 1;  // eq. (9): Z(s) = s·Ẑ(s²)
  sys.definite = true;

  const Mat lmat = inductance_matrix(nl);
  const Mat linv = dense_solve(lmat, Mat::identity(lmat.rows()));
  TripletBuilder<double> g(nn, nn);
  stamp_inverse_inductance(g, nl, linv);
  TripletBuilder<double> c(nn, nn);
  for (const auto& cap : nl.capacitors())
    stamp_two_terminal(c, cap.n1, cap.n2, cap.capacitance);
  sys.G = g.compress();
  sys.C = c.compress();

  sys.B.resize(nn, nl.port_count());
  for (Index p = 0; p < nl.port_count(); ++p) {
    const auto& port = nl.ports()[static_cast<size_t>(p)];
    set_port_column(sys.B, p, port.n1, port.n2);
    sys.port_names.push_back(port.name);
  }
  return sys;
}

}  // namespace

Mat inductance_matrix(const Netlist& nl) {
  const auto& inds = nl.inductors();
  const Index m = static_cast<Index>(inds.size());
  Mat l(m, m);
  for (Index k = 0; k < m; ++k) l(k, k) = inds[static_cast<size_t>(k)].inductance;
  for (const auto& mu : nl.mutuals()) {
    const double mv = mu.coupling *
                      std::sqrt(inds[static_cast<size_t>(mu.l1)].inductance *
                                inds[static_cast<size_t>(mu.l2)].inductance);
    l(mu.l1, mu.l2) += mv;
    l(mu.l2, mu.l1) += mv;
  }
  // Positive definiteness check (physical inductance matrices are SPD);
  // DenseCholesky throws otherwise.
  if (m > 0) DenseCholesky check(l);
  return l;
}

Mat source_incidence(const Netlist& nl) {
  const Index nn = nl.node_count() - 1;
  const Index n = nn + static_cast<Index>(nl.inductors().size());
  Mat b(n, static_cast<Index>(nl.current_sources().size()));
  for (Index j = 0; j < static_cast<Index>(nl.current_sources().size()); ++j) {
    const auto& s = nl.current_sources()[static_cast<size_t>(j)];
    set_port_column(b, j, s.n1, s.n2);
  }
  return b;
}

namespace {

MnaSystem build_form(const Netlist& netlist, MnaForm form) {
  if (form == MnaForm::kAuto) {
    if (netlist.is_lc() && netlist.has_inductors()) return build_lc(netlist);
    if (netlist.is_rc()) return build_rc(netlist);
    if (netlist.is_rl()) return build_rl(netlist);
    return build_general(netlist);
  }
  switch (form) {
    case MnaForm::kGeneral:
      return build_general(netlist);
    case MnaForm::kRC:
      return build_rc(netlist);
    case MnaForm::kRL:
      return build_rl(netlist);
    case MnaForm::kLC:
      return build_lc(netlist);
    default:
      throw Error(ErrorCode::kInvalidArgument, "build_mna: unknown form",
                  {.stage = "mna"});
  }
}

}  // namespace

MnaSystem build_mna(const Netlist& netlist, MnaForm form) {
  obs::ScopedTimer span("circuit.mna");
  netlist.validate();
  require(netlist.node_count() > 1, "build_mna: circuit has no non-datum nodes");
  require(netlist.port_count() > 0 || form == MnaForm::kGeneral,
          "build_mna: circuit has no ports");
  MnaSystem sys = build_form(netlist, form);
  span.arg("n", sys.size());
  span.arg("nnz", sys.G.nnz() + sys.C.nnz());
  return sys;
}

}  // namespace sympvl
