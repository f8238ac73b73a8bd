#include "sim/ac.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/factor_cache.hpp"
#include "linalg/factor_chain.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {

namespace {

// Port columns per solve panel of exact_z.
constexpr Index kPortPanel = 64;

// Port incidence B as an N×p sparse matrix: column a holds port a's
// nonzero rows, ascending. Only B's nonzeros reach the builder: its add()
// costs far more than the zero test, and B is almost all zeros.
SMat port_incidence(const Mat& b) {
  TripletBuilder<double> t(b.rows(), b.cols());
  for (Index i = 0; i < b.rows(); ++i)
    for (Index a = 0; a < b.cols(); ++a)
      if (b(i, a) != 0.0) t.add(i, a, b(i, a));
  return t.compress();
}

// The port incidence split into its kPortPanel-column panels, each an
// N×w matrix of its own.
std::vector<SMat> port_panels(const SMat& ports) {
  const auto& colptr = ports.colptr();
  std::vector<SMat> panels;
  for (Index c0 = 0; c0 < ports.cols(); c0 += kPortPanel) {
    const Index w = std::min(kPortPanel, ports.cols() - c0);
    const auto q0 = static_cast<std::ptrdiff_t>(colptr[static_cast<size_t>(c0)]);
    const auto q1 = static_cast<std::ptrdiff_t>(colptr[static_cast<size_t>(c0 + w)]);
    std::vector<Index> cp(static_cast<size_t>(w) + 1);
    for (Index c = 0; c <= w; ++c)
      cp[static_cast<size_t>(c)] =
          colptr[static_cast<size_t>(c0 + c)] - colptr[static_cast<size_t>(c0)];
    SMat panel(ports.rows(), w);
    panel.set_raw(std::move(cp),
                  std::vector<Index>(ports.rowind().begin() + q0,
                                     ports.rowind().begin() + q1),
                  Vec(ports.values().begin() + q0, ports.values().begin() + q1));
    panels.push_back(std::move(panel));
  }
  return panels;
}

// Z(s) = s^prefactor · Bᵀ·pencil⁻¹·B for the pencil value G + f(s)C at
// one AC point (`scale` = s^prefactor), factored for this call only by
// the two-rung FactorChain: unpivoted complex-symmetric LDLᵀ, then the
// pivoted sparse LU at a structural zero pivot, e.g. where a series R-L
// chain cancels the node conductance during elimination.
//
// Z reads X only at B's nonzero rows, so each panel of kPortPanel port
// columns goes through the row-restricted solve: B's entries go straight
// into the solve's permuted N × kPortPanel workspace, its forward sweep
// visits only the supernodes the panel's port rows reach, and its
// diagonal and backward phases only the ancestors of all port rows
// (`reach`, whose rows are B's row indices in CSC order, so result row q
// belongs to B's entry q). On the seed-1 benchmark pencils that is about
// 35 % of the panel entries forward and 72 % backward on the 256-port
// 16k-unknown grid, and 29 % on the 16-port 147k-unknown grid. Several
// panels run in parallel, one serial solve per worker; a single panel
// (p ≤ kPortPanel) runs on the caller. The `panels` of B and the reach
// come from the caller (the engine keeps both), so a worker allocates
// only its solve's workspace and result block. Every entry keeps the
// bits of the full solve, and the Bᵀ·X sum walks each port's incidence
// rows in ascending order from zero — the operations of the dense
// matmul_transA(B, X) — so Z keeps its bits. `reach` null: resolve the
// port rows against the analysis the chain made.
CMat exact_z(const SMat& ports, const std::vector<SMat>& panels,
             const LdltRowReach* reach, Complex scale, const CSMat& pencil,
             std::shared_ptr<const LdltSymbolic> symbolic) {
  const FactorChainZ chain(pencil, std::move(symbolic));
  if (chain.used_fallback())
    obs::instant("ac.lu_fallback", {obs::arg("n", pencil.rows())});
  const LdltRowReach own =
      reach == nullptr ? chain.row_reach(ports.rowind()) : LdltRowReach{};
  if (reach == nullptr) reach = &own;
  const Index p = ports.cols();
  const auto& colptr = ports.colptr();
  const auto& bval = ports.values();
  CMat z(p, p);
  const auto solve_panel = [&](Index k) {
    const Index c0 = k * kPortPanel;
    const Index w = panels[static_cast<size_t>(k)].cols();
    const CMat x = chain.solve_rows(panels[static_cast<size_t>(k)], *reach);
    for (Index a = 0; a < p; ++a) {
      Complex* zrow = z.data() + a * p + c0;
      for (Index q = colptr[static_cast<size_t>(a)];
           q < colptr[static_cast<size_t>(a) + 1]; ++q) {
        const double bq = bval[static_cast<size_t>(q)];
        const Complex* xrow = x.data() + q * w;
        for (Index c = 0; c < w; ++c) zrow[c] += bq * xrow[c];
      }
    }
  };
  parallel_for(Index(0), static_cast<Index>(panels.size()), solve_panel);
  z *= scale;
  return z;
}

}  // namespace

CMat ac_z_matrix(const MnaSystem& sys, Complex s) {
  require(sys.port_count() > 0, "ac_z_matrix: system has no ports");
  const SMat ports = port_incidence(sys.B);
  return exact_z(ports, port_panels(ports), nullptr, sys.prefactor(s),
                 pencil_combine(sys.G, sys.C, sys.map_s(s)), nullptr);
}

Complex voltage_transfer(const CMat& z, Index drive, Index out) {
  require(0 <= drive && drive < z.rows() && 0 <= out && out < z.rows(),
          "voltage_transfer: port index out of range");
  const Complex zdd = z(drive, drive);
  require(std::abs(zdd) > 0.0, "voltage_transfer: drive port impedance is zero");
  return z(out, drive) / zdd;
}

Vec log_frequency_grid(double f_min, double f_max, Index count) {
  require(f_min > 0.0 && f_max > f_min && count >= 2,
          "log_frequency_grid: invalid range");
  Vec f(static_cast<size_t>(count));
  const double l0 = std::log10(f_min);
  const double l1 = std::log10(f_max);
  for (Index k = 0; k < count; ++k)
    f[static_cast<size_t>(k)] =
        std::pow(10.0, l0 + (l1 - l0) * static_cast<double>(k) /
                                static_cast<double>(count - 1));
  return f;
}

// ---- AcSweepEngine ---------------------------------------------------------

struct AcSweepEngine::Impl {
  // Only what z_at reads of the swept system: G's and C's values, placed
  // in the union pattern by the slot maps, the port incidence and its
  // solve panels, and the
  // Laplace-variable map (`form`: the system's variable and prefactor,
  // without its matrices).
  Index n = 0;
  MnaSystem form;
  Vec g_values, c_values;
  SMat ports;
  std::vector<SMat> panels;
  // Union pattern of G and C (template CSMat whose values get rewritten
  // per frequency) and slot maps from each G/C entry into that pattern.
  std::vector<Index> pat_colptr, pat_rowind;
  std::vector<Index> g_slot, c_slot;
  std::shared_ptr<const LdltSymbolic> symbolic;
  // The port rows resolved against `symbolic` once, for every point.
  LdltRowReach reach;

  CSMat assemble(Complex fs) const {
    CVec values(pat_rowind.size(), Complex(0.0, 0.0));
    for (size_t k = 0; k < g_values.size(); ++k)
      values[static_cast<size_t>(g_slot[k])] += Complex(g_values[k], 0.0);
    for (size_t k = 0; k < c_values.size(); ++k)
      values[static_cast<size_t>(c_slot[k])] += fs * c_values[k];
    CSMat pencil(n, n);
    pencil.set_raw(pat_colptr, pat_rowind, std::move(values));
    return pencil;
  }
};

AcSweepEngine::AcSweepEngine(const MnaSystem& sys, FactorCache* cache)
    : impl_(std::make_unique<Impl>()) {
  require(sys.port_count() > 0, "AcSweepEngine: system has no ports");
  const Index n = sys.size();
  impl_->n = n;
  impl_->form.variable = sys.variable;
  impl_->form.s_prefactor = sys.s_prefactor;
  impl_->g_values = sys.G.values();
  impl_->c_values = sys.C.values();
  impl_->ports = port_incidence(sys.B);
  impl_->panels = port_panels(impl_->ports);
  // Union pattern of G and C: each column's ascending G and C rows merged
  // once, every G and C entry's slot in the union written in the same pass.
  const auto& gp = sys.G.colptr();
  const auto& gr = sys.G.rowind();
  const auto& cp = sys.C.colptr();
  const auto& cr = sys.C.rowind();
  std::vector<Index>& pat_colptr = impl_->pat_colptr;
  std::vector<Index>& pat_rowind = impl_->pat_rowind;
  pat_colptr.assign(static_cast<size_t>(n) + 1, 0);
  pat_rowind.reserve(gr.size() + cr.size());
  impl_->g_slot.resize(gr.size());
  impl_->c_slot.resize(cr.size());
  for (Index j = 0; j < n; ++j) {
    size_t a = static_cast<size_t>(gp[static_cast<size_t>(j)]);
    size_t b = static_cast<size_t>(cp[static_cast<size_t>(j)]);
    const size_t ae = static_cast<size_t>(gp[static_cast<size_t>(j) + 1]);
    const size_t be = static_cast<size_t>(cp[static_cast<size_t>(j) + 1]);
    const size_t col_begin = pat_rowind.size();
    while (a < ae || b < be) {
      const Index r = (b == be || (a < ae && gr[a] <= cr[b])) ? gr[a] : cr[b];
      require(pat_rowind.size() == col_begin || r > pat_rowind.back(),
              "AcSweepEngine: G or C rows not ascending within a column");
      const Index slot = static_cast<Index>(pat_rowind.size());
      pat_rowind.push_back(r);
      for (; a < ae && gr[a] == r; ++a) impl_->g_slot[a] = slot;
      for (; b < be && cr[b] == r; ++b) impl_->c_slot[b] = slot;
    }
    pat_colptr[static_cast<size_t>(j) + 1] = static_cast<Index>(pat_rowind.size());
  }
  SMat pattern(n, n);
  pattern.set_raw(pat_colptr, pat_rowind, Vec(pat_rowind.size(), 1.0));
  // A reduction of this system whose pencil has this pattern (G + s₀C
  // without cancellation, or G itself when C's pattern lies inside G's)
  // has analyzed it already: share that analysis.
  impl_->symbolic = (cache != nullptr ? *cache : FactorCache::global())
                        .symbolic(pattern, kDefaultOrdering);
  impl_->reach = impl_->symbolic->row_reach(impl_->ports.rowind());
}

AcSweepEngine::~AcSweepEngine() = default;
AcSweepEngine::AcSweepEngine(AcSweepEngine&&) noexcept = default;
AcSweepEngine& AcSweepEngine::operator=(AcSweepEngine&&) noexcept = default;

CMat AcSweepEngine::z_at(Complex s) const {
  obs::ScopedTimer span("ac.z_at");
  span.arg("im_s", s.imag());
  // Numeric-only LDLᵀ with the shared symbolic; pivoted LU as fallback.
  // Everything mutable (pencil values, factor, solution block) is local to
  // this call, which is what makes a parallel sweep thread-safe: each
  // thread refactorizes its own frequency points against the shared
  // read-only symbolic analysis, and the factor is freed on return.
  const Impl& e = *impl_;
  return exact_z(e.ports, e.panels, &e.reach, e.form.prefactor(s),
                 e.assemble(e.form.map_s(s)), e.symbolic);
}

Index AcSweepEngine::size() const { return impl_->n; }

Index AcSweepEngine::port_count() const { return impl_->ports.cols(); }

Vec linear_frequency_grid(double f_min, double f_max, Index count) {
  require(f_max > f_min && count >= 2, "linear_frequency_grid: invalid range");
  Vec f(static_cast<size_t>(count));
  for (Index k = 0; k < count; ++k)
    f[static_cast<size_t>(k)] =
        f_min + (f_max - f_min) * static_cast<double>(k) /
                    static_cast<double>(count - 1);
  return f;
}

}  // namespace sympvl
