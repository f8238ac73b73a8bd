#include "sim/ac.hpp"

#include <cmath>
#include <memory>

#include "linalg/factor_cache.hpp"
#include "linalg/factor_chain.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// Z(s) = s^prefactor · Bᵀ·pencil⁻¹·b for the pencil value G + f(s)C at
// one AC point (b is B as a complex block), factored for this call only
// by the two-rung FactorChain: unpivoted complex-symmetric LDLᵀ, then the
// pivoted sparse LU at a structural zero pivot, e.g. where a series R-L
// chain cancels the node conductance during elimination.
CMat exact_z(const MnaSystem& sys, Complex s, const CSMat& pencil,
             std::shared_ptr<const LdltSymbolic> symbolic, const CMat& b) {
  const FactorChainZ chain(pencil, std::move(symbolic));
  if (chain.used_fallback())
    obs::instant("ac.lu_fallback", {obs::arg("n", pencil.rows())});
  CMat z = matmul_transA(sys.B, chain.solve(b));
  z *= sys.prefactor(s);
  return z;
}

// Complex copy of the real port incidence B (the multi-RHS block).
CMat port_rhs(const MnaSystem& sys) {
  const Index n = sys.size();
  const Index p = sys.port_count();
  CMat b(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) b(i, j) = Complex(sys.B(i, j), 0.0);
  return b;
}

}  // namespace

CMat ac_z_matrix(const MnaSystem& sys, Complex s) {
  require(sys.port_count() > 0, "ac_z_matrix: system has no ports");
  return exact_z(sys, s, pencil_combine(sys.G, sys.C, sys.map_s(s)), nullptr,
                 port_rhs(sys));
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
  MnaSystem sys;  // copied: the engine must not dangle
  // Union pattern of G and C (template CSMat whose values get rewritten
  // per frequency) and slot maps from each G/C entry into that pattern.
  std::vector<Index> pat_colptr, pat_rowind;
  std::vector<Index> g_slot, c_slot;
  std::shared_ptr<const LdltSymbolic> symbolic;
  CMat b_complex;  // complex copy of B, the shared multi-RHS block

  CSMat assemble(Complex fs) const {
    CVec values(pat_rowind.size(), Complex(0.0, 0.0));
    const auto& gv = sys.G.values();
    for (size_t k = 0; k < gv.size(); ++k)
      values[static_cast<size_t>(g_slot[k])] += Complex(gv[k], 0.0);
    const auto& cv = sys.C.values();
    for (size_t k = 0; k < cv.size(); ++k)
      values[static_cast<size_t>(c_slot[k])] += fs * cv[k];
    CSMat pencil(sys.size(), sys.size());
    pencil.set_raw(pat_colptr, pat_rowind, std::move(values));
    return pencil;
  }
};

AcSweepEngine::AcSweepEngine(const MnaSystem& sys, FactorCache* cache)
    : impl_(std::make_unique<Impl>()) {
  require(sys.port_count() > 0, "AcSweepEngine: system has no ports");
  impl_->sys = sys;
  // Union pattern: all G entries plus all C entries (unit weights so no
  // accidental cancellation drops an entry).
  const Index n = sys.size();
  TripletBuilder<double> t(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index k = sys.G.colptr()[static_cast<size_t>(j)];
         k < sys.G.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(sys.G.rowind()[static_cast<size_t>(k)], j, 1.0);
    for (Index k = sys.C.colptr()[static_cast<size_t>(j)];
         k < sys.C.colptr()[static_cast<size_t>(j) + 1]; ++k)
      t.add(sys.C.rowind()[static_cast<size_t>(k)], j, 1.0);
  }
  const SMat pattern = t.compress();
  impl_->pat_colptr = pattern.colptr();
  impl_->pat_rowind = pattern.rowind();
  // Slot maps.
  auto build_slots = [&](const SMat& m, std::vector<Index>& slots) {
    slots.resize(static_cast<size_t>(m.nnz()));
    Index idx = 0;
    for (Index j = 0; j < n; ++j)
      for (Index k = m.colptr()[static_cast<size_t>(j)];
           k < m.colptr()[static_cast<size_t>(j) + 1]; ++k) {
        const Index slot = pattern.find(m.rowind()[static_cast<size_t>(k)], j);
        require(slot >= 0, "AcSweepEngine: pattern construction failed");
        slots[static_cast<size_t>(idx++)] = slot;
      }
  };
  build_slots(sys.G, impl_->g_slot);
  build_slots(sys.C, impl_->c_slot);
  // A reduction of this system whose pencil has this pattern (G + s₀C
  // without cancellation, or G itself when C's pattern lies inside G's)
  // has analyzed it already: share that analysis.
  impl_->symbolic = (cache != nullptr ? *cache : FactorCache::global())
                        .symbolic(pattern, kDefaultOrdering);
  impl_->b_complex = port_rhs(sys);
}

AcSweepEngine::~AcSweepEngine() = default;
AcSweepEngine::AcSweepEngine(AcSweepEngine&&) noexcept = default;
AcSweepEngine& AcSweepEngine::operator=(AcSweepEngine&&) noexcept = default;

CMat AcSweepEngine::z_at(Complex s) const {
  obs::ScopedTimer span("ac.z_at");
  span.arg("im_s", s.imag());
  const MnaSystem& sys = impl_->sys;
  // Numeric-only LDLᵀ with the shared symbolic; pivoted LU as fallback.
  // Everything mutable (pencil values, factor, solution block) is local to
  // this call, which is what makes a parallel sweep thread-safe: each
  // thread refactorizes its own frequency points against the shared
  // read-only symbolic analysis, and the factor is freed on return.
  return exact_z(sys, s, impl_->assemble(sys.map_s(s)), impl_->symbolic,
                 impl_->b_complex);
}

const MnaSystem& AcSweepEngine::system() const { return impl_->sys; }

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
