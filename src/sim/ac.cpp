#include "sim/ac.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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

// Z(s) = s^prefactor · Bᵀ·pencil⁻¹·B for the pencil value G + f(s)C at
// one AC point (`scale` = s^prefactor), factored for this call only by
// the two-rung FactorChain: unpivoted complex-symmetric LDLᵀ, then the
// pivoted sparse LU at a structural zero pivot, e.g. where a series R-L
// chain cancels the node conductance during elimination.
//
// The ports are solved kPortPanel columns at a time, so the complex
// right-hand side and solution blocks are N × kPortPanel, not N × p.
// Several panels run in parallel, one serial solve per worker: on a
// 256-port, 16k-unknown pencil that took the solves from 0.45 s (one
// block, tree levels fanned out) to 0.20 s at 2 threads and 0.14–0.18 s
// at 4. A single panel (p ≤ kPortPanel) runs serially on the caller:
// fanning its tree levels out at 2 threads did not pay on a 16-port,
// 147k-unknown grid (the whole exact point took 0.87 s fanned out
// against 0.82 s serial, medians of 10 alternating runs). Every
// column's solve and every entry's Bᵀ·X sum run the same operations
// either way, so Z keeps its bits. The Bᵀ·X sum walks each port's
// incidence rows in ascending order from zero, skipping B's zeros —
// the operations of the dense matmul_transA(B, X).
CMat exact_z(const SMat& ports, Complex scale, const CSMat& pencil,
             std::shared_ptr<const LdltSymbolic> symbolic) {
  const FactorChainZ chain(pencil, std::move(symbolic));
  if (chain.used_fallback())
    obs::instant("ac.lu_fallback", {obs::arg("n", pencil.rows())});
  const Index n = ports.rows();
  const Index p = ports.cols();
  const auto& colptr = ports.colptr();
  const auto& rowind = ports.rowind();
  const auto& bval = ports.values();
  CMat z(p, p);
  const auto solve_panel = [&](Index k) {
    const Index c0 = k * kPortPanel;
    const Index w = std::min(kPortPanel, p - c0);
    CMat b(n, w);
    for (Index c = 0; c < w; ++c)
      for (Index q = colptr[static_cast<size_t>(c0 + c)];
           q < colptr[static_cast<size_t>(c0 + c) + 1]; ++q)
        b(rowind[static_cast<size_t>(q)], c) =
            Complex(bval[static_cast<size_t>(q)], 0.0);
    const CMat x = chain.solve(b);
    for (Index a = 0; a < p; ++a) {
      Complex* zrow = z.data() + a * p + c0;
      for (Index q = colptr[static_cast<size_t>(a)];
           q < colptr[static_cast<size_t>(a) + 1]; ++q) {
        const double bq = bval[static_cast<size_t>(q)];
        const Complex* xrow = x.data() + rowind[static_cast<size_t>(q)] * w;
        for (Index c = 0; c < w; ++c) zrow[c] += bq * xrow[c];
      }
    }
  };
  parallel_for(Index(0), (p + kPortPanel - 1) / kPortPanel, solve_panel);
  z *= scale;
  return z;
}

}  // namespace

CMat ac_z_matrix(const MnaSystem& sys, Complex s) {
  require(sys.port_count() > 0, "ac_z_matrix: system has no ports");
  return exact_z(port_incidence(sys.B), sys.prefactor(s),
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
  // in the union pattern by the slot maps, the port incidence, and the
  // Laplace-variable map (`form`: the system's variable and prefactor,
  // without its matrices).
  Index n = 0;
  MnaSystem form;
  Vec g_values, c_values;
  SMat ports;
  // Union pattern of G and C (template CSMat whose values get rewritten
  // per frequency) and slot maps from each G/C entry into that pattern.
  std::vector<Index> pat_colptr, pat_rowind;
  std::vector<Index> g_slot, c_slot;
  std::shared_ptr<const LdltSymbolic> symbolic;

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
  return exact_z(e.ports, e.form.prefactor(s), e.assemble(e.form.map_s(s)),
                 e.symbolic);
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
