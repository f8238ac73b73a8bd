#include "sim/ac.hpp"

#include <cmath>
#include <memory>

#include "linalg/factor_cache.hpp"
#include "linalg/factor_chain.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_lu.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// Solver for one pencil G + f(s)C, backed by the factorization fallback
// chain: the unpivoted complex-symmetric sparse LDLᵀ is the fast path;
// MNA pencils can hit exact structural zero pivots (e.g. a series R-L
// chain cancels the node conductance during elimination), in which case
// the partial-pivoting sparse LU rung takes over. The chain's acceptance
// gates are disabled here — tiny pivots near resonances are legitimate,
// and a per-point condition estimate would double the sweep cost.
class PencilSolver {
 public:
  explicit PencilSolver(const CSMat& pencil)
      : chain_(pencil, hot_path_options()) {
    note_fallback(pencil.rows());
  }
  PencilSolver(const CSMat& pencil,
               const std::shared_ptr<const LdltSymbolic>& symbolic)
      : chain_(pencil, symbolic, hot_path_options()) {
    note_fallback(pencil.rows());
  }
  CVec solve(const CVec& b) const { return chain_.solve(b); }
  // Multi-RHS solve: one blocked pass over the LDLᵀ factor for all
  // columns; the LU fallback solves column by column.
  CMat solve(const CMat& b) const { return chain_.solve(b); }
  std::int64_t bytes() const { return chain_.bytes(); }

 private:
  static FactorChainOptions hot_path_options() {
    FactorChainOptions opt;
    opt.zero_pivot_tol = 0.0;   // accept tiny pivots (resonances)
    opt.min_pivot_ratio = 0.0;  // no condition estimate per point
    opt.probe_refine_iters = 0; // no residual probe per point
    return opt;
  }
  void note_fallback(Index n) {
    if (chain_.used_fallback())
      obs::instant("ac.lu_fallback", {obs::arg("n", n)});
  }
  FactorChainZ chain_;
};

// Cacheable wrapper: the per-point PencilSolver behind the FactorCache's
// opaque complex-solver interface. Solves are const with call-local
// workspaces, so one cached instance may serve concurrent sweep threads.
class AcPointSolver final : public ComplexPencilSolver {
 public:
  explicit AcPointSolver(const CSMat& pencil) : solver_(pencil) {}
  AcPointSolver(const CSMat& pencil,
                const std::shared_ptr<const LdltSymbolic>& symbolic)
      : solver_(pencil, symbolic) {}
  CVec solve(const CVec& b) const override { return solver_.solve(b); }
  CMat solve(const CMat& b) const override { return solver_.solve(b); }
  std::int64_t bytes() const override { return solver_.bytes(); }

 private:
  PencilSolver solver_;
};

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
  const Complex fs = sys.map_s(s);
  const auto fact = FactorCache::global().acquire_complex(
      fingerprint_pencil(sys.G, sys.C), fs, [&] {
        return std::make_shared<const AcPointSolver>(
            pencil_combine(sys.G, sys.C, fs));
      });
  const CMat x = fact->solve(port_rhs(sys));
  CMat z = matmul_transA(sys.B, x);
  z *= sys.prefactor(s);
  return z;
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
  FactorCache* cache = nullptr;   // never null after construction
  PencilFingerprint fingerprint;  // of (G, C), computed once

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
  impl_->cache = cache != nullptr ? cache : &FactorCache::global();
  impl_->fingerprint = fingerprint_pencil(sys.G, sys.C);
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
  impl_->symbolic = std::make_shared<const LdltSymbolic>(pattern);
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
  // read-only symbolic analysis. The factorization itself is acquired
  // through the cache — revisited points (and purely real points already
  // factored by a reduction driver) skip the refactorization; cached
  // solvers are immutable, so sharing them across threads is safe.
  const Complex fs = sys.map_s(s);
  const auto fact = impl_->cache->acquire_complex(
      impl_->fingerprint, fs, [&] {
        return std::make_shared<const AcPointSolver>(impl_->assemble(fs),
                                                     impl_->symbolic);
      });
  const CMat x = fact->solve(impl_->b_complex);
  CMat z = matmul_transA(sys.B, x);
  z *= sys.prefactor(s);
  return z;
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
