// Exact frequency-domain (AC) analysis of assembled MNA systems.
//
// Provides the "exact analysis" reference curves of Figures 2-4: for each
// frequency point the complex symmetric pencil G + f(s)C is factored with
// the sparse LDLᵀ and solved against all p port columns, giving the full
// p×p Z(s) without any model reduction.
#pragma once

#include <memory>

#include "circuit/mna.hpp"
#include "linalg/dense.hpp"

namespace sympvl {

class FactorCache;

/// Exact physical Z(s) = s^prefactor · Bᵀ (G + f(s)C)⁻¹ B at one complex
/// frequency point.
CMat ac_z_matrix(const MnaSystem& sys, Complex s);

/// Voltage-to-voltage transfer H(s) = V_out / V_in when port `drive` is
/// driven by a current source and every other port is left open:
///   H = Z(out, drive) / Z(drive, drive).
/// This is how the paper's package plots (Figs 3, 4) are produced.
Complex voltage_transfer(const CMat& z, Index drive, Index out);

/// Logarithmically spaced frequency grid [f_min, f_max] with `count` points.
Vec log_frequency_grid(double f_min, double f_max, Index count);

/// Linearly spaced frequency grid.
Vec linear_frequency_grid(double f_min, double f_max, Index count);

/// Repeated-factorization AC engine, swept with sympvl::sweep(engine, …)
/// of sim/sweep_api.hpp. The union sparsity pattern of G + f(s)C is built
/// once per engine, and its LDLᵀ symbolic analysis (kDefaultOrdering,
/// elimination tree, fill pattern) once per pattern: the engine takes it
/// from the FactorCache, so it shares the analysis of a reduction (or of
/// another engine) of the same pattern. Each frequency point then costs
/// only a numeric refactorization — the standard way production circuit
/// simulators run AC sweeps. The engine also resolves the port rows
/// against that analysis once (their elimination-tree reach), so every
/// point solves back only to the port rows. Falls back to the pivoted
/// sparse LU at points where the unpivoted path hits a zero pivot.
///
/// `cache` (nullptr = the process-global FactorCache) is consulted once,
/// in the constructor, for the shared symbolic analysis. Point factors
/// are never cached: each z_at() factors its point and frees the factor
/// when it returns, so an engine keeps no factor resident.
class AcSweepEngine {
 public:
  explicit AcSweepEngine(const MnaSystem& sys, FactorCache* cache = nullptr);
  ~AcSweepEngine();
  AcSweepEngine(AcSweepEngine&&) noexcept;
  AcSweepEngine& operator=(AcSweepEngine&&) noexcept;
  AcSweepEngine(const AcSweepEngine&) = delete;
  AcSweepEngine& operator=(const AcSweepEngine&) = delete;

  /// Physical Z(s) at one complex frequency point. Thread-safe: every
  /// mutable buffer is local to the call.
  CMat z_at(Complex s) const;

  /// Unknowns and ports of the swept system.
  Index size() const;
  Index port_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sympvl
