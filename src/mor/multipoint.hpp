// Multipoint SyMPVL: per-expansion-point models plus a stitched
// wideband macromodel sharing one set of cached factorizations.
//
// A single-point Padé approximant is excellent near its expansion point
// s₀ and degrades away from it (Section 7's plots); a wideband sweep
// spanning several decades needs expansion points spread across the
// band. MultipointSession runs SyMPVL at user-supplied expansion points
// — or places them adaptively by bisecting at the worst validated
// frequency — producing one local model per point (the per-band view,
// routed by model_index_for), and stitches the points into a single
// wideband model by congruence-projecting the pencil onto the UNION of
// the per-point Krylov spaces (rational_reduce). The union model matches
// moments at every expansion point simultaneously, so at equal total
// order it covers the band at least as well as the best single-point
// model once a single shift can no longer span it — the property eval()
// and sweep(session.stitched(), grid) rely on.
//
// Both layers consume the same factorizations: each expansion point is
// factored once through the shared FactorCache and reused by its SyMPVL
// session, the union-basis projection and any adaptive rebuild revisiting
// the point (the report counts these pencil factorizations and hits).
// The exact validation grid is swept once per session, before the first
// pass, and every refinement pass compares against that one sweep; its
// per-point factors are never cached.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/mna.hpp"
#include "mor/arnoldi.hpp"
#include "mor/sympvl.hpp"

namespace sympvl {

struct MultipointOptions {
  /// Total reduced order, split evenly across the expansion points (each
  /// session gets max(1, total_order / points)).
  Index total_order = 24;
  /// Expansion points in the pencil variable σ (≥ 0). Empty = adaptive:
  /// start at the band's midpoint shift and bisect at the worst validated
  /// frequency until `target_error`, `max_points` or a duplicate point.
  Vec s0_points;
  /// Frequency band [f_min, f_max] in Hz the stitched model targets; also
  /// the validation band of the adaptive mode.
  double f_min = 0.0;
  double f_max = 0.0;
  /// Adaptive mode: maximum number of expansion points.
  Index max_points = 4;
  /// Validation grid size (log-spaced over the band).
  Index validation_points = 25;
  /// Adaptive mode stops once the validated max relative error on the
  /// grid drops to this.
  double target_error = 1e-3;
  /// Per-session SyMPVL options (order/s0 are overridden per point).
  /// base.factor_cache is shared across the sessions, the union-basis
  /// projection and the validation engine's symbolic analysis (nullptr =
  /// the process-global FactorCache).
  SympvlOptions base;
};

struct MultipointReport {
  /// Expansion points actually used, in placement order (pencil variable).
  Vec points;
  /// Achieved order of each per-point session (same indexing).
  std::vector<Index> orders;
  /// Order of the stitched union-basis wideband model (≤ total_order
  /// whenever total_order ≥ points · ports; deflation only shrinks it).
  Index stitched_order = 0;
  /// Pencil factorizations performed while building (cache-stats delta;
  /// the validation sweep's AC point factors are not counted).
  std::uint64_t factorizations = 0;
  /// Pencil-factor cache hits observed while building (the union-basis
  /// projection and refinement passes revisiting a point land here).
  std::uint64_t cache_hits = 0;
  /// Max relative error on the final validation grid (0 when the band was
  /// never validated).
  double max_rel_error = 0.0;
  /// Per-point SyMPVL diagnostics.
  std::vector<SympvlReport> session_reports;
};

/// Wideband macromodel stitched from per-expansion-point SyMPVL models.
class MultipointSession {
 public:
  MultipointSession(const MnaSystem& sys, const MultipointOptions& options);
  ~MultipointSession();
  MultipointSession(MultipointSession&&) noexcept;
  MultipointSession& operator=(MultipointSession&&) noexcept;
  MultipointSession(const MultipointSession&) = delete;
  MultipointSession& operator=(const MultipointSession&) = delete;

  /// Z(s) of the stitched union-basis wideband model.
  CMat eval(Complex s) const;

  /// Number of expansion points in use.
  Index point_count() const;

  /// The per-point SyMPVL models, in placement order (the narrow-band
  /// view; each is most accurate near its own expansion point).
  const std::vector<ReducedModel>& models() const;

  /// The stitched union-basis wideband model eval() answers with; sweep
  /// it with sympvl::sweep(session.stitched(), grid).
  const ArnoldiModel& stitched() const;

  /// Index of the per-point model covering frequency point s (the
  /// nearest expansion point on the log-σ scale).
  Index model_index_for(Complex s) const;

  const MultipointReport& report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sympvl
