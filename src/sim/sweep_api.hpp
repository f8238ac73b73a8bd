// The frequency-sweep entry point: sympvl::sweep(target, grid, options)
// over every sweepable object — the exact AcSweepEngine (or an MnaSystem,
// which stands one up), SyMPVL's ReducedModel, the pole/residue
// ModalModel, congruence ArnoldiModels, and the facade's MacroModel. All
// overloads take the same arguments and return the same SweepResult with
// per-point fault containment: a failed point yields a NaN matrix and a
// structured error record while the others complete unaffected.
#pragma once

#include "circuit/mna.hpp"
#include "mor/postprocess.hpp"
#include "mor/reduce.hpp"
#include "mor/reduced_model.hpp"
#include "sim/ac.hpp"
#include "sim/sweep.hpp"

namespace sympvl {

/// Behavior knobs shared by every sweep target.
struct SweepOptions {
  /// Throw Error(kSweepPointFailed) describing the first failed point
  /// instead of returning a partially-healthy SweepResult (the old
  /// all-or-nothing contract).
  bool throw_on_failure = false;
};

/// Validates a sweep grid with coded errors: throws
/// Error(ErrorCode::kInvalidArgument, stage "sweep.validate") when a
/// frequency is non-finite or negative. Shared by every sweep() overload
/// below and by the serving daemon, which maps the coded error onto a
/// machine-readable response instead of dying.
void validate(const Vec& frequencies_hz);

/// Exact AC sweep through an existing engine (symbolic analysis already
/// amortized across calls), traced as one "ac.sweep" span.
SweepResult sweep(const AcSweepEngine& engine, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Reduced-model sweep: evaluates Zₙ(j·2πf) per grid point, traced as
/// one "model.sweep" span.
SweepResult sweep(const ReducedModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Modal (pole/residue) sweep.
SweepResult sweep(const ModalModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// One-shot exact sweep: builds an AcSweepEngine over `sys` and sweeps.
/// Keep an engine yourself when sweeping the same system repeatedly: it
/// builds the pencil pattern and fetches the symbolic analysis once (from
/// the FactorCache its constructor takes). Every point is factored per
/// call either way.
SweepResult sweep(const MnaSystem& sys, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Congruence-model sweep (Arnoldi baselines, multipoint/rational
/// models, and the stitched models of the port-sharding layer):
/// evaluates Z_r(j·2πf) per point with the same containment.
SweepResult sweep(const ArnoldiModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

/// Facade sweep: whatever concrete model reduce() produced. Throws
/// kInvalidArgument on an empty MacroModel.
SweepResult sweep(const MacroModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options = {});

}  // namespace sympvl
