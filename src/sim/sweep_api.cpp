#include "sim/sweep_api.hpp"

#include <cmath>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "fault.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {

namespace {

// The containment harness of every sweep: evaluates `eval(s)` at
// s = j·2πf for every grid point through parallel_for. A point that throws
// becomes a p×p NaN matrix plus a structured error record; a whole-chunk
// failure (including an injected "parallel.chunk" fault) marks only the
// points that chunk never reached. Healthy points are computed by exactly
// the same operation sequence as an all-healthy sweep, so they stay
// bit-identical whether or not neighbors fail.
template <typename Eval>
SweepResult run_contained_sweep(const Vec& frequencies_hz, Index p,
                                Eval&& eval) {
  const Index count = static_cast<Index>(frequencies_hz.size());
  SweepResult res;
  res.frequencies = frequencies_hz;
  res.values.assign(static_cast<size_t>(count), CMat());
  res.point_status.assign(static_cast<size_t>(count), PointStatus::kFailed);
  std::vector<ErrorCode> codes(static_cast<size_t>(count), ErrorCode::kUnknown);
  std::vector<std::string> messages(static_cast<size_t>(count));
  std::vector<char> done(static_cast<size_t>(count), 0);
  // Per-point slots only — no shared mutable state, so recording a
  // failure is race-free under the static partition.
  auto record = [&](Index k, ErrorCode code, const std::string& message) {
    codes[static_cast<size_t>(k)] = code;
    messages[static_cast<size_t>(k)] = message;
    res.values[static_cast<size_t>(k)] = nan_matrix(p, p);
    done[static_cast<size_t>(k)] = 1;
  };
  try {
    parallel_for(Index(0), count, [&](Index k) {
      try {
        fault::check("sweep.point", k);
        res.values[static_cast<size_t>(k)] = eval(Complex(
            0.0, 2.0 * M_PI * frequencies_hz[static_cast<size_t>(k)]));
        res.point_status[static_cast<size_t>(k)] = PointStatus::kOk;
        done[static_cast<size_t>(k)] = 1;
      } catch (const Error& err) {
        record(k, err.code(), err.what());
      } catch (const std::exception& ex) {
        record(k, ErrorCode::kUnknown, ex.what());
      }
    });
  } catch (const Error& err) {
    // A chunk died outside the per-point guard; only the points it never
    // reached are still pending — flag those with the chunk's error.
    for (Index k = 0; k < count; ++k)
      if (!done[static_cast<size_t>(k)]) record(k, err.code(), err.what());
  }
  for (Index k = 0; k < count; ++k) {
    if (res.point_status[static_cast<size_t>(k)] == PointStatus::kOk) continue;
    res.errors.push_back({k, frequencies_hz[static_cast<size_t>(k)],
                          codes[static_cast<size_t>(k)],
                          messages[static_cast<size_t>(k)]});
  }
  return res;
}

// Applies the all-or-nothing contract when requested.
SweepResult finish(SweepResult res, const SweepOptions& options) {
  if (options.throw_on_failure && !res.all_ok()) throw sweep_failure(res);
  return res;
}

// The exact sweep behind both engine overloads (grid already validated).
// Frequency points are independent; the static partition of the harness
// keeps the result bit-identical to the serial sweep (each point is
// computed by exactly the same sequence of operations regardless of
// thread count).
SweepResult engine_sweep(const AcSweepEngine& engine,
                         const Vec& frequencies_hz) {
  obs::ScopedTimer span("ac.sweep");
  span.arg("points", static_cast<Index>(frequencies_hz.size()));
  span.arg("threads", num_threads());
  span.arg("mna_size", engine.system().size());
  SweepResult res =
      run_contained_sweep(frequencies_hz, engine.system().port_count(),
                          [&](Complex s) { return engine.z_at(s); });
  span.arg("failed_points", res.failed_count());
  return res;
}

}  // namespace

void validate(const Vec& frequencies_hz) {
  for (size_t k = 0; k < frequencies_hz.size(); ++k) {
    const double f = frequencies_hz[k];
    if (!std::isfinite(f) || f < 0.0)
      throw Error(ErrorCode::kInvalidArgument,
                  "sweep grid: frequency must be finite and >= 0 Hz",
                  {.stage = "sweep.validate", .index = static_cast<Index>(k),
                   .value = f});
  }
}

SweepResult sweep(const AcSweepEngine& engine, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(frequencies_hz);
  return finish(engine_sweep(engine, frequencies_hz), options);
}

SweepResult sweep(const ReducedModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(frequencies_hz);
  SweepResult res;
  {
    obs::ScopedTimer span("model.sweep");
    span.arg("points", static_cast<Index>(frequencies_hz.size()));
    span.arg("order", model.order());
    span.arg("threads", num_threads());
    res = run_contained_sweep(frequencies_hz, model.port_count(),
                              [&](Complex s) { return model.eval(s); });
    span.arg("failed_points", res.failed_count());
  }
  return finish(std::move(res), options);
}

SweepResult sweep(const ModalModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(frequencies_hz);
  return finish(run_contained_sweep(frequencies_hz, model.port_count(),
                                    [&](Complex s) { return model.eval(s); }),
                options);
}

SweepResult sweep(const MnaSystem& sys, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(frequencies_hz);
  const AcSweepEngine engine(sys);
  return finish(engine_sweep(engine, frequencies_hz), options);
}

SweepResult sweep(const ArnoldiModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  validate(frequencies_hz);
  return finish(run_contained_sweep(frequencies_hz, model.port_count(),
                                    [&](Complex s) { return model.eval(s); }),
                options);
}

SweepResult sweep(const MacroModel& model, const Vec& frequencies_hz,
                  const SweepOptions& options) {
  require(!model.empty(), ErrorCode::kInvalidArgument,
          "sweep: empty MacroModel", ErrorContext{.stage = "sweep"});
  validate(frequencies_hz);
  // Dispatch to the typed overloads so each model keeps its native sweep
  // path (ReducedModel's "model.sweep" span included).
  if (const ReducedModel* m = model.as_reduced())
    return sweep(*m, frequencies_hz, options);
  if (const ArnoldiModel* m = model.as_arnoldi())
    return sweep(*m, frequencies_hz, options);
  const PvlModel* m = model.as_pvl();
  return finish(run_contained_sweep(frequencies_hz, 1,
                                    [&](Complex s) {
                                      CMat z(1, 1);
                                      z(0, 0) = m->eval(s);
                                      return z;
                                    }),
                options);
}

}  // namespace sympvl
