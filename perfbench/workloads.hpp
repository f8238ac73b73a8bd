// Workload-level declarations shared by pipeline.cpp and serve.cpp: the
// model specification of an RC-grid workload, one end-to-end pipeline
// sample, and the per-layer probes every traced run calls.
#pragma once

#include <string>

#include "common.hpp"
#include "sympvl.hpp"

namespace perfbench {

/// A seeded RC-grid model: mesh, ports, reduction and check settings.
struct ModelSpec {
  long rows = 0, cols = 0, ports = 0;
  int order = 0;
  int shards = 1;          ///< > 1 selects sharded_sympvl
  double f_lo = 1e6;       ///< 64-point log sweep band [Hz]
  double f_hi = 1e9;
  double f_check = 1e7;    ///< in-band exact spot-check frequency [Hz]
  double err_tol = 1e-4;   ///< rom_err limit at f_check
  double moment0_tol = 1e-8;
  /// A run makes clamp(seconds / iter_budget_s, 3, max_iters) iterations:
  /// a count fixed by --seconds, so the memory metrics never depend on
  /// how fast the host ran.
  double iter_budget_s = 5.0;
  int max_iters = 3;           ///< memory cap on iterations per run
  int check_every = 1;         ///< exact AC check on iterations 0, k, 2k, …
};

/// One netlist → ROM → sweep (→ check) pass.
struct PipelineSample {
  double model_s = 0.0, sweep_s = 0.0, check_s = 0.0;
  std::vector<double> sweep_samples;  ///< every timed repetition of the ROM sweep
  double rom_err = 0.0;
  std::int64_t peak_rss_after_model = 0;  ///< process VmHWM once the ROM exists
  sympvl::SympvlReport report;
  sympvl::PortShardReport shard;
};

sympvl::ReduceOptions reduce_options(const ModelSpec& spec);
/// The same options as a daemon request's "options" object.
std::string reduce_options_json(const ModelSpec& spec);

/// Parses, assembles, reduces and sweeps `text`, and with `exact_check`
/// checks the ROM against an exact AC solve, counting every check in
/// `out`. Spans go to `tracer` when it is enabled.
PipelineSample run_pipeline_once(const ModelSpec& spec, const std::string& text,
                                 int iteration, bool exact_check, Tracer& tracer,
                                 Outcome& out);

/// Times each pipeline layer's public entry point on `text` and adds the
/// per-layer metrics of the circuit, linalg and mor layers. `e2e` is a
/// traced end-to-end sample of the same spec (shift, report fields).
void probe_pipeline_layers(const ModelSpec& spec, const std::string& text,
                           const PipelineSample& e2e, int iteration,
                           Tracer& tracer, Outcome& out);

/// Times the serving layers in process on a Daemon with the serve_mixed
/// warm ROMs: parse_request, Daemon::handle per op, and the unix-socket
/// round trip minus handle(). With `burst`, also drives one second of
/// the serve_mixed mix at it and adds the registry, batcher, generator
/// and per-request memory metrics.
void probe_serve_layers(const Args& args, bool burst, Tracer& tracer, Outcome& out);

/// Host and build record: nproc, library threads, SIMD level, compiler,
/// build type (a non-Release build fails the run).
void host_notes(Outcome& out);

/// Adds trace.overhead_frac (span cost × spans recorded ÷ model_s) and
/// writes the spans under args.run_dir.
void finish_trace(const Args& args, const Tracer& tracer, double model_s,
                  Outcome& out);

}  // namespace perfbench
