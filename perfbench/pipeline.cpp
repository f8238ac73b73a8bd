// grid_147k and manyport_256: netlist text → ROM → 64-point ROM sweep →
// exact AC spot check, through the public library API, one distinct
// seeded netlist per iteration. The traced run also times each layer's
// public entry point on a further fresh netlist (probe_pipeline_layers).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "linalg/factor_cache.hpp"
#include "mor/pencil.hpp"
#include "obs/histogram.hpp"
#include "netgen.hpp"
#include "parallel/thread_pool.hpp"
#include "sympvl.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sympvl;

namespace {

ModelSpec grid_spec() {
  ModelSpec s;
  s.rows = s.cols = 384;
  s.ports = 16;
  s.order = 32;
  // FactorCache retains ~1.1 GB per exact check and ~0.2 GB per model.
  s.iter_budget_s = 5.5;
  s.max_iters = 8;
  s.check_every = 3;
  return s;
}

ModelSpec manyport_spec() {
  ModelSpec s;
  s.rows = s.cols = 128;
  s.ports = 256;
  s.order = 256;
  s.shards = 8;
  s.iter_budget_s = 6.5;
  s.max_iters = 12;
  return s;
}

/// ‖Zr − Z‖max / ‖Z‖max.
double rel_err(const CMat& zr, const CMat& z) {
  double diff = 0.0, scale = 0.0;
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j) {
      diff = std::max(diff, std::abs(zr(i, j) - z(i, j)));
      scale = std::max(scale, std::abs(z(i, j)));
    }
  return diff / std::max(scale, 1e-300);
}

bool all_finite(const CMat& m) {
  for (Index i = 0; i < m.rows(); ++i)
    for (Index j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j).real()) || !std::isfinite(m(i, j).imag()))
        return false;
  return true;
}

bool sweep_healthy(const SweepResult& sw, std::size_t points) {
  if (sw.size() != points || !sw.all_ok()) return false;
  for (const CMat& m : sw.values)
    if (!all_finite(m)) return false;
  return true;
}

/// Columns `cols` of `b`.
Mat select_columns(const Mat& b, const std::vector<Index>& cols) {
  Mat out(b.rows(), static_cast<Index>(cols.size()));
  for (Index i = 0; i < b.rows(); ++i)
    for (std::size_t k = 0; k < cols.size(); ++k)
      out(i, static_cast<Index>(k)) = b(i, cols[k]);
  return out;
}

}  // namespace

ReduceOptions reduce_options(const ModelSpec& spec) {
  ReduceOptions opt;
  opt.order = spec.order;
  opt.ordering = Ordering::kNestedDissection;
  if (spec.shards > 1) {
    opt.method = ReduceMethod::kShardedSympvl;
    opt.shard.shards = spec.shards;
  }
  return opt;
}

std::string reduce_options_json(const ModelSpec& spec) {
  std::string json = "{\"order\": " + std::to_string(spec.order) +
                     ", \"ordering\": \"nested_dissection\"";
  if (spec.shards > 1)
    json += ", \"method\": \"sharded_sympvl\", \"shards\": " +
            std::to_string(spec.shards);
  return json + "}";
}

PipelineSample run_pipeline_once(const ModelSpec& spec, const std::string& text,
                                 int iteration, bool exact_check, Tracer& tracer,
                                 Outcome& out) {
  PipelineSample s;
  const std::string tag = format("iteration %d", iteration);
  const int top = tracer.begin("pipeline", iteration);
  Netlist netlist;
  MnaSystem sys;
  ReduceResult r;
  const Index threads = num_threads();
  set_num_threads(1);
  s.model_s = tracer.time("model", iteration, [&] {
    tracer.time("circuit.parse", iteration, [&] { netlist = parse_netlist(text); });
    tracer.time("circuit.mna", iteration, [&] { sys = build_mna(netlist); });
    tracer.time("mor.reduce", iteration, [&] { r = reduce(sys, reduce_options(spec)); });
  });
  set_num_threads(threads);
  s.peak_rss_after_model = proc_status_bytes(0, "VmHWM");
  out.check(r.ok() && r.status == ReductionStatus::kOk,
            tag + ": reduce() status not ok");
  out.check(r.report.moment0_residual <= spec.moment0_tol,
            format("%s: moment0_residual %.3g > %.3g", tag.c_str(),
                   r.report.moment0_residual, spec.moment0_tol));
  if (!r.ok()) {
    tracer.end(top);
    return s;
  }
  s.report = r.report;
  s.shard = r.shard;

  const Vec freqs = log_frequency_grid(spec.f_lo, spec.f_hi, 64);
  // A cheap sweep (a few ms on grid_147k) is repeated until 0.25 s or 25
  // repetitions have run; every repetition is a sample.
  SweepResult sw;
  double spent = 0.0;
  do {
    s.sweep_samples.push_back(
        tracer.time("rom.sweep", iteration, [&] { sw = sweep(r.model, freqs); }));
    spent += s.sweep_samples.back();
  } while (s.sweep_samples.size() < 25 && spent < 0.25);
  s.sweep_s = median(s.sweep_samples);
  out.check(sweep_healthy(sw, freqs.size()),
            tag + ": ROM sweep has a failed or non-finite point");

  if (exact_check) {
    const Complex s_check(0.0, 2.0 * M_PI * spec.f_check);
    CMat z;
    s.check_s = tracer.time("ac.check", iteration, [&] {
      AcSweepEngine engine(sys);
      z = engine.z_at(s_check);
    });
    s.rom_err = rel_err(r.model.eval(s_check), z);
    out.check(all_finite(z) && s.rom_err <= spec.err_tol,
              format("%s: rom_err %.3g > %.3g", tag.c_str(), s.rom_err, spec.err_tol));
  }
  tracer.end(top);
  return s;
}

void probe_pipeline_layers(const ModelSpec& spec, const std::string& text,
                           const PipelineSample& e2e, int iteration,
                           Tracer& tr, Outcome& out) {
  const int it = iteration;
  Netlist netlist;
  MnaSystem sys;
  const double parse_s =
      tr.time("circuit.parse", it, [&] { netlist = parse_netlist(text); });
  const double mna_s = tr.time("circuit.mna", it, [&] { sys = build_mna(netlist); });
  out.add("circuit.parse_s", parse_s, "s");
  out.add("circuit.mna_s", mna_s, "s");

  // Ordering, symbolic and numeric LDLᵀ of the pencil the reduction
  // factors (s₀ as resolved by the end-to-end run).
  const SMat a = assemble_pencil(sys.G, sys.C, e2e.report.s0_used);
  std::vector<Index> perm;
  const double nd_s = tr.time("ordering.nd", it, [&] {
    perm = make_ordering(a, Ordering::kNestedDissection);
  });
  const SymbolicStats stats = symbolic_stats(a, perm);
  std::shared_ptr<const LdltSymbolic> symbolic;
  const double symbolic_with_nd_s = tr.time("sparse_ldlt.symbolic", it, [&] {
    symbolic = std::make_shared<const LdltSymbolic>(a, Ordering::kNestedDissection);
  });
  std::unique_ptr<SparseLDLT<double>> ldlt;
  const double numeric_s = tr.time("sparse_ldlt.numeric", it, [&] {
    ldlt = std::make_unique<SparseLDLT<double>>(a, symbolic, 1e-12);
  });
  const Index threads = num_threads();
  set_num_threads(1);
  const double numeric_1t_s = tr.time("sparse_ldlt.numeric_1t", it, [&] {
    SparseLDLT<double> one(a, symbolic, 1e-12);
  });
  set_num_threads(threads);
  out.add("ordering.nd_s", nd_s, "s");
  out.add("ordering.fill_nnz", static_cast<double>(stats.fill), "count");
  out.add("ordering.etree_height", static_cast<double>(stats.etree_height), "count");
  // LdltSymbolic(a, ND) runs the ordering itself; its time minus the
  // separately timed ordering is the symbolic analysis proper.
  out.add("sparse_ldlt.symbolic_s", std::max(0.0, symbolic_with_nd_s - nd_s), "s");
  out.add("sparse_ldlt.numeric_s", numeric_s, "s");
  out.add("sparse_ldlt.numeric_1t_s", numeric_1t_s, "s");
  out.add("sparse_ldlt.gflops", ldlt->flops() / std::max(numeric_s, 1e-12) * 1e-9,
          "GFLOP/s");
  out.add("sparse_ldlt.factor_bytes", static_cast<double>(ldlt->factor_bytes()), "B");
  ldlt.reset();
  symbolic.reset();

  // The pencil layer through the shared cache and recovery ladder, then
  // the Krylov stages on the factor it returns.
  PencilFactorRequest req;
  req.s0 = e2e.report.s0_used;
  req.ordering = Ordering::kNestedDissection;
  req.full_ladder = true;
  req.allow_dense = true;
  req.driver = "perfbench";
  req.rhs_width = spec.shards > 1 ? spec.ports / spec.shards : spec.ports;
  PencilFactorResult pf;
  const double factor_s = tr.time("pencil.factor", it, [&] { pf = factor_pencil(sys, req); });
  const FactorizedPencil& pencil = *pf.pencil;
  out.add("pencil.factor_s", factor_s, "s");

  Vec v(static_cast<std::size_t>(sys.size()));
  Rng rng(spec.ports);
  for (double& x : v) x = rng.uniform() - 0.5;
  Vec w;
  std::vector<double> apply_samples;
  for (int k = 0; k < 5; ++k)
    apply_samples.push_back(tr.time("pencil.apply", it, [&] { w = pencil.apply(v); }));
  out.add("pencil.apply_s", median(apply_samples), "s");

  // Sharded reductions run Lanczos per shard on that shard's columns at
  // order/shards; the monolithic path runs it once on all ports.
  std::vector<std::vector<Index>> groups;
  double partition_s = 0.0;
  if (spec.shards > 1) {
    std::vector<Index> owner;
    partition_s = tr.time("port_shard.partition", it, [&] {
      owner = partition_ports(sys, spec.shards, ShardClustering::kAuto);
    });
    groups.assign(static_cast<std::size_t>(spec.shards), {});
    for (std::size_t j = 0; j < owner.size(); ++j)
      groups[static_cast<std::size_t>(owner[j])].push_back(static_cast<Index>(j));
  } else {
    groups.push_back({});
    for (Index j = 0; j < sys.port_count(); ++j) groups[0].push_back(j);
  }
  const Index shard_order = spec.order / static_cast<Index>(groups.size());
  double start_s = 0.0, lanczos_s = 0.0, lanczos_1t_s = 0.0;
  std::vector<double> step_p50;
  for (const auto& cols : groups) {
    if (cols.empty()) continue;
    Mat start;
    start_s += tr.time("pencil.start_block", it, [&] {
      start = starting_block(pencil, select_columns(sys.B, cols));
    });
    LanczosOptions lo;
    lo.max_order = shard_order;
    lanczos_s += tr.time("lanczos", it, [&] {
      BandLanczos process(pencil, start, pencil.j_signs(), lo);
      process.run_to(shard_order);
      (void)process.result();
      step_p50.push_back(obs::latency_stats(process.step_bins()).p50);
    });
    set_num_threads(1);
    lanczos_1t_s += tr.time("lanczos_1t", it, [&] {
      band_lanczos(pencil, start, pencil.j_signs(), lo);
    });
    set_num_threads(threads);
  }
  out.add("pencil.start_block_s", start_s, "s");
  out.add("lanczos.s", lanczos_s, "s");
  out.add("lanczos.s_1t", lanczos_1t_s, "s");
  // The report's step digest when the reduction filled it (the sharded
  // path leaves it empty); otherwise this probe's own process.
  out.add("lanczos.step_p50_s",
          e2e.report.lanczos_step_stats.count > 0 ? e2e.report.lanczos_step_stats.p50
                                                  : median(step_p50),
          "s");
  out.add("lanczos.deflations", static_cast<double>(e2e.report.deflations), "count");
  out.add("lanczos.krylov_peak_bytes",
          static_cast<double>(e2e.report.krylov_peak_bytes), "B");
  out.add("port_shard.partition_s", partition_s, "s");
  out.add("port_shard.shards_s", e2e.shard.reduce_seconds, "s");
  out.add("port_shard.stitch_s", e2e.shard.stitch_seconds, "s");
  out.add("port_shard.stitch_bytes", static_cast<double>(e2e.shard.stitch_bytes), "B");

  // ROM evaluation and the exact AC engine.
  const ReduceResult r = reduce(sys, reduce_options(spec));
  const Complex s_check(0.0, 2.0 * M_PI * spec.f_check);
  std::vector<double> eval_samples;
  for (int k = 0; k < 5; ++k)
    eval_samples.push_back(tr.time("rom.eval_point", it, [&] { (void)r.model.eval(s_check); }));
  out.add("rom.eval_point_s", median(eval_samples), "s");
  std::unique_ptr<AcSweepEngine> engine;
  const double engine_s = tr.time("ac.engine", it, [&] {
    engine = std::make_unique<AcSweepEngine>(sys);
  });
  const double point_s = tr.time("ac.point", it, [&] { (void)engine->z_at(s_check); });
  out.add("ac.engine_s", engine_s, "s");
  out.add("ac.point_s", point_s, "s");

  const FactorCacheStats cache = FactorCache::global().stats();
  out.add("factor_cache.entries", static_cast<double>(FactorCache::global().size()), "count");
  out.add("factor_cache.hits", static_cast<double>(cache.hits), "count");
  out.add("factor_cache.misses", static_cast<double>(cache.misses), "count");

  // How much of the end-to-end model_s the layer calls account for, and
  // how the outside timings compare with the report's own stage clocks.
  const double layers = spec.shards > 1
      ? parse_s + mna_s + partition_s + e2e.report.factor_seconds +
            e2e.shard.reduce_seconds + e2e.shard.stitch_seconds
      : parse_s + mna_s + factor_s + start_s + lanczos_s;
  out.add("trace.model_coverage_frac", layers / e2e.model_s, "1");
  auto disagreement = [](double outside, double report) {
    return std::abs(outside - report) / std::max(report, 1e-12);
  };
  const double d_factor = disagreement(factor_s, e2e.report.factor_seconds);
  const double d_start = disagreement(start_s, e2e.report.start_block_seconds);
  const double d_lanczos = disagreement(lanczos_s, e2e.report.lanczos_seconds);
  out.note(format("xcheck factor outside=%.4fs report=%.4fs  start_block outside=%.4fs "
                  "report=%.4fs  lanczos outside=%.4fs report=%.4fs",
                  factor_s, e2e.report.factor_seconds, start_s,
                  e2e.report.start_block_seconds, lanczos_s,
                  e2e.report.lanczos_seconds));
  out.add("xcheck.max_disagreement_frac",
          std::max({d_factor, d_start, d_lanczos}), "1");
}

Outcome run_pipeline_workload(const Args& args) {
  const ModelSpec spec = args.workload == "grid_147k" ? grid_spec() : manyport_spec();
  // Sweeps and exact checks fan out over half the host's cores; model
  // builds run single-threaded (run_pipeline_once). On a shared VM every
  // level-set barrier of a build waits for whichever worker the
  // hypervisor has descheduled: at 2 threads, runs under 6-9 % steal read
  // grid model_s 50 % higher.
  set_num_threads(std::max<Index>(1, static_cast<Index>(std::thread::hardware_concurrency() / 2)));
  Outcome out;
  host_notes(out);
  out.note(format("workload %s: %ldx%ld RC grid, %ld ports, order %d, %s, "
                  "ND ordering, check at %.3g Hz",
                  args.workload.c_str(), spec.rows, spec.cols, spec.ports, spec.order,
                  spec.shards > 1 ? format("sharded_sympvl x%d", spec.shards).c_str()
                                  : "sympvl",
                  spec.f_check));

  // Set-up: generate the first input and push a small 16-port grid
  // through the same pipeline path (thread pool, lazy dispatch, sharding
  // when the workload shards). Repeated seven times; the median is
  // setup_s.
  ModelSpec warm = spec;
  warm.rows = warm.cols = 24;
  warm.ports = 16;
  warm.order = 32;
  warm.shards = spec.shards > 1 ? 2 : 1;
  std::vector<double> setup_samples;
  std::string text;
  Tracer quiet(false);
  for (int k = 0; k < 7; ++k) {
    const Clock::time_point t0 = Clock::now();
    text = rc_grid_netlist(spec.rows, spec.cols, spec.ports, mix_seed(args.seed, 0));
    Outcome scratch;
    run_pipeline_once(warm, rc_grid_netlist(warm.rows, warm.cols, warm.ports,
                                            mix_seed(args.seed, 1000 + k)),
                      -1, true, quiet, scratch);
    setup_samples.push_back(seconds_since(t0));
  }
  const std::int64_t rss_setup = proc_status_bytes(0, "VmRSS");

  // About --seconds of iterations (at least three, at most spec.max_iters:
  // FactorCache retention caps them), the exact check on every
  // spec.check_every-th. The traced run makes one checked pass (spans,
  // report fields) and spends the rest on the layer probes.
  const int iters = args.trace ? 1
                               : std::clamp(static_cast<int>(args.seconds / spec.iter_budget_s),
                                            3, spec.max_iters);
  Tracer tracer(args.trace);
  const CpuTicks ticks0 = cpu_ticks();
  std::vector<double> model, sweep_s, check, err;
  PipelineSample first;
  for (int i = 0; i < iters; ++i) {
    if (i > 0)
      text = rc_grid_netlist(spec.rows, spec.cols, spec.ports, mix_seed(args.seed, i));
    const bool exact = i % spec.check_every == 0;
    const PipelineSample s = run_pipeline_once(spec, text, i, exact, tracer, out);
    if (i == 0) first = s;
    out.note(format("iteration %d: model %.4fs sweep %.4fs%s", i, s.model_s, s.sweep_s,
                    exact ? format(" check %.4fs rom_err %.3g", s.check_s, s.rom_err).c_str()
                          : ""));
    model.push_back(s.model_s);
    sweep_s.insert(sweep_s.end(), s.sweep_samples.begin(), s.sweep_samples.end());
    if (exact) {
      check.push_back(s.check_s);
      err.push_back(s.rom_err);
    }
  }
  const std::int64_t rss_end = proc_status_bytes(0, "VmRSS");
  out.note(steal_note(ticks0, cpu_ticks()));

  if (!args.trace) {
    out.add("setup_s", median(setup_samples), "s");
    out.add("model_s", median(model), "s");
    out.add("check_s", median(check), "s");
    // The fastest tenth of the run's sweeps: a 4 ms sweep on grid_147k
    // doubles its median whenever the hypervisor deschedules a worker,
    // while its lower tail stays put.
    out.add("rom_sweep_s", quantile(sweep_s, 0.1), "s");
    out.add("rom_digits", -std::log10(std::max(*std::max_element(err.begin(), err.end()),
                                               1e-16)), "digits");
    out.add("peak_rss_bytes", static_cast<double>(proc_status_bytes(0, "VmHWM")), "B");
    out.add("rss_growth_bytes", static_cast<double>(rss_end - rss_setup), "B");
    out.note(format("%d iterations, %zu exact-checked, %zu sweeps timed", iters,
                    check.size(), sweep_s.size()));
    return out;
  }

  // Traced run: the pass above carried spans; now time every layer on one
  // more fresh netlist and probe the serving layers. The memory gap is
  // the peak RSS right after the first model was built, less the bytes
  // the report accounts for.
  out.add("mem.unaccounted_bytes",
          static_cast<double>(first.peak_rss_after_model - first.report.factor_bytes -
                              first.report.krylov_peak_bytes), "B");
  text = rc_grid_netlist(spec.rows, spec.cols, spec.ports, mix_seed(args.seed, iters));
  probe_pipeline_layers(spec, text, first, iters, tracer, out);
  probe_serve_layers(args, true, tracer, out);
  finish_trace(args, tracer, median(model), out);
  return out;
}

}  // namespace perfbench
