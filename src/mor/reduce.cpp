#include "mor/reduce.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/topology.hpp"
#include "mor/pencil.hpp"
#include "mor/port_shard_stitch.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// Copies the shared option surface into a method-specific options struct
// (the facade applies its values uniformly across methods).
template <typename Opt>
Opt slice_common(const ReduceOptions& options) {
  Opt out;
  static_cast<CommonReductionOptions&>(out) = options;
  return out;
}

// Every failed factorization rung of the report's trail becomes an issue.
void harvest_factor_attempts(const SympvlReport& report,
                             std::vector<ReductionIssue>* out) {
  for (const FactorAttemptRecord& rec : report.factor_attempts) {
    if (rec.success) continue;
    ReductionIssue issue;
    issue.code =
        rec.code == ErrorCode::kUnknown ? ErrorCode::kSingular : rec.code;
    issue.stage = "factor." + rec.method;
    issue.message = rec.detail.empty()
                        ? ("factorization attempt failed (" + rec.method +
                           ", shift=" + std::to_string(rec.shift) + ")")
                        : rec.detail;
    issue.value = rec.shift;
    out->push_back(std::move(issue));
  }
}

// Flattens the report's recovery trail into diagnostics: the failed
// factorization rungs, then a Lanczos breakdown post-mortem as one
// kBreakdown issue.
void harvest_report(const SympvlReport& report,
                    std::vector<ReductionIssue>* out) {
  harvest_factor_attempts(report, out);
  if (report.breakdown) {
    ReductionIssue issue;
    issue.code = ErrorCode::kBreakdown;
    issue.stage = "lanczos";
    issue.message = report.lanczos_diagnosis.message;
    issue.index = report.lanczos_diagnosis.cluster;
    issue.value = report.lanczos_diagnosis.min_abs_eig;
    out->push_back(std::move(issue));
  }
}

// Uniform status rule: breakdown truncation → kTruncated; stopping short
// of the request because the Krylov space is exhausted means the model is
// EXACT, which stays kOk.
ReductionStatus classify(const SympvlReport& report, Index requested) {
  if (report.breakdown) return ReductionStatus::kTruncated;
  if (report.achieved_order < requested && !report.exhausted)
    return ReductionStatus::kTruncated;
  return ReductionStatus::kOk;
}

// Runs one throwing algorithm call, `algo(&report)` → model, and builds the
// uniform result: on success the model plus the status rule; on a thrown
// Error, kFailed with that error as the first diagnostic. Either way the
// report's recovery trail follows in the diagnostics.
template <typename Algo>
ReduceResult run_algorithm(const char* name, Index requested, Algo&& algo) {
  ReduceResult out;
  try {
    out.model = MacroModel(algo(&out.report));
    out.status = classify(out.report, requested);
  } catch (const Error& ex) {
    out.status = ReductionStatus::kFailed;
    out.diagnostics.push_back(ReductionIssue::from_error(ex));
  }
  harvest_report(out.report, &out.diagnostics);
  obs::instant("driver.result",
               {obs::arg("driver", name),
                obs::arg("status", reduction_status_name(out.status)),
                obs::arg("achieved_order", out.report.achieved_order),
                obs::arg("issues", double(out.diagnostics.size())),
                obs::arg("recovered", out.report.recovered ? 1.0 : 0.0)});
  return out;
}

ReduceResult reduce_sympvl(const MnaSystem& sys, const SympvlOptions& options) {
  return run_algorithm("sympvl", std::min(options.order, sys.size()),
                       [&](SympvlReport* report) {
                         return sympvl_reduce(sys, options, report);
                       });
}

// kShardedSympvl: K > 1 shards run the stitched path of port_shard.cpp,
// whose failed priming rungs become diagnostics as kSympvl's do; one
// shard IS the monolithic kSympvl reduction, reported as one shard.
ReduceResult reduce_sharded(const MnaSystem& sys,
                            const SympvlOptions& options) {
  const Index p = sys.port_count();
  require(p >= 1, ErrorCode::kInvalidArgument,
          "sharded_sympvl_reduce: system has no ports");
  // Never more shards than requested Lanczos vectors: every shard must
  // sustain at least a 1-vector process.
  const Index shards =
      std::min<Index>(resolve_shard_count(options.shard, p), options.order);
  if (shards > 1) {
    ReduceResult out = detail::sharded_sympvl_reduce(sys, options, shards);
    harvest_factor_attempts(out.report, &out.diagnostics);
    return out;
  }

  ReduceResult out = reduce_sympvl(sys, options);
  out.shard.shards = 1;
  out.shard.clustering = "monolithic";
  out.shard.port_to_shard.assign(static_cast<size_t>(p), 0);
  out.shard.shard_ports = {p};
  out.shard.shard_orders = {out.report.achieved_order};
  out.shard.stitched_order = out.report.achieved_order;
  return out;
}

}  // namespace

Index MacroModel::order() const {
  if (const auto* m = as_reduced()) return m->order();
  if (const auto* m = as_arnoldi()) return m->order();
  if (const auto* m = as_pvl()) return m->order();
  return 0;
}

Index MacroModel::port_count() const {
  if (const auto* m = as_reduced()) return m->port_count();
  if (const auto* m = as_arnoldi()) return m->port_count();
  if (as_pvl() != nullptr) return 1;
  return 0;
}

CMat MacroModel::eval(Complex s) const {
  if (const auto* m = as_reduced()) return m->eval(s);
  if (const auto* m = as_arnoldi()) return m->eval(s);
  if (const auto* m = as_pvl()) {
    CMat z(1, 1);
    z(0, 0) = m->eval(s);
    return z;
  }
  throw Error(ErrorCode::kInvalidArgument, "MacroModel: empty model",
              {.stage = "reduce.eval"});
}

const MacroModel& ReduceResult::value() const {
  if (!ok()) {
    if (!diagnostics.empty()) {
      const ReductionIssue& first = diagnostics.front();
      throw Error(first.code, first.message,
                  {.stage = first.stage, .index = first.index,
                   .value = first.value});
    }
    throw Error(ErrorCode::kUnknown, "reduce: failed (no diagnostics)");
  }
  return model;
}

void validate(const ReduceOptions& options) {
  const auto bad = [](const std::string& field, const std::string& why,
                      double value = 0.0) {
    throw Error(ErrorCode::kInvalidArgument,
                "ReduceOptions." + field + ": " + why,
                {.stage = "reduce.validate", .value = value});
  };
  switch (options.method) {
    case ReduceMethod::kSympvl:
    case ReduceMethod::kShardedSympvl:
    case ReduceMethod::kSypvl:
    case ReduceMethod::kPvl:
    case ReduceMethod::kArnoldi:
      break;
    default:
      bad("method", "unknown reduction method",
          static_cast<double>(static_cast<int>(options.method)));
  }
  if (options.order < 1)
    bad("order", "must be >= 1", static_cast<double>(options.order));
  if (!std::isfinite(options.s0)) bad("s0", "must be finite", options.s0);
  if (!(options.deflation_tol >= 0.0) ||
      !std::isfinite(options.deflation_tol))
    bad("deflation_tol", "must be finite and >= 0", options.deflation_tol);
  if (!(options.lookahead_tol >= 0.0) ||
      !std::isfinite(options.lookahead_tol))
    bad("lookahead_tol", "must be finite and >= 0", options.lookahead_tol);
  if (options.max_cluster_size < 0)
    bad("max_cluster_size", "must be >= 0 (0 = unlimited)",
        static_cast<double>(options.max_cluster_size));
  if (options.shard.shards < 0)
    bad("shard.shards", "must be >= 0 (0 = auto)",
        static_cast<double>(options.shard.shards));
  if (!(options.shard.stitch_tol > 0.0) ||
      !std::isfinite(options.shard.stitch_tol))
    bad("shard.stitch_tol", "must be finite and > 0",
        options.shard.stitch_tol);
  if (options.pvl_row < 0 || options.pvl_col < 0)
    bad(options.pvl_row < 0 ? "pvl_row" : "pvl_col", "must be >= 0",
        static_cast<double>(options.pvl_row < 0 ? options.pvl_row
                                                : options.pvl_col));
}

ReduceResult reduce(const MnaSystem& sys, const ReduceOptions& options) {
  validate(options);
  const Index requested = std::min(options.order, sys.size());
  switch (options.method) {
    case ReduceMethod::kSympvl:
      return reduce_sympvl(sys, options);
    case ReduceMethod::kShardedSympvl:
      return reduce_sharded(sys, options);
    case ReduceMethod::kSypvl:
      return run_algorithm("sypvl", requested, [&](SympvlReport* report) {
        return sypvl_reduce(sys, options, report);
      });
    case ReduceMethod::kPvl: {
      const PvlOptions popt = slice_common<PvlOptions>(options);
      return run_algorithm("pvl", requested, [&](SympvlReport* report) {
        LanczosDiagnosis diagnosis;
        PvlModel model = pvl_reduce_entry(sys, options.pvl_row,
                                          options.pvl_col, popt, &diagnosis);
        report->s0_used = model.shift();
        report->achieved_order = model.order();
        report->lanczos_diagnosis = diagnosis;
        report->breakdown = diagnosis.breakdown;
        // PVL stopping short without a breakdown diagnosis means the
        // Krylov space for this entry is exhausted (the scalar model is
        // exact).
        report->exhausted = !diagnosis.breakdown && model.order() < requested;
        return model;
      });
    }
    case ReduceMethod::kArnoldi: {
      const ArnoldiOptions aopt = slice_common<ArnoldiOptions>(options);
      return run_algorithm("arnoldi", requested, [&](SympvlReport* report) {
        ArnoldiModel model = arnoldi_reduce(sys, aopt);
        report->s0_used = model.shift();
        report->achieved_order = model.order();
        // Arnoldi stops short only when the block Krylov space deflates
        // to nothing more — the projection then spans the full space
        // (exact).
        report->exhausted = model.order() < requested;
        return model;
      });
    }
  }
  throw Error(ErrorCode::kInvalidArgument, "reduce: unknown method",
              {.stage = "reduce"});
}

ReduceResult reduce(const Netlist& netlist, const ReduceOptions& options) {
  validate(options);  // before assembly work; coded, so daemons can reject
  MnaSystem sys;
  ReduceOptions opt = options;
  try {
    sys = build_mna(netlist, MnaForm::kAuto);
    // Topology check (Section 2 / eq. 26) for the pencil-factoring
    // methods: when some node has no DC path to the datum, G is
    // structurally singular — pick the shift up front rather than
    // failing a factorization first. automatic_shift itself throws on
    // degenerate systems (empty C diagonal), which is an assembly-stage
    // failure too.
    if (opt.s0 == 0.0 && opt.auto_shift &&
        !has_dc_path_to_ground(netlist, MnaForm::kAuto))
      opt.s0 = automatic_shift(sys);
  } catch (const Error& e) {
    ReduceResult out;
    out.status = ReductionStatus::kFailed;
    out.diagnostics.push_back(ReductionIssue::from_error(e));
    return out;
  }
  return reduce(sys, opt);
}

}  // namespace sympvl
