// The public reduction facade: every algorithm in the library behind ONE
// entry point,
//
//   ReduceResult r = sympvl::reduce(system, options);
//   CMat z = r.value().eval(s);
//
// with the method selected by an enum (SyMPVL, sharded SyMPVL, SyPVL,
// PVL, block Arnoldi) instead of per-method free functions. The facade
// returns a ReduceResult carrying a method-agnostic MacroModel (every
// model evaluates to a p×p impedance matrix; PVL wraps its scalar as
// 1×1), the uniform SympvlReport, the port-sharding telemetry when that
// path ran, an explicit ReductionStatus and structured diagnostics.
//
// reduce() calls the throwing per-method algorithm functions
// (sympvl_reduce, sypvl_reduce, pvl_reduce_entry, arnoldi_reduce and the
// internal sharded path of mor/port_shard_stitch.hpp) and turns their
// reports and errors into that one result type.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "mor/arnoldi.hpp"
#include "mor/port_shard.hpp"
#include "mor/pvl.hpp"
#include "mor/reduced_model.hpp"
#include "mor/sympvl.hpp"
#include "mor/sypvl.hpp"

namespace sympvl {

/// Overall outcome of a reduction run.
enum class ReductionStatus {
  kOk,         ///< requested order reached (or Krylov space exhausted —
               ///< the model is then exact, not degraded)
  kTruncated,  ///< serious breakdown: model valid but stopped at the last
               ///< healthy order below the request
  kFailed,     ///< no usable model; see diagnostics
};

inline const char* reduction_status_name(ReductionStatus s) {
  switch (s) {
    case ReductionStatus::kOk: return "ok";
    case ReductionStatus::kTruncated: return "truncated";
    case ReductionStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// One structured diagnostic: a flattened Error / recovery-trail entry.
struct ReductionIssue {
  ErrorCode code = ErrorCode::kUnknown;
  std::string stage;    ///< dot-separated site, e.g. "sympvl.factor"
  std::string message;
  Index index = -1;     ///< pivot / iteration / point index when known
  double value = 0.0;   ///< offending magnitude when known

  static ReductionIssue from_error(const Error& ex) {
    ReductionIssue issue;
    issue.code = ex.code();
    issue.stage = ex.context().stage;
    issue.message = ex.what();
    issue.index = ex.context().index;
    issue.value = ex.context().value;
    return issue;
  }
};

/// Which reduction algorithm reduce() dispatches to.
enum class ReduceMethod {
  kSympvl,         ///< matrix-Padé block Lanczos (the paper's algorithm)
  kShardedSympvl,  ///< clustered per-shard SyMPVL with a stitched model
  kSypvl,          ///< single-vector predecessor (first port only)
  kPvl,            ///< scalar Padé on one Z entry (pvl_row/pvl_col)
  kArnoldi,        ///< congruence-projection baseline (PRIMA-style)
};

inline const char* reduce_method_name(ReduceMethod m) {
  switch (m) {
    case ReduceMethod::kSympvl: return "sympvl";
    case ReduceMethod::kShardedSympvl: return "sharded_sympvl";
    case ReduceMethod::kSypvl: return "sypvl";
    case ReduceMethod::kPvl: return "pvl";
    case ReduceMethod::kArnoldi: return "arnoldi";
  }
  return "unknown";
}

/// Facade options: the union of the per-method structs (SympvlOptions
/// plus the method switch and PVL's Z entry), because the facade and the
/// daemon pick the method at run time. reduce() copies into each method's
/// struct the fields it reads; kArnoldi's deflation_tol is SyMPVL's 1e-8
/// default here, not arnoldi_reduce's 1e-10, unless set.
struct ReduceOptions : SympvlOptions {
  ReduceMethod method = ReduceMethod::kSympvl;
  /// Z entry reduced by kPvl (ignored by every other method).
  Index pvl_row = 0;
  Index pvl_col = 0;
};

/// Method-agnostic reduced model. Always evaluates to the physical p×p
/// impedance matrix; the typed accessors expose the concrete model when
/// a caller needs method-specific API (poles, moments, synthesis).
class MacroModel {
 public:
  MacroModel() = default;
  explicit MacroModel(ReducedModel m) : m_(std::move(m)) {}
  explicit MacroModel(ArnoldiModel m) : m_(std::move(m)) {}
  explicit MacroModel(PvlModel m) : m_(std::move(m)) {}

  bool empty() const { return std::holds_alternative<std::monostate>(m_); }
  Index order() const;
  Index port_count() const;

  /// Physical Z_r(s); a PVL model evaluates as a 1×1 matrix.
  CMat eval(Complex s) const;

  /// Heap bytes the concrete model holds (its own bytes() count).
  std::int64_t bytes() const;

  /// nullptr when the model is not of that concrete type.
  const ReducedModel* as_reduced() const {
    return std::get_if<ReducedModel>(&m_);
  }
  const ArnoldiModel* as_arnoldi() const {
    return std::get_if<ArnoldiModel>(&m_);
  }
  const PvlModel* as_pvl() const { return std::get_if<PvlModel>(&m_); }

 private:
  std::variant<std::monostate, ReducedModel, ArnoldiModel, PvlModel> m_;
};

/// Uniform result of reduce(): dispatch on status, evaluate via model.
/// Every method fills its own report: the factor trail, shift and factor
/// telemetry through the one recorder (record_factor_result), then its
/// achieved order, exhaustion, breakdown and stage times. Fields a method
/// has no source for stay defaulted: the step digest, Krylov bytes and
/// moment residual come from the SyMPVL paths only, and the cluster
/// structure from those and SyPVL.
struct ReduceResult {
  MacroModel model;
  SympvlReport report;
  /// Sharding telemetry; default-initialized (shards = 0) for every
  /// method except kShardedSympvl.
  PortShardReport shard;
  ReductionStatus status = ReductionStatus::kOk;
  std::vector<ReductionIssue> diagnostics;

  /// True when a usable model exists (kOk or kTruncated).
  bool ok() const { return status != ReductionStatus::kFailed; }

  /// The model, re-raising the first recorded failure when there is none.
  const MacroModel& value() const;
};

/// Validates the full ReduceOptions surface with coded errors: throws
/// Error(ErrorCode::kInvalidArgument, stage "reduce.validate") naming the
/// first offending field. Shared by every entry into a reduction — the
/// reduce() facade calls it up front, and the serving daemon calls it to
/// reject a bad request with a machine-readable error response instead
/// of dying inside an algorithm.
void validate(const ReduceOptions& options);

/// Reduces an assembled MNA system with the selected method. Never
/// throws for reduction failures — inspect status/diagnostics. Invalid
/// options still throw (validate() above), as does kShardedSympvl on a
/// system without ports.
ReduceResult reduce(const MnaSystem& sys, const ReduceOptions& options);

/// Convenience: assembles the netlist (kAuto form) first; assembly
/// failures are reported as kFailed diagnostics, not thrown.
ReduceResult reduce(const Netlist& netlist, const ReduceOptions& options);

}  // namespace sympvl
