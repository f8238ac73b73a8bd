#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/json.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl::serve {

const char* op_name(Op op) {
  switch (op) {
    case Op::kReduce: return "reduce";
    case Op::kSweep: return "sweep";
    case Op::kEvaluate: return "evaluate";
    case Op::kStatus: return "status";
  }
  return "unknown";
}

namespace {

using obs::JsonValue;

[[noreturn]] void bad_request(const std::string& message, Index index = -1) {
  throw Error(ErrorCode::kInvalidArgument, message,
              {.stage = "serve.request", .index = index});
}

double number_field(const JsonValue& v, const std::string& name) {
  return v.as_number("\"" + name + "\"");
}

Index index_field(const JsonValue& v, const std::string& name) {
  const double d = number_field(v, name);
  if (!std::isfinite(d) || d != std::floor(d))
    bad_request("\"" + name + "\" must be an integer");
  return static_cast<Index>(d);
}

ReduceMethod parse_method(const std::string& s) {
  if (s == "sympvl") return ReduceMethod::kSympvl;
  if (s == "sharded_sympvl") return ReduceMethod::kShardedSympvl;
  if (s == "sypvl") return ReduceMethod::kSypvl;
  if (s == "pvl") return ReduceMethod::kPvl;
  if (s == "arnoldi") return ReduceMethod::kArnoldi;
  bad_request("options.method: unknown method \"" + s +
              "\" (sympvl|sharded_sympvl|sypvl|pvl|arnoldi)");
}

Ordering parse_ordering(const std::string& s) {
  if (s == "natural") return Ordering::kNatural;
  if (s == "rcm") return Ordering::kRCM;
  if (s == "mindegree") return Ordering::kMinDegree;
  if (s == "nested_dissection") return Ordering::kNestedDissection;
  bad_request("options.ordering: unknown ordering \"" + s +
              "\" (natural|rcm|mindegree|nested_dissection)");
}

ShardClustering parse_clustering(const std::string& s) {
  // "electrical" names what kAuto runs, so both spellings share a
  // registry key.
  if (s == "auto" || s == "electrical") return ShardClustering::kAuto;
  if (s == "round_robin") return ShardClustering::kRoundRobin;
  bad_request("options.clustering: unknown clustering \"" + s +
              "\" (auto|electrical|round_robin)");
}

/// "options" object → ReduceOptions. Every key must be known; values go
/// through the typed accessors, so a wrong type is a coded error too.
/// The assembled struct is then validate()d, so out-of-range values are
/// rejected here — before a daemon thread enters a driver.
ReduceOptions parse_reduce_options(const JsonValue& v) {
  ReduceOptions opt;
  for (const auto& [key, val] : v.as_object("\"options\"")) {
    if (key == "method") {
      opt.method = parse_method(val.as_string("options.method"));
    } else if (key == "order") {
      opt.order = index_field(val, "options.order");
    } else if (key == "s0") {
      opt.s0 = number_field(val, "options.s0");
    } else if (key == "auto_shift") {
      opt.auto_shift = val.as_bool("options.auto_shift");
    } else if (key == "deflation_tol") {
      opt.deflation_tol = number_field(val, "options.deflation_tol");
    } else if (key == "lookahead_tol") {
      opt.lookahead_tol = number_field(val, "options.lookahead_tol");
    } else if (key == "max_cluster_size") {
      opt.max_cluster_size = index_field(val, "options.max_cluster_size");
    } else if (key == "ordering") {
      opt.ordering = parse_ordering(val.as_string("options.ordering"));
    } else if (key == "shards") {
      opt.shard.shards = index_field(val, "options.shards");
    } else if (key == "clustering") {
      opt.shard.clustering =
          parse_clustering(val.as_string("options.clustering"));
    } else if (key == "stitch_tol") {
      opt.shard.stitch_tol = number_field(val, "options.stitch_tol");
    } else if (key == "pvl_row") {
      opt.pvl_row = index_field(val, "options.pvl_row");
    } else if (key == "pvl_col") {
      opt.pvl_col = index_field(val, "options.pvl_col");
    } else {
      bad_request("options." + key + ": unknown option field");
    }
  }
  validate(opt);  // coded kInvalidArgument on out-of-range values
  return opt;
}

Vec parse_grid(const Request& req, const JsonValue& root) {
  const JsonValue* freqs = root.find("frequencies_hz");
  const JsonValue* grid = root.find("grid");
  if ((freqs != nullptr) == (grid != nullptr))
    bad_request("sweep: exactly one of \"frequencies_hz\" and \"grid\" "
                "is required");
  Vec out;
  if (freqs) {
    const auto& arr = freqs->as_array("\"frequencies_hz\"");
    if (arr.empty()) bad_request("\"frequencies_hz\" must be non-empty");
    out.reserve(arr.size());
    for (const auto& f : arr)
      out.push_back(f.as_number("frequencies_hz entry"));
  } else {
    double start = -1.0, stop = -1.0;
    Index points = 0;
    bool log_spacing = true;
    for (const auto& [key, val] : grid->as_object("\"grid\"")) {
      if (key == "start_hz") start = number_field(val, "grid.start_hz");
      else if (key == "stop_hz") stop = number_field(val, "grid.stop_hz");
      else if (key == "points") points = index_field(val, "grid.points");
      else if (key == "spacing") {
        const std::string& s = val.as_string("grid.spacing");
        if (s == "log") log_spacing = true;
        else if (s == "linear") log_spacing = false;
        else bad_request("grid.spacing: \"log\" or \"linear\"");
      } else {
        bad_request("grid." + key + ": unknown grid field");
      }
    }
    if (points < 1) bad_request("grid.points must be >= 1");
    if (points > (Index(1) << 22))
      bad_request("grid.points too large (max 4194304)");
    if (!(start >= 0.0) || !(stop >= start) || !std::isfinite(stop))
      bad_request("grid: need finite 0 <= start_hz <= stop_hz");
    if (log_spacing && start <= 0.0)
      bad_request("grid: log spacing needs start_hz > 0");
    out.reserve(static_cast<size_t>(points));
    if (points == 1) {
      out.push_back(start);
    } else if (log_spacing) {
      const double ratio = std::log(stop / start) / double(points - 1);
      for (Index k = 0; k < points; ++k)
        out.push_back(start * std::exp(ratio * double(k)));
    } else {
      const double step = (stop - start) / double(points - 1);
      for (Index k = 0; k < points; ++k)
        out.push_back(start + step * double(k));
    }
  }
  // Library-level grid validation (finite, >= 0) with coded errors.
  validate(out);
  (void)req;
  return out;
}

std::vector<std::pair<Index, Index>> parse_entries(const JsonValue& v) {
  std::vector<std::pair<Index, Index>> out;
  for (const auto& e : v.as_array("\"entries\"")) {
    const auto& pair = e.as_array("entries entry");
    if (pair.size() != 2) bad_request("entries: each entry is [row, col]");
    out.emplace_back(index_field(pair[0], "entries row"),
                     index_field(pair[1], "entries col"));
    if (out.back().first < 0 || out.back().second < 0)
      bad_request("entries: indices must be >= 0");
  }
  if (out.empty()) bad_request("\"entries\" must be non-empty when present");
  return out;
}

Complex parse_s(const JsonValue& v) {
  const auto& pair = v.as_array("\"s\"");
  if (pair.size() != 2) bad_request("\"s\" is [re, im]");
  const double re = pair[0].as_number("s[0]");
  const double im = pair[1].as_number("s[1]");
  if (!std::isfinite(re) || !std::isfinite(im))
    bad_request("\"s\" must be finite");
  return Complex(re, im);
}

}  // namespace

Request parse_request(const std::string& body) {
  const JsonValue root = obs::json_parse(body);
  if (!root.is_object()) bad_request("request must be a JSON object");

  Request req;
  const JsonValue* v = root.find("v");
  if (!v) bad_request("missing protocol version \"v\"");
  req.v = static_cast<int>(index_field(*v, "v"));
  if (req.v != kProtocolVersion)
    bad_request("unsupported protocol version " + std::to_string(req.v) +
                    " (this daemon speaks v" +
                    std::to_string(kProtocolVersion) + ")",
                req.v);

  const JsonValue* opv = root.find("op");
  if (!opv) bad_request("missing \"op\"");
  const std::string& op = opv->as_string("\"op\"");
  if (op == "reduce") req.op = Op::kReduce;
  else if (op == "sweep") req.op = Op::kSweep;
  else if (op == "evaluate") req.op = Op::kEvaluate;
  else if (op == "status") req.op = Op::kStatus;
  else bad_request("unknown op \"" + op +
                   "\" (reduce|sweep|evaluate|status)");

  if (const JsonValue* id = root.find("id"))
    req.id = id->as_string("\"id\"");

  // Envelope-level field whitelist per op.
  for (const auto& [key, val] : root.as_object("request")) {
    (void)val;
    const bool common = key == "v" || key == "op" || key == "id";
    const bool model_source = key == "netlist" || key == "options" ||
                              key == "rom";
    const bool sweep_only = key == "frequencies_hz" || key == "grid" ||
                            key == "entries" || key == "strict";
    bool known = common;
    switch (req.op) {
      case Op::kReduce:
        known = known || key == "netlist" || key == "options";
        break;
      case Op::kSweep:
        known = known || model_source || sweep_only;
        break;
      case Op::kEvaluate:
        known = known || model_source || key == "s";
        break;
      case Op::kStatus:
        break;
    }
    if (!known)
      bad_request("\"" + key + "\": unknown field for op \"" +
                  op_name(req.op) + "\"");
  }

  if (const JsonValue* nl = root.find("netlist"))
    req.netlist = nl->as_string("\"netlist\"");
  if (const JsonValue* rom = root.find("rom"))
    req.rom = rom->as_string("\"rom\"");
  if (!req.netlist.empty() && !req.rom.empty())
    bad_request("give either \"netlist\" or \"rom\", not both");
  if (const JsonValue* opts = root.find("options")) {
    if (!req.rom.empty())
      bad_request("\"options\" only applies to an inline \"netlist\"");
    req.options = parse_reduce_options(*opts);
  }
  req.has_model_source = !req.netlist.empty() || !req.rom.empty();

  switch (req.op) {
    case Op::kReduce:
      if (req.netlist.empty()) bad_request("reduce: \"netlist\" is required");
      break;
    case Op::kSweep:
      if (!req.has_model_source)
        bad_request("sweep: \"rom\" or \"netlist\" is required");
      req.frequencies_hz = parse_grid(req, root);
      if (const JsonValue* e = root.find("entries"))
        req.entries = parse_entries(*e);
      if (const JsonValue* s = root.find("strict"))
        req.strict = s->as_bool("\"strict\"");
      break;
    case Op::kEvaluate: {
      if (!req.has_model_source)
        bad_request("evaluate: \"rom\" or \"netlist\" is required");
      const JsonValue* s = root.find("s");
      if (!s) bad_request("evaluate: \"s\" is required");
      req.s = parse_s(*s);
      break;
    }
    case Op::kStatus:
      break;
  }
  return req;
}

std::string error_response(ErrorCode code, const std::string& stage,
                           const std::string& message, const std::string& id,
                           Index index) {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":false";
  if (!id.empty()) out << ",\"id\":" << obs::json_string(id);
  out << ",\"error\":{\"code\":" << obs::json_string(error_code_name(code))
      << ",\"stage\":" << obs::json_string(stage)
      << ",\"message\":" << obs::json_string(message);
  if (index >= 0) out << ",\"index\":" << index;
  out << "}}";
  return out.str();
}

std::string error_response(const Error& error, const std::string& id) {
  return error_response(error.code(), error.context().stage, error.what(), id,
                        error.context().index);
}

std::string ok_response(Op op, const std::string& id,
                        const std::string& result_json) {
  std::ostringstream out;
  out << "{\"v\":" << kProtocolVersion << ",\"ok\":true";
  if (!id.empty()) out << ",\"id\":" << obs::json_string(id);
  out << ",\"op\":" << obs::json_string(op_name(op))
      << ",\"result\":" << result_json << "}";
  return out.str();
}

std::string diagnostics_json(const std::vector<ReductionIssue>& diagnostics) {
  std::ostringstream out;
  out << "[";
  for (size_t k = 0; k < diagnostics.size(); ++k) {
    const ReductionIssue& d = diagnostics[k];
    if (k) out << ",";
    out << "{\"code\":" << obs::json_string(error_code_name(d.code))
        << ",\"stage\":" << obs::json_string(d.stage)
        << ",\"message\":" << obs::json_string(d.message);
    if (d.index >= 0) out << ",\"index\":" << d.index;
    out << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace sympvl::serve
