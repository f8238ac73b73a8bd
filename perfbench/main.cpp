// perfbench — the repository benchmark driver.
//
//   perfbench --workload grid_147k|manyport_256|serve_mixed --seed N
//             --seconds S --trace 0|1 [--run-dir DIR]
//
// Prints one "name = value unit" line per metric, then a single JSON
// result line {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any correctness check failed, 2 on bad arguments. perfbench/run.py
// builds this binary and forwards its arguments.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "linalg/simd.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

std::int64_t proc_status_bytes(int pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    std::int64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
  return 0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  long long v = 0;
  for (int k = 0; k < 8 && in >> v; ++k) {
    t.total += v;
    if (k == 7) t.steal = v;
  }
  return t;
}

std::string steal_note(const CpuTicks& from, const CpuTicks& to) {
  const long long total = to.total - from.total;
  return format("host steal during the timed phase: %.1f %% of CPU time",
                total > 0 ? 100.0 * static_cast<double>(to.steal - from.steal) /
                                static_cast<double>(total)
                          : 0.0);
}

int Tracer::begin(const std::string& name, int iteration) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = seconds_since(origin_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.iteration = iteration;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int iteration) {
  if (!enabled_) return;
  spans_.push_back({name, seconds_between(origin_, start),
                    seconds_between(origin_, end), -1, iteration});
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << sympvl::obs::json_number(s.start_s)
        << ",\"end_s\":" << sympvl::obs::json_number(s.end_s)
        << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void host_notes(Outcome& out) {
  const std::string build = sympvl::obs::detail::build_type();
  out.note(format("host: nproc=%u library_threads=%ld simd=%s compiler=%s build=%s",
                  std::thread::hardware_concurrency(),
                  static_cast<long>(sympvl::num_threads()),
                  sympvl::simd_level_name(sympvl::resolve_simd_level(sympvl::SimdLevel::kAuto)),
                  sympvl::obs::detail::build_compiler().c_str(), build.c_str()));
  out.check(build == "Release", "library not built as Release (build type '" + build + "')");
}

void finish_trace(const Args& args, const Tracer& tracer, double model_s, Outcome& out) {
  // Cost of one span, measured on a scratch recorder, times the spans the
  // run recorded, as a share of the traced end-to-end model time.
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < kSpans; ++k) probe.end(probe.begin("probe", k));
  const double per_span = seconds_since(t0) / kSpans;
  out.add("trace.overhead_frac",
          per_span * static_cast<double>(tracer.spans().size()) / std::max(model_s, 1e-12), "1");
  const std::string path = format("%s/trace-%s-seed%llu.json", args.run_dir.c_str(),
                                  args.workload.c_str(),
                                  static_cast<unsigned long long>(args.seed));
  if (tracer.write(path, args.workload, args.seed))
    out.note(format("%zu spans written to %s", tracer.spans().size(), path.c_str()));
  else
    out.note("could not write spans to " + path);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--run-dir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--run-dir") args.run_dir = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  const std::string self = argv[0];
  const std::size_t slash = self.rfind('/');
  args.exe_dir = slash == std::string::npos ? "." : self.substr(0, slash);
  if (args.run_dir.empty()) args.run_dir = args.exe_dir;

  perfbench::Outcome out;
  try {
    if (args.workload == "grid_147k" || args.workload == "manyport_256")
      out = perfbench::run_pipeline_workload(args);
    else if (args.workload == "serve_mixed")
      out = perfbench::run_serve_workload(args);
    else
      usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    out.check(false, std::string("workload aborted: ") + e.what());
  }
  if (out.attempted == 0) out.check(false, "no operation attempted");

  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& f : out.failures)
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  for (const auto& m : out.metrics)
    std::printf("%-32s = %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = out.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            sympvl::obs::json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
