// Shared plumbing of the perfbench driver: clocks, order statistics,
// process memory, the span recorder of traced runs and the result record
// every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// A byte field ("VmRSS", "VmHWM") of /proc/<pid>/status; pid 0 = this
/// process. Returns 0 when unavailable.
std::int64_t proc_status_bytes(int pid, const char* field);

/// Aggregate CPU time from /proc/stat, in clock ticks: all states, and
/// the share the hypervisor gave to other guests (steal).
struct CpuTicks {
  long long total = 0, steal = 0;
};
CpuTicks cpu_ticks();
/// "host steal: x % of CPU time" between two readings (a noisy-neighbour
/// marker for interpreting timings).
std::string steal_note(const CpuTicks& from, const CpuTicks& to);

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string exe_dir;  ///< directory holding the perfbench/sympvld binaries
  std::string run_dir;  ///< scratch directory for sockets and trace files
};

/// One closed interval of benchmark-side work around a call into a layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  int iteration = -1;    ///< workload iteration (or phase) the span served
};

/// In-memory span recorder. Single-threaded: spans nest by call order.
/// With `enabled` false, begin/end only measure durations.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Runs `fn` inside a span and returns its wall time in seconds.
  template <typename Fn>
  double time(const std::string& name, int iteration, Fn&& fn) {
    const int id = begin(name, iteration);
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    end(id);
    return dt;
  }

  int begin(const std::string& name, int iteration);
  void end(int id);
  /// Adds a top-level span timed elsewhere (e.g. on a sender thread).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, int iteration);
  /// Writes the spans as a JSON array to `path`; false on I/O failure.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Result record of one run: metrics in print order plus the operation
/// tally behind error_frac (failed ÷ attempted).
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  /// Free-form "key: value" lines printed before the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one attempted operation; a false `ok` counts it failed and
  /// records `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// printf-style std::string formatting.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

Outcome run_pipeline_workload(const Args& args);  // grid_147k, manyport_256
Outcome run_serve_workload(const Args& args);     // serve_mixed

}  // namespace perfbench
