// Lightweight, env-gated observability: a process-global registry of
// counters, RAII ScopedTimer spans and instant events recorded into
// per-thread buffers, a Chrome trace-event JSON exporter, and run
// metadata shared by every BENCH_*.json.
//
// ScopedTimer is also the library's one stage stopwatch: its close()
// returns the span's duration in seconds whether or not obs records, and
// every stage time a report carries (SympvlReport, PortShardReport, the
// Lanczos step digest) is that return value.
//
// Cost model (the overhead contract, verified by bench_obs_overhead):
//   * disabled (no SYMPVL_TRACE / SYMPVL_STATS, no obs::enable(true)):
//     an instant or counter point is a relaxed load of one cached atomic
//     plus a predictable branch; a span adds two steady-clock reads (its
//     stopwatch). No allocation, no lock;
//   * enabled: events append into per-thread segmented buffers. The hot
//     path is lock-free — a segment slot store followed by a release store
//     of the segment count; a per-thread mutex is taken only when a new
//     1024-event segment is added and at flush/merge time.
//
// Sinks (resolved once, from the environment, at the first instrumented
// call; an atexit flush is installed when any is configured):
//   * SYMPVL_TRACE=<path>   — Chrome trace-event JSON ("trace.json" loads
//     in about:tracing or https://ui.perfetto.dev). Spans become complete
//     ('X') events, instants 'i' events; thread-pool workers appear as
//     named lanes ("pool-worker-K").
//   * SYMPVL_STATS=<1|stderr|path> — human-readable per-span/counter
//     summary printed at flush (to stderr, or appended to <path>),
//     including min/mean/max and p50/p95/p99 per span family.
//   * SYMPVL_METRICS=<path> — Prometheus text-exposition document
//     (counters, byte gauges, latency histograms; see
//     obs/prom_export.hpp for the naming convention).
//
// Metrics v2 companions (same namespace, separate headers):
// obs/histogram.hpp — log-bucketed latency histograms automatically fed
// by every completed span; obs/memstat.hpp — always-on byte gauges with
// high-water marks plus RSS sampling.
//
// Naming convention: dot-separated "<subsystem>.<event>" — e.g.
// "ldlt.factor", "lanczos.deflation", "ac.sweep", "parallel.chunk". Event
// and argument names must be string literals (or otherwise outlive the
// final flush); numeric argument values are doubles, string values must
// also be literals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common.hpp"

namespace sympvl::obs {

// ---- Enablement (the hot-path gate) ---------------------------------------

namespace detail {
// -1 = not yet resolved from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_enabled;
bool init_enabled_slow();
// Build metadata strings (the macros are injected on obs.cpp only).
std::string build_compiler();
const char* build_type();
const char* cxx_flags();
}  // namespace detail

/// True when instrumentation is recording. Inline: one relaxed atomic load
/// and a branch once initialized.
inline bool enabled() {
  const int e = detail::g_enabled.load(std::memory_order_relaxed);
  if (e >= 0) return e != 0;
  return detail::init_enabled_slow();
}

/// Programmatic override (tests, embedding applications). enable(true)
/// starts recording even with no sink configured — use snapshot_events()
/// or stats_summary() to inspect. enable(false) stops recording; already
/// recorded events are kept until reset().
void enable(bool on);

// ---- Event model ----------------------------------------------------------

/// One key/value event argument. `str == nullptr` means numeric.
struct Arg {
  const char* key;
  double num = 0.0;
  const char* str = nullptr;
};

inline Arg arg(const char* key, double v) { return Arg{key, v, nullptr}; }
inline Arg arg(const char* key, Index v) {
  return Arg{key, static_cast<double>(v), nullptr};
}
inline Arg arg(const char* key, const char* s) { return Arg{key, 0.0, s}; }

constexpr int kMaxArgs = 6;

/// A recorded event. phase: 'X' = complete span, 'i' = instant.
struct Event {
  const char* name = nullptr;
  char phase = 'i';
  std::int64_t ts_us = 0;   ///< start, microseconds since process epoch
  std::int64_t dur_us = 0;  ///< duration ('X' only)
  int tid = 0;              ///< recording thread's lane id
  Arg args[kMaxArgs];
  int nargs = 0;
};

/// Microseconds since the process trace epoch (steady clock).
std::int64_t now_us();

namespace detail {
using Clock = std::chrono::steady_clock;
void record(const Event& e);
/// Records the completed span [start, end] as an 'X' event (microsecond
/// fields on the trace epoch) and feeds its latency histogram.
void record_span(const char* name, Clock::time_point start,
                 Clock::time_point end, const Arg* args, int nargs);
}  // namespace detail

/// Records an instant event (a vertical tick in the trace lane).
inline void instant(const char* name, std::initializer_list<Arg> args = {}) {
  if (!enabled()) return;
  Event e;
  e.name = name;
  e.phase = 'i';
  e.ts_us = now_us();
  for (const Arg& a : args)
    if (e.nargs < kMaxArgs) e.args[e.nargs++] = a;
  detail::record(e);
}

/// RAII span and stage stopwatch. Construction stamps the start with one
/// steady-clock read whether or not obs records; close() takes one more
/// and returns the elapsed seconds. When obs was enabled at construction,
/// close() also records a complete ('X') trace event and feeds the span's
/// latency histogram. Arguments may be attached any time before close().
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : name_(enabled() ? name : nullptr), start_(detail::Clock::now()) {}
  ScopedTimer(const char* name, std::initializer_list<Arg> args)
      : ScopedTimer(name) {
    for (const Arg& a : args) arg(a);
  }
  ~ScopedTimer() { close(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void arg(const Arg& a) {
    if (name_ != nullptr && nargs_ < kMaxArgs) args_[nargs_++] = a;
  }
  void arg(const char* key, double v) { arg(obs::arg(key, v)); }
  void arg(const char* key, Index v) { arg(obs::arg(key, v)); }
  void arg(const char* key, const char* s) { arg(obs::arg(key, s)); }

  /// Ends the span and returns its duration in seconds at the steady
  /// clock's full resolution. Idempotent: later calls (the destructor's
  /// included) return the same value and record nothing more.
  double close() {
    if (open_) {
      const detail::Clock::time_point end = detail::Clock::now();
      open_ = false;
      seconds_ = std::chrono::duration<double>(end - start_).count();
      if (name_ != nullptr)
        detail::record_span(name_, start_, end, args_, nargs_);
    }
    return seconds_;
  }

 private:
  const char* name_;  // nullptr: obs was off at construction, record nothing
  detail::Clock::time_point start_;
  bool open_ = true;
  double seconds_ = 0.0;
  Arg args_[kMaxArgs];
  int nargs_ = 0;
};

// ---- Counters -------------------------------------------------------------

/// Monotonic counter. add() is a relaxed atomic fetch-add, gated on
/// enabled(). Look up once (e.g. a function-local static reference) —
/// registry lookup takes a mutex.
class Counter {
 public:
  void add(double d = 1.0) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Process-global counter interned by name (stable reference for the
/// process lifetime).
Counter& counter(const char* name);

/// Names the calling thread's trace lane (e.g. "pool-worker-3").
void set_thread_name(const std::string& name);

// ---- Flush / inspection ---------------------------------------------------

/// Merged snapshot of all recorded events, sorted by timestamp. Intended
/// for tests and in-process consumers; safe to call while other threads
/// record (events published after the snapshot began may be missed).
std::vector<Event> snapshot_events();

/// All registered counters with their current values.
std::vector<std::pair<std::string, double>> snapshot_counters();

/// Human-readable summary: per-span count/total/mean/min/max/p50/p99
/// (from the latency histograms) plus counters and byte gauges.
/// Empty string when nothing was recorded.
std::string stats_summary();

/// Writes the configured sinks: the Chrome trace JSON when a trace path
/// is set, the stats summary when SYMPVL_STATS is set, the Prometheus
/// document when SYMPVL_METRICS is set. Idempotent; also installed via
/// atexit when a sink is configured from the environment.
void flush();

/// Writes the Chrome trace JSON for everything recorded so far to `path`
/// regardless of sink configuration.
void write_chrome_trace(const std::string& path);

/// Discards all recorded events, zeroes every counter and histogram, and
/// drops byte-gauge high-water marks to their current values (for tests
/// and repeated bench sections). Call only while no instrumented code
/// runs.
void reset();

/// Events dropped because a thread hit its buffer cap (memory backstop).
std::int64_t dropped_events();

// ---- Run metadata ---------------------------------------------------------

/// JSON object describing the host/build/runtime configuration:
/// hardware_concurrency, SYMPVL_NUM_THREADS, resolved thread count,
/// compiler, flags, build type. `indent` prefixes every inner line (for
/// embedding in a larger document).
std::string run_metadata_json(const std::string& indent = "  ");

/// Writes `{"meta": {...}, <key>: <value>, ...}` — the uniform format of
/// the BENCH_*.json perf-trajectory files. Non-finite values become null.
void json_emit_with_meta(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv);

/// Overload that additionally emits numeric-list series (e.g. a
/// time-vs-ports curve) after the scalar keys: `"key": [v0, v1, ...]`.
/// tools/check_perf.py gates list-valued "*_s"/"*_ms" keys element-wise.
void json_emit_with_meta(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv,
    const std::vector<std::pair<std::string, std::vector<double>>>& series);

}  // namespace sympvl::obs
