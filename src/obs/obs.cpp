#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "linalg/simd.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/memstat.hpp"
#include "obs/prom_export.hpp"
#include "parallel/thread_pool.hpp"

// Build metadata injected by CMake onto this translation unit; the
// fallbacks keep non-CMake builds compiling.
#ifndef SYMPVL_BUILD_TYPE
#define SYMPVL_BUILD_TYPE "unknown"
#endif
#ifndef SYMPVL_CXX_FLAGS
#define SYMPVL_CXX_FLAGS "unknown"
#endif

namespace sympvl::obs {

namespace detail {
std::atomic<int> g_enabled{-1};
}  // namespace detail

std::int64_t now_us() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

constexpr int kSegCap = 1024;        // events per segment
constexpr size_t kMaxSegments = 512;  // per-thread cap (memory backstop)

struct Segment {
  std::atomic<int> count{0};
  Event ev[kSegCap];
};

// Per-thread event buffer. The owning thread appends lock-free (slot
// store + release store of the segment count); the per-buffer mutex is
// taken only when a segment is added, when the lane is named, and by
// readers snapshotting the segment list.
struct ThreadBuffer {
  std::mutex m;  // guards `segments` and `name`
  std::vector<std::shared_ptr<Segment>> segments;
  std::string name;
  int tid = 0;
  // Writer-thread-only state:
  Segment* cur = nullptr;
  std::uint64_t epoch = 0;

  void push(const Event& e, std::uint64_t global_epoch,
            std::atomic<std::int64_t>& dropped) {
    if (epoch != global_epoch) {
      std::lock_guard<std::mutex> g(m);
      segments.clear();
      cur = nullptr;
      epoch = global_epoch;
    }
    if (cur == nullptr ||
        cur->count.load(std::memory_order_relaxed) == kSegCap) {
      std::lock_guard<std::mutex> g(m);
      if (segments.size() >= kMaxSegments) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      segments.push_back(std::make_shared<Segment>());
      cur = segments.back().get();
    }
    const int n = cur->count.load(std::memory_order_relaxed);
    cur->ev[n] = e;
    cur->count.store(n + 1, std::memory_order_release);
  }
};

struct Global {
  std::mutex m;  // guards everything below
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::string trace_path;
  std::string stats_sink;
  std::string metrics_path;
  int next_tid = 0;

  std::atomic<std::uint64_t> epoch{1};
  std::atomic<std::int64_t> dropped{0};
};

// Leaked intentionally, like the histogram registry: a pool worker
// spawned just before exit can still be registering its buffer (its
// first act is set_thread_name) while static destructors run, since
// the pool joins its workers only when its own static is destroyed.
Global& global() {
  static Global* g = new Global;
  return *g;
}

// Captured while the main thread runs this translation unit's static
// initializers, so the main lane is labeled correctly no matter which
// thread registers its buffer first.
const std::thread::id g_main_thread_id = std::this_thread::get_id();

ThreadBuffer& local_buffer() {
  // The registry holds shared ownership so events survive thread exit
  // (pool shutdown/resize) until the final flush.
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    if (std::this_thread::get_id() == g_main_thread_id) b->name = "main";
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.m);
    b->tid = g.next_tid++;
    g.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

namespace detail {

bool init_enabled_slow() {
  static const int resolved = [] {
    Global& g = global();
    bool sink = false;
    {
      std::lock_guard<std::mutex> lock(g.m);
      if (const char* t = std::getenv("SYMPVL_TRACE"); t != nullptr && *t)
        g.trace_path = t;
      if (const char* s = std::getenv("SYMPVL_STATS"); s != nullptr && *s)
        g.stats_sink = s;
      if (const char* m = std::getenv("SYMPVL_METRICS"); m != nullptr && *m)
        g.metrics_path = m;
      sink = !g.trace_path.empty() || !g.stats_sink.empty() ||
             !g.metrics_path.empty();
    }
    if (sink) std::atexit([] { flush(); });
    g_enabled.store(sink ? 1 : 0, std::memory_order_release);
    return sink ? 1 : 0;
  }();
  (void)resolved;
  // A programmatic enable() may have raced/overridden the env default.
  return g_enabled.load(std::memory_order_relaxed) > 0;
}

void record(const Event& e) {
  // Completed spans feed the latency histograms first so a buffer-cap
  // drop never loses the timing sample.
  if (e.phase == 'X') record_span_duration(e.name, e.dur_us);
  Global& g = global();
  ThreadBuffer& buf = local_buffer();
  Event copy = e;
  copy.tid = buf.tid;
  buf.push(copy, g.epoch.load(std::memory_order_relaxed), g.dropped);
}

}  // namespace detail

void enable(bool on) {
  detail::init_enabled_slow();  // resolve sinks from the environment first
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_release);
}

void set_trace_path(const std::string& path) {
  detail::init_enabled_slow();
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.m);
    g.trace_path = path;
  }
  if (!path.empty())
    detail::g_enabled.store(1, std::memory_order_release);
}

void set_metrics_path(const std::string& path) {
  detail::init_enabled_slow();
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.m);
    g.metrics_path = path;
  }
  if (!path.empty())
    detail::g_enabled.store(1, std::memory_order_release);
}

Counter& counter(const char* name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.m);
  auto& slot = g.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const char* name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.m);
  auto& slot = g.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

void set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.m);
  buf.name = name;
}

namespace {

struct BufferSnapshot {
  int tid = 0;
  std::string name;
  std::vector<std::shared_ptr<Segment>> segments;
};

std::vector<BufferSnapshot> snapshot_buffers() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.m);
    buffers = g.buffers;
  }
  std::vector<BufferSnapshot> out;
  out.reserve(buffers.size());
  for (const auto& b : buffers) {
    BufferSnapshot s;
    std::lock_guard<std::mutex> lock(b->m);
    s.tid = b->tid;
    s.name = b->name;
    s.segments = b->segments;
    out.push_back(std::move(s));
  }
  return out;
}

void append_events(const BufferSnapshot& b, std::vector<Event>& out) {
  for (const auto& seg : b.segments) {
    const int n = seg->count.load(std::memory_order_acquire);
    for (int k = 0; k < n; ++k) out.push_back(seg->ev[k]);
  }
}

}  // namespace

std::vector<Event> snapshot_events() {
  std::vector<Event> out;
  for (const BufferSnapshot& b : snapshot_buffers()) append_events(b, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::vector<std::pair<std::string, double>> snapshot_counters() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.m);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(g.counters.size());
  for (const auto& [name, c] : g.counters) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> snapshot_gauges() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.m);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(g.gauges.size());
  for (const auto& [name, v] : g.gauges) out.emplace_back(name, v->value());
  return out;
}

std::string stats_summary() {
  // Span rows come from the latency histograms (fed by every completed
  // span, never subject to the event-buffer cap); instants still come
  // from the event stream.
  std::vector<std::pair<std::string, HistogramBins>> spans;
  for (auto& [name, bins] : snapshot_histograms())
    if (!bins.empty()) spans.emplace_back(name, std::move(bins));
  std::map<std::string, std::int64_t> instants;
  for (const Event& e : snapshot_events())
    if (e.phase != 'X') ++instants[e.name];
  const auto counters = snapshot_counters();
  const auto gauges = snapshot_gauges();
  const auto byte_gauges = snapshot_byte_gauges();
  if (spans.empty() && instants.empty() && counters.empty() &&
      gauges.empty() && byte_gauges.empty())
    return {};

  std::string out = "== sympvl obs stats ==\n";
  char line[320];
  if (!spans.empty()) {
    std::snprintf(line, sizeof(line),
                  "%-28s %9s %11s %10s %10s %10s %10s %10s\n", "span", "count",
                  "total_ms", "mean_ms", "min_ms", "max_ms", "p50_ms",
                  "p99_ms");
    out += line;
    for (const auto& [name, bins] : spans) {
      const LatencyStats s = latency_stats(bins);
      std::snprintf(line, sizeof(line),
                    "%-28s %9lld %11.3f %10.4f %10.4f %10.3f %10.4f %10.3f\n",
                    name.c_str(), static_cast<long long>(s.count),
                    bins.sum * 1e3, s.mean * 1e3, s.min * 1e3, s.max * 1e3,
                    s.p50 * 1e3, s.p99 * 1e3);
      out += line;
    }
  }
  for (const auto& [name, n] : instants) {
    std::snprintf(line, sizeof(line), "instant %-28s %10lld\n", name.c_str(),
                  static_cast<long long>(n));
    out += line;
  }
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof(line), "counter %-28s %.17g\n", name.c_str(), v);
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof(line), "gauge   %-28s %.17g\n", name.c_str(), v);
    out += line;
  }
  for (const ByteGaugeSnapshot& g : byte_gauges) {
    std::snprintf(line, sizeof(line), "bytes   %-28s %12lld (peak %lld)\n",
                  g.name.c_str(), static_cast<long long>(g.current),
                  static_cast<long long>(g.peak));
    out += line;
  }
  const std::int64_t drops = dropped_events();
  if (drops > 0) {
    std::snprintf(line, sizeof(line), "dropped_events %lld\n",
                  static_cast<long long>(drops));
    out += line;
  }
  return out;
}

namespace {

void write_args(std::ofstream& out, const Event& e) {
  out << ",\"args\":{";
  for (int k = 0; k < e.nargs; ++k) {
    if (k > 0) out << ",";
    out << json_string(e.args[k].key) << ":";
    if (e.args[k].str != nullptr)
      out << json_string(e.args[k].str);
    else
      out << json_number(e.args[k].num);
  }
  out << "}";
}

}  // namespace

void write_chrome_trace(const std::string& path) {
  const auto buffers = snapshot_buffers();
  const auto events = snapshot_events();
  std::ofstream out(path);
  require(out.good(), "obs: cannot open trace file '" + path + "'");
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const BufferSnapshot& b : buffers) {
    sep();
    const std::string name =
        b.name.empty() ? "thread-" + std::to_string(b.tid) : b.name;
    out << R"({"ph":"M","pid":1,"tid":)" << b.tid
        << R"(,"name":"thread_name","args":{"name":)" << json_string(name)
        << "}}";
  }
  for (const Event& e : events) {
    sep();
    out << R"({"ph":")" << e.phase << R"(","pid":1,"tid":)" << e.tid
        << ",\"name\":" << json_string(e.name) << ",\"ts\":" << e.ts_us;
    if (e.phase == 'X') out << ",\"dur\":" << e.dur_us;
    if (e.phase == 'i') out << R"(,"s":"t")";
    write_args(out, e);
    out << "}";
  }
  out << "\n]}\n";
  require(out.good(), "obs: failed writing trace file '" + path + "'");
}

void flush() {
  std::string trace_path, stats_sink, metrics_path;
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.m);
    trace_path = g.trace_path;
    stats_sink = g.stats_sink;
    metrics_path = g.metrics_path;
  }
  if (!trace_path.empty()) write_chrome_trace(trace_path);
  if (!metrics_path.empty()) write_prometheus(metrics_path);
  if (!stats_sink.empty()) {
    const std::string summary = stats_summary();
    if (!summary.empty()) {
      if (stats_sink == "1" || stats_sink == "stderr") {
        std::fputs(summary.c_str(), stderr);
      } else {
        std::ofstream out(stats_sink, std::ios::app);
        out << summary;
      }
    }
  }
}

void reset() {
  Global& g = global();
  // Bump the epoch first so writer threads discard their stale segment
  // pointers before reuse, then clear eagerly so snapshots are empty even
  // for threads that never record again. Contract: no instrumented code
  // may be running concurrently.
  g.epoch.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(g.m);
    buffers = g.buffers;
    for (auto& [name, c] : g.counters) c->reset();
  }
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->m);
    b->segments.clear();
  }
  g.dropped.store(0, std::memory_order_relaxed);
  detail::reset_histograms();
  detail::reset_byte_gauge_peaks();
}

std::int64_t dropped_events() {
  return global().dropped.load(std::memory_order_relaxed);
}

namespace detail {

std::string build_compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_type() { return SYMPVL_BUILD_TYPE; }
const char* cxx_flags() { return SYMPVL_CXX_FLAGS; }

}  // namespace detail

std::string run_metadata_json(const std::string& indent) {
  const std::string compiler = detail::build_compiler();
  const char* env_threads = std::getenv("SYMPVL_NUM_THREADS");
  std::string out = "{\n";
  auto field = [&](const std::string& key, const std::string& value,
                   bool last = false) {
    out += indent + "  " + json_string(key) + ": " + value +
           (last ? "\n" : ",\n");
  };
  field("hardware_concurrency",
        std::to_string(std::thread::hardware_concurrency()));
  field("sympvl_num_threads_env",
        env_threads != nullptr ? json_string(env_threads) : "null");
  field("resolved_threads", std::to_string(num_threads()));
  field("simd_level",
        json_string(simd_level_name(resolve_simd_level(SimdLevel::kAuto))));
  field("compiler", json_string(compiler));
  field("cxx_flags", json_string(SYMPVL_CXX_FLAGS));
  field("build_type", json_string(SYMPVL_BUILD_TYPE), /*last=*/true);
  out += indent + "}";
  return out;
}

void json_emit_with_meta(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv) {
  json_emit_with_meta(path, kv, {});
}

void json_emit_with_meta(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv,
    const std::vector<std::pair<std::string, std::vector<double>>>& series) {
  std::ofstream out(path);
  out << "{\n  \"meta\": " << run_metadata_json("  ");
  const size_t entries = kv.size() + series.size();
  out << (entries == 0 ? "\n" : ",\n");
  size_t emitted = 0;
  for (const auto& [key, value] : kv)
    out << "  " << json_string(key) << ": " << json_number(value)
        << (++emitted < entries ? "," : "") << "\n";
  for (const auto& [key, values] : series) {
    out << "  " << json_string(key) << ": [";
    for (size_t i = 0; i < values.size(); ++i)
      out << (i ? ", " : "") << json_number(values[i]);
    out << "]" << (++emitted < entries ? "," : "") << "\n";
  }
  out << "}\n";
}

}  // namespace sympvl::obs
