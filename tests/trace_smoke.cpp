// Trace smoke test (ctest label "Trace"): runs a small SyMPVL reduction
// and AC sweep with SYMPVL_TRACE set, then validates the emitted Chrome
// trace-event JSON:
//   * structurally valid JSON (balanced braces/brackets outside strings,
//     no bare nan/inf tokens);
//   * at least one complete ('X') event for every pipeline stage
//     (factorization, start block, Lanczos, sweep, per-point solve);
//   * thread-pool workers appear as named lanes ("pool-worker-K").
// Built standalone (not into the gtest binary) so the env var is set
// before the process touches any instrumented code; runs under
// -DSYMPVL_SANITIZE=thread to prove the recording hot path is data-race
// free while pool workers record concurrently.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_circuit.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/sympvl.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

// Structural scan: braces/brackets balanced outside string literals.
bool json_well_formed(const std::string& doc) {
  int depth = 0;
  bool in_string = false, escape = false;
  for (char c : doc) {
    if (in_string) {
      if (escape)
        escape = false;
      else if (c == '\\')
        escape = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

int count_occurrences(const std::string& doc, const std::string& needle) {
  int n = 0;
  for (size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// Splits the traceEvents array into its top-level event objects (nested
// args braces handled by depth tracking).
std::vector<std::string> split_events(const std::string& doc) {
  std::vector<std::string> events;
  int depth = 0;
  bool in_string = false, escape = false;
  size_t start = std::string::npos;
  for (size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (escape)
        escape = false;
      else if (c == '\\')
        escape = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') {
      // Event objects sit at depth 3: root object > traceEvents array >
      // event.
      if (++depth == 3 && c == '{') start = i;
    } else if (c == '}' || c == ']') {
      if (depth-- == 3 && c == '}' && start != std::string::npos) {
        events.push_back(doc.substr(start, i - start + 1));
        start = std::string::npos;
      }
    }
  }
  return events;
}

// "tid" value of one event object; -1 when absent.
long long event_tid(const std::string& ev) {
  const size_t pos = ev.find("\"tid\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(ev.c_str() + pos + 6);
}

}  // namespace

int main() {
  using namespace sympvl;
  const char* trace_path = "trace_smoke_out.json";
  // Before any instrumented call: the obs layer resolves its sinks from
  // the environment lazily, so this is the production code path.
#ifdef _WIN32
  _putenv_s("SYMPVL_TRACE", trace_path);
#else
  setenv("SYMPVL_TRACE", trace_path, 1);
#endif
  // Force real pool workers even on 1-core hosts: the pool spawns
  // count-1 workers (the caller participates), so 3 threads = 2 workers.
  set_num_threads(3);

  // Small but complete pipeline: reduction plus exact AC sweep.
  const Netlist nl = random_rc({.nodes = 40, .ports = 2, .seed = 11});
  const MnaSystem sys = build_mna(nl);
  SympvlOptions opt;
  opt.order = 8;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  check(report.achieved_order == 8, "reduction reached order 8");

  const Vec freqs = log_frequency_grid(1e6, 1e9, 16);
  const AcSweepEngine engine(sys);
  const SweepResult sweep = sympvl::sweep(engine, freqs);
  check(sweep.size() == freqs.size(), "sweep produced every point");
  check(sweep.all_ok(), "sweep produced no failed points");

  // ---- Supernodal kernel lanes (Metrics v2). ----
  // A 2-D grid Laplacian is large enough that several elimination-tree
  // levels pass the solve grain gate, so the blocked TRSMs fan out across
  // the pool; their per-chunk spans must then land on the workers' lanes,
  // each carrying its simd/threads/flops args. The numeric factor records
  // one kernel.panel_update span on the caller, carrying simd/flops.
  {
    const Index g = 110;
    const Index n = g * g;
    TripletBuilder<double> t(n, n);
    for (Index r = 0; r < g; ++r)
      for (Index c = 0; c < g; ++c) {
        const Index i = r * g + c;
        t.add(i, i, 4.5);
        if (c + 1 < g) { t.add(i, i + 1, -1.0); t.add(i + 1, i, -1.0); }
        if (r + 1 < g) { t.add(i, i + g, -1.0); t.add(i + g, i, -1.0); }
      }
    // Min-degree: RCM's banded etree is a width-1 chain (nothing to fan
    // out); min-degree gives the bushy tree with wide levels.
    const LDLT fact(t.compress(), Ordering::kMinDegree);
    Mat rhs(n, 16);
    for (Index i = 0; i < n; ++i)
      for (Index j = 0; j < 16; ++j)
        rhs(i, j) = 1.0 + 0.001 * static_cast<double>(i + j);
    const Mat x = fact.solve(rhs);
    check(x.rows() == n, "blocked grid solve produced a full solution");
  }

  obs::flush();

  auto read_trace = [&]() -> std::string {
    std::ifstream in(trace_path);
    if (!in.good()) return {};
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  std::string doc = read_trace();
  check(!doc.empty(), "trace file was written");
  // Workers name their lanes as their first action after spawning; on a
  // loaded 1-core host the caller can drain every chunk before a fresh
  // worker is even scheduled, so give naming a bounded grace period.
  for (int tries = 0;
       tries < 200 && (doc.find("\"pool-worker-0\"") == std::string::npos ||
                       doc.find("\"pool-worker-1\"") == std::string::npos);
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    obs::flush();
    doc = read_trace();
  }
  std::remove(trace_path);

  check(json_well_formed(doc), "trace JSON is structurally valid");
  check(doc.find("\"traceEvents\"") != std::string::npos,
        "trace has a traceEvents array");
  check(count_occurrences(doc, ": nan") + count_occurrences(doc, ": inf") == 0,
        "no bare non-finite tokens");

  // One complete event per pipeline stage.
  for (const char* stage :
       {"sympvl.factor", "sympvl.start_block", "sympvl.lanczos",
        "ldlt.factor", "ac.sweep", "ac.z_at", "parallel.chunk"}) {
    const std::string needle = "\"name\":\"" + std::string(stage) + "\"";
    check(count_occurrences(doc, needle) >= 1,
          std::string("stage event present: ") + stage);
  }

  // Worker lanes are named; two workers were forced above.
  check(count_occurrences(doc, "\"pool-worker-0\"") >= 1 &&
            count_occurrences(doc, "\"pool-worker-1\"") >= 1,
        "both pool workers have named lanes");
  check(count_occurrences(doc, "\"thread_name\"") >= 3,
        "metadata events for main + worker lanes");

  // Per-chunk kernel.trsm spans from the parallel panel solves sit on the
  // workers' lanes (not only the caller's) and carry the kernel args.
  {
    const auto events = split_events(doc);
    std::vector<long long> worker_tids;
    for (const auto& ev : events)
      if (ev.find("\"thread_name\"") != std::string::npos &&
          ev.find("\"pool-worker-") != std::string::npos)
        worker_tids.push_back(event_tid(ev));
    auto on_worker = [&](const std::string& ev) {
      const long long tid = event_tid(ev);
      for (long long w : worker_tids)
        if (tid == w) return true;
      return false;
    };
    int panel_total = 0, panel_with_args = 0;
    int trsm_total = 0, trsm_on_worker = 0, trsm_with_args = 0;
    for (const auto& ev : events) {
      if (event_tid(ev) < 0 || ev.find("\"ph\":\"X\"") == std::string::npos)
        continue;
      const bool has_simd_flops = ev.find("\"simd\"") != std::string::npos &&
                                  ev.find("\"flops\"") != std::string::npos;
      if (ev.find("\"name\":\"kernel.panel_update\"") != std::string::npos) {
        ++panel_total;
        if (has_simd_flops) ++panel_with_args;
      } else if (ev.find("\"name\":\"kernel.trsm\"") != std::string::npos) {
        ++trsm_total;
        if (on_worker(ev)) ++trsm_on_worker;
        if (has_simd_flops && ev.find("\"threads\"") != std::string::npos)
          ++trsm_with_args;
      }
    }
    check(panel_total >= 1, "kernel.panel_update spans recorded");
    check(trsm_total >= 1, "kernel.trsm spans recorded");
    check(trsm_on_worker >= 1, "kernel.trsm chunk span on a pool-worker lane");
    check(panel_with_args == panel_total,
          "every kernel.panel_update span carries simd/flops args");
    check(trsm_with_args == trsm_total,
          "every kernel.trsm span carries simd/threads/flops args");
  }

  if (g_failures == 0) {
    std::printf("trace smoke: OK (%d trace bytes)\n",
                static_cast<int>(doc.size()));
    return 0;
  }
  std::fprintf(stderr, "trace smoke: %d check(s) failed\n", g_failures);
  return 1;
}
