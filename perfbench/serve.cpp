// serve_mixed: the shipped sympvld in a child process on a unix socket,
// driven by an open-loop generator in this process.
//
// Traffic (fixed here):
//   * paced open loop: request i of a step is due at i / rate; kSenders
//     threads, one kept-alive connection each, take requests in due order
//     and sleep until each is due; latency runs from the due time, so a
//     stall also charges the requests queued behind it;
//   * mix: every block of kMixBlock = 50 consecutive requests holds, in
//     seeded order, 45 sweeps (16-point log band at a seeded offset, 16
//     selected Z entries), 4 evaluates (one jω point) and 1 reduce of a
//     fresh seeded small grid (a registry miss; the registry capacity
//     forces LRU evictions): 90/8/2 %, exact in every latency window, so
//     the cold reduces that set the tail weigh the same in every run;
//   * warm ROMs: a 16-port RLC package (3 of 4 sweeps and evaluates) and
//     a 64-port RC grid;
//   * ladder: the nominal rate for 60 % of the run, then kPasses passes over
//     the rising rates; each rising rate is judged on its passes pooled,
//     and slo_rps is the highest rate whose p99 meets kLatencyLimitS with
//     no growing backlog.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "netgen.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sympvl;

namespace {

// ---- Fixed traffic parameters. ----
constexpr int kSenders = 4;                 // generator threads = connections
constexpr int kDaemonWorkers = 4;           // sympvld --workers
constexpr int kDaemonThreads = 1;           // sympvld --threads
constexpr int kCapacityMb = 1;              // sympvld --capacity-mb
constexpr double kLatencyLimitS = 0.100;    // p99 limit of slo_rps
constexpr double kNominalRate = 200.0;      // req/s of the nominal step
constexpr int kNominalWindows = 3;          // lat_p99_s: median of per-window p99s
constexpr double kNominalShare = 0.6;       // of --seconds, for the nominal step
constexpr double kRising[] = {300.0, 400.0, 500.0};  // req/s per ladder pass
constexpr int kPasses = 3;                  // ladder passes, pooled per rate
constexpr int kMixBlock = 50;               // requests per block of the mix
constexpr int kBlockEvaluates = 4;          // evaluates per block
constexpr int kBlockReduces = 1;            // reduces per block; the rest sweep
constexpr int kSweepPoints = 16;            // points per served sweep
constexpr double kGridShare = 0.25;         // of sweeps/evaluates on the grid ROM
constexpr int kSampleEvery = 16;            // bit-for-bit check of every 16th sweep

ModelSpec warm_grid_spec() {
  ModelSpec s;
  s.rows = s.cols = 48;
  s.ports = 64;
  s.order = 64;
  return s;
}
constexpr int kPackageOrder = 48;
constexpr double kPackageLo = 1e8, kPackageHi = 1e10;

ModelSpec cold_spec() {
  ModelSpec s;
  s.rows = s.cols = 24;
  s.ports = 8;
  s.order = 32;
  return s;
}

std::string package_options_json() {
  return "{\"order\": " + std::to_string(kPackageOrder) + "}";
}

std::string reduce_body(const std::string& netlist, const std::string& options) {
  return "{\"v\":1,\"op\":\"reduce\",\"netlist\":" + obs::json_string(netlist) +
         ",\"options\":" + options + "}";
}

/// The 16 Z entries a served sweep asks for: the diagonal of the first 8
/// ports and 8 couplings.
std::string entries_json(long ports) {
  std::string out = "[";
  for (long k = 0; k < 8; ++k)
    out += format("%s[%ld,%ld],[%ld,%ld]", k ? "," : "", k, k, k, (k + ports / 2) % ports);
  return out + "]";
}

/// Child sympvld process on a unix socket. Stops (SIGTERM) and reaps in
/// the destructor.
class DaemonProcess {
 public:
  DaemonProcess(const Args& args, const std::string& socket_path) : socket_(socket_path) {
    ::unlink(socket_.c_str());
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string exe = args.exe_dir + "/sympvld";
    const std::string cap = std::to_string(kCapacityMb);
    const std::string workers = std::to_string(kDaemonWorkers);
    const std::string threads = std::to_string(kDaemonThreads);
    std::vector<std::string> argv_s = {exe, "--port", "-1", "--unix", socket_,
                                       "--capacity-mb", cap, "--workers", workers,
                                       "--threads", threads};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: die with this process even if it is killed outright.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(fds[1], 1);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(exe.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    if (pid_ < 0) {
      ::close(fds[0]);
      throw std::runtime_error("cannot start " + exe);
    }
    // Wait (≤ 10 s) for the "listening on unix:" line.
    std::string seen;
    const Clock::time_point t0 = Clock::now();
    while (seen.find("unix:") == std::string::npos && seconds_since(t0) < 10.0) {
      pollfd p{fds[0], POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      seen.append(buf, static_cast<std::size_t>(n));
    }
    out_fd_ = fds[0];
    if (seen.find("unix:") == std::string::npos) {
      stop();
      throw std::runtime_error("sympvld did not start: " + seen);
    }
  }
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

enum class Kind { kSweep, kEvaluate, kReduce };

struct Request {
  double due_s = 0.0;
  Kind kind = Kind::kSweep;
  int rom = 0;  ///< warm ROM index (sweep/evaluate)
  std::string body;
};

struct Reply {
  double send_s = 0.0, done_s = 0.0;
  bool sent = false;       ///< false: no connection, or abandoned
  bool abandoned = false;  ///< never sent: still unsent past the drain limit
  bool ok = false;
  std::string body;  ///< kept for sampled sweeps only
};

struct WarmRom {
  std::string netlist, options, key;
  long ports = 0;
  double f_lo = 0.0, f_hi = 0.0;
};

std::string sweep_body(const WarmRom& w, double shift) {
  return format("{\"v\":1,\"op\":\"sweep\",\"rom\":\"%s\",\"grid\":{\"start_hz\":%.6g,"
                "\"stop_hz\":%.6g,\"points\":%d,\"spacing\":\"log\"},\"entries\":",
                w.key.c_str(), w.f_lo * shift, w.f_hi * shift, kSweepPoints) +
         entries_json(w.ports) + "}";
}

std::string response_rom_key(const std::string& body) {
  const obs::JsonValue v = obs::json_parse(body);
  const obs::JsonValue* result = v.find("result");
  const obs::JsonValue* rom = result ? result->find("rom") : nullptr;
  return rom ? rom->as_string("rom") : "";
}

/// The envelope's "ok" is the second member: {"v":1,"ok":true,...}.
bool reply_ok(const std::string& body) {
  const std::size_t at = body.find("\"ok\":true");
  return at != std::string::npos && at < 16;
}

/// The requests of one ladder step (due times relative to the step start):
/// `rate` × `seconds` requests rounded to whole mix blocks.
std::vector<Request> plan_step(const std::vector<WarmRom>& roms, double rate,
                               double seconds, std::uint64_t seed, int step) {
  Rng rng(mix_seed(seed, 7000 + static_cast<std::uint64_t>(step)));
  const ModelSpec cold = cold_spec();
  const long n = kMixBlock * std::max(1L, std::lround(rate * seconds / kMixBlock));
  std::vector<Request> plan(static_cast<std::size_t>(n));
  std::vector<Kind> block(static_cast<std::size_t>(kMixBlock));
  for (long i = 0; i < n; ++i) {
    if (i % kMixBlock == 0) {
      // The block's fixed mix in a fresh seeded order.
      std::fill(block.begin(), block.end(), Kind::kSweep);
      std::fill_n(block.begin(), kBlockEvaluates, Kind::kEvaluate);
      std::fill_n(block.begin() + kBlockEvaluates, kBlockReduces, Kind::kReduce);
      for (long k = kMixBlock - 1; k > 0; --k)
        std::swap(block[static_cast<std::size_t>(k)],
                  block[static_cast<std::size_t>(rng.below(k + 1))]);
    }
    Request& q = plan[static_cast<std::size_t>(i)];
    q.due_s = static_cast<double>(i) / rate;
    q.kind = block[static_cast<std::size_t>(i % kMixBlock)];
    q.rom = roms.size() > 1 && rng.uniform() < kGridShare ? 1 : 0;
    const WarmRom& w = roms[static_cast<std::size_t>(q.rom)];
    const double shift = std::pow(10.0, 0.5 * rng.uniform());
    if (q.kind == Kind::kSweep) {
      q.body = sweep_body(w, shift);
    } else if (q.kind == Kind::kEvaluate) {
      q.body = format("{\"v\":1,\"op\":\"evaluate\",\"rom\":\"%s\",\"s\":[0,%.9g]}",
                      w.key.c_str(), 2.0 * M_PI * std::sqrt(w.f_lo * w.f_hi) * shift);
    } else {
      const std::uint64_t net_seed = mix_seed(seed, 100000 + 10000 * step + i);
      q.body = reduce_body(rc_grid_netlist(cold.rows, cold.cols, cold.ports, net_seed),
                           reduce_options_json(cold));
    }
  }
  return plan;
}

/// One ladder step as sent: replies plus the clock origin of its times.
struct StepRun {
  Clock::time_point t0;
  std::vector<Reply> replies;
};

/// Sends `plan` open loop from kSenders threads. A request still unsent
/// `drain_limit_s` after the last due time is abandoned.
StepRun run_step(const std::string& socket, const std::vector<Request>& plan,
                 double drain_limit_s) {
  StepRun run;
  run.replies.resize(plan.size());
  std::atomic<std::size_t> next{0};
  run.t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point t0 = run.t0;
  const double last_due = plan.empty() ? 0.0 : plan.back().due_s;
  auto connect = [&socket]() -> std::unique_ptr<serve::HttpClient> {
    try {
      return std::make_unique<serve::HttpClient>(serve::HttpClient::connect_unix(socket));
    } catch (const std::exception&) {
      return nullptr;
    }
  };
  auto sender = [&] {
    std::unique_ptr<serve::HttpClient> client = connect();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.size()) break;
      Reply& r = run.replies[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan[i].due_s)));
      r.send_s = seconds_since(t0);
      if (r.send_s > last_due + drain_limit_s || !client) {
        r.done_s = r.send_s;
        r.abandoned = client != nullptr;
        r.body = client ? "abandoned: generator fell behind" : "no connection";
        continue;
      }
      r.sent = true;
      try {
        std::string body = client->post_api(plan[i].body);
        r.ok = reply_ok(body);
        if (!r.ok || (plan[i].kind == Kind::kSweep && i % kSampleEvery == 0))
          r.body = std::move(body);
      } catch (const std::exception& e) {
        r.body = e.what();
        client = connect();
      }
      r.done_s = seconds_since(t0);
    }
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < kSenders; ++k) threads.emplace_back(sender);
  for (auto& t : threads) t.join();
  return run;
}

struct StepStats {
  double rate = 0.0;
  std::vector<double> latency, sweep_latency, reduce_latency, lag;
  long missed = 0;  ///< failed or never sent
  bool backlog = false;
  double slo_p99 = 0.0;  ///< the p99 judged against the limit
  double p99() const { return quantile(latency, 0.99); }
  /// Median over `windows` equal consecutive slices of the step of each
  /// slice's p99: one host stall moves one slice, not the result.
  double windowed_p99(int windows) const {
    std::vector<double> p99s;
    const std::size_t n = latency.size();
    for (int w = 0; w < windows; ++w)
      p99s.push_back(quantile(std::vector<double>(latency.begin() + static_cast<long>(n * w / windows),
                                                  latency.begin() + static_cast<long>(n * (w + 1) / windows)),
                              0.99));
    return median(p99s);
  }
};

StepStats summarize(double rate, const std::vector<Request>& plan,
                    const std::vector<Reply>& replies) {
  StepStats s;
  s.rate = rate;
  const std::size_t n = plan.size();
  for (std::size_t i = 0; i < n; ++i) {
    // A failed request misses any latency limit. An abandoned one counts
    // with the lateness it had reached: past the drain limit, so past the
    // latency limit too, but finite, so slo_rate can still interpolate.
    const Reply& r = replies[i];
    const double lat = r.ok          ? r.done_s - plan[i].due_s
                       : r.abandoned ? r.send_s - plan[i].due_s
                                     : std::numeric_limits<double>::infinity();
    s.latency.push_back(lat);
    s.lag.push_back(std::max(0.0, r.send_s - plan[i].due_s));
    if (plan[i].kind == Kind::kSweep) s.sweep_latency.push_back(lat);
    if (plan[i].kind == Kind::kReduce) s.reduce_latency.push_back(lat);
    if (!r.ok) ++s.missed;
  }
  // A growing backlog: the last tenth of the step went out later than the
  // latency limit (the senders fell behind the schedule for good).
  const std::size_t tail = std::max<std::size_t>(1, n / 10);
  s.backlog = median(std::vector<double>(s.lag.end() - static_cast<long>(tail),
                                         s.lag.end())) > kLatencyLimitS;
  s.slo_p99 = s.p99();
  return s;
}

/// The highest rate whose p99 meets kLatencyLimitS with no backlog: the
/// last such ladder step, refined by log–log interpolation of p99 toward
/// the first step that fails. Failed requests count as infinitely late,
/// abandoned ones by their lateness, and a backlog already shows as tail
/// latency, so the interpolation needs no other penalty. When even the nominal step misses the limit,
/// its rate scaled by limit ÷ p99.
double slo_rate(const std::vector<StepStats>& steps) {
  auto meets = [](const StepStats& s) { return !s.backlog && s.slo_p99 <= kLatencyLimitS; };
  const StepStats& nominal = steps.front();
  if (!meets(nominal))
    return nominal.rate * std::min(1.0, kLatencyLimitS / nominal.slo_p99);
  std::size_t k = 1;
  while (k < steps.size() && meets(steps[k])) ++k;
  if (k == steps.size()) return steps.back().rate;
  const StepStats& a = steps[k - 1];
  const StepStats& b = steps[k];
  const double pa = a.slo_p99;
  const double pb = b.slo_p99;
  if (!std::isfinite(pb) || pb <= pa) return a.rate;
  const double t = std::log(kLatencyLimitS / pa) / std::log(pb / pa);
  return a.rate * std::pow(b.rate / a.rate, std::clamp(t, 0.0, 1.0));
}

/// Compares a served sweep body with the in-process sweep of the same
/// ROM at the frequencies the daemon reported, bit for bit.
bool served_sweep_matches(const std::string& body, const MacroModel& model, long ports) {
  const obs::JsonValue v = obs::json_parse(body);
  const obs::JsonValue* result = v.find("result");
  const obs::JsonValue* freqs_j = result ? result->find("frequencies_hz") : nullptr;
  const obs::JsonValue* values_j = result ? result->find("values") : nullptr;
  if (!freqs_j || !values_j) return false;
  Vec freqs;
  for (const auto& f : freqs_j->as_array("frequencies_hz")) freqs.push_back(f.as_number());
  const auto& values = values_j->as_array("values");
  const SweepResult local = sweep(model, freqs);
  if (!local.all_ok() || values.size() != freqs.size()) return false;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const auto& point = values[k].as_array("point");
    if (point.size() != 16) return false;
    for (long e = 0; e < 8; ++e) {
      const std::pair<long, long> ij[2] = {{e, e}, {e, (e + ports / 2) % ports}};
      for (int t = 0; t < 2; ++t) {
        const auto& c = point[static_cast<std::size_t>(2 * e + t)].as_array("entry");
        const Complex want = local.values[k](ij[t].first, ij[t].second);
        if (c.size() != 2 || c[0].as_number() != want.real() ||
            c[1].as_number() != want.imag())
          return false;
      }
    }
  }
  return true;
}

void add_registry_batcher(const serve::RegistryStats& reg, const serve::BatchStats& bat,
                          Outcome& out) {
  out.add("registry.hit_ratio",
          static_cast<double>(reg.hits) / std::max<double>(1.0, static_cast<double>(reg.hits + reg.misses)),
          "1");
  out.add("registry.evictions", static_cast<double>(reg.evictions), "count");
  out.add("registry.single_flight_shared", static_cast<double>(reg.single_flight_shared), "count");
  out.add("registry.resident_bytes", static_cast<double>(reg.resident_bytes), "B");
  out.add("batcher.coalesced_ratio",
          static_cast<double>(bat.coalesced) / std::max<double>(1.0, static_cast<double>(bat.requests)),
          "1");
  out.add("batcher.max_batch", static_cast<double>(bat.max_batch), "count");
}

/// Registry and batcher counters of the live daemon, from its status op.
void status_counters(const std::string& socket, serve::RegistryStats& reg,
                     serve::BatchStats& bat) {
  serve::HttpClient client = serve::HttpClient::connect_unix(socket);
  const obs::JsonValue v = obs::json_parse(client.post_api("{\"v\":1,\"op\":\"status\"}"));
  auto at = [&v](const char* group, const char* key) -> double {
    const obs::JsonValue* r = v.find("result");
    const obs::JsonValue* g = r ? r->find(group) : nullptr;
    const obs::JsonValue* x = g ? g->find(key) : nullptr;
    return x ? x->as_number(key) : 0.0;
  };
  reg.hits = static_cast<std::uint64_t>(at("registry", "hits"));
  reg.misses = static_cast<std::uint64_t>(at("registry", "misses"));
  reg.evictions = static_cast<std::uint64_t>(at("registry", "evictions"));
  reg.single_flight_shared = static_cast<std::uint64_t>(at("registry", "single_flight_shared"));
  reg.resident_bytes = static_cast<std::int64_t>(at("registry", "resident_bytes"));
  bat.requests = static_cast<std::uint64_t>(at("batch", "requests"));
  bat.coalesced = static_cast<std::uint64_t>(at("batch", "coalesced"));
  bat.max_batch = static_cast<Index>(at("batch", "max_batch"));
}

/// The warm ROM family of a seed: the 16-port package and the 64-port
/// grid (keys unset until registered with a daemon).
std::vector<WarmRom> warm_roms(std::uint64_t seed) {
  const ModelSpec g = warm_grid_spec();
  return {{rlc_package_netlist(32, 10, mix_seed(seed, 500)), package_options_json(), "", 16,
           kPackageLo, kPackageHi},
          {rc_grid_netlist(g.rows, g.cols, g.ports, mix_seed(seed, 501)),
           reduce_options_json(g), "", g.ports, g.f_lo, g.f_hi}};
}

/// Reduces each ROM through `post` (request body → response body) and
/// records its registry key.
template <typename Post>
void register_roms(std::vector<WarmRom>& roms, Post&& post) {
  for (WarmRom& w : roms) {
    const std::string reply = post(reduce_body(w.netlist, w.options));
    if (!reply_ok(reply))
      throw std::runtime_error("warm-up reduce failed: " + reply.substr(0, 200));
    w.key = response_rom_key(reply);
  }
}

/// Warms a freshly started daemon with the package and grid ROMs.
std::vector<WarmRom> warm_up(const std::string& socket, std::uint64_t seed) {
  serve::HttpClient client = serve::HttpClient::connect_unix(socket);
  std::vector<WarmRom> roms = warm_roms(seed);
  register_roms(roms, [&client](const std::string& body) { return client.post_api(body); });
  return roms;
}

/// Counts every sent request's reply in `out` (an ok:false or transport
/// error is a failed operation; abandoned requests only miss the limit).
void count_replies(const std::vector<Request>& plan, const std::vector<Reply>& replies,
                   Outcome& out) {
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (replies[i].sent)
      out.check(replies[i].ok, format("request %zu failed: %.200s", i, replies[i].body.c_str()));
}

}  // namespace

void probe_serve_layers(const Args& args, bool burst, Tracer& tr, Outcome& out) {
  const int it = 1000;
  const std::string socket = args.run_dir + "/probe-" + std::to_string(::getpid()) + ".sock";
  serve::DaemonOptions opt;
  opt.http_port = -1;
  opt.unix_path = socket;
  opt.http_workers = kDaemonWorkers;
  opt.registry_capacity_bytes = std::int64_t(kCapacityMb) << 20;
  serve::Daemon daemon(opt);
  daemon.start();

  // Per-op handle() times on the package ROM (the hot model of the mix).
  std::vector<WarmRom> roms = warm_roms(mix_seed(args.seed, 900));
  const std::string reduce_req = reduce_body(roms[0].netlist, roms[0].options);
  std::vector<double> parse;
  for (int k = 0; k < 9; ++k)
    parse.push_back(tr.time("protocol.parse", it, [&] { (void)serve::parse_request(reduce_req); }));
  out.add("protocol.parse_s", median(parse), "s");
  std::string reply;
  out.add("daemon.reduce_s",
          tr.time("daemon.reduce", it, [&] { reply = daemon.handle(reduce_req); }), "s");
  out.check(reply_ok(reply), "serve probe: reduce not ok");
  register_roms(roms, [&daemon](const std::string& body) { return daemon.handle(body); });
  const std::string sweep_req = sweep_body(roms[0], 1.0);
  const std::string eval_req =
      format("{\"v\":1,\"op\":\"evaluate\",\"rom\":\"%s\",\"s\":[0,%.9g]}",
             roms[0].key.c_str(), 2.0 * M_PI * std::sqrt(kPackageLo * kPackageHi));
  std::vector<double> sw, ev;
  for (int k = 0; k < 9; ++k) {
    sw.push_back(tr.time("daemon.sweep", it, [&] { reply = daemon.handle(sweep_req); }));
    out.check(reply_ok(reply), "serve probe: sweep not ok");
    ev.push_back(tr.time("daemon.evaluate", it, [&] { reply = daemon.handle(eval_req); }));
    out.check(reply_ok(reply), "serve probe: evaluate not ok");
  }
  out.add("daemon.sweep_s", median(sw), "s");
  out.add("daemon.evaluate_s", median(ev), "s");

  // Transport overhead: the unix-socket round trip of a status request
  // minus handle() of the same body.
  const std::string status_req = "{\"v\":1,\"op\":\"status\"}";
  std::vector<double> direct, round_trip;
  {
    serve::HttpClient client = serve::HttpClient::connect_unix(socket);
    for (int k = 0; k < 51; ++k) {
      direct.push_back(tr.time("daemon.status", it, [&] { reply = daemon.handle(status_req); }));
      round_trip.push_back(
          tr.time("http.status_round_trip", it, [&] { reply = client.post_api(status_req); }));
      out.check(reply_ok(reply), "serve probe: socket status not ok");
    }
  }
  out.add("http.overhead_s", median(round_trip) - median(direct), "s");

  if (burst) {
    // One second of the serve_mixed mix at the nominal rate against this
    // in-process daemon: fills the registry, batcher and generator keys.
    const std::vector<Request> plan = plan_step(roms, kNominalRate, 1.0, args.seed, 99);
    const std::int64_t rss0 = proc_status_bytes(0, "VmRSS");
    const int span = tr.begin("serve.burst", it);
    const StepRun run = run_step(socket, plan, 1.0);
    tr.end(span);
    count_replies(plan, run.replies, out);
    const StepStats s = summarize(kNominalRate, plan, run.replies);
    add_registry_batcher(daemon.registry().stats(), daemon.batcher().stats(), out);
    out.add("obs.rss_per_request_bytes",
            static_cast<double>(proc_status_bytes(0, "VmRSS") - rss0) /
                static_cast<double>(plan.size()), "B");
    out.add("gen.lag_p99_s", quantile(s.lag, 0.99), "s");
  }
  daemon.stop();
}

Outcome run_serve_workload(const Args& args) {
  Outcome out;
  host_notes(out);
  const std::string socket = args.run_dir + "/sympvld-" + std::to_string(::getpid()) + ".sock";

  // Set-up, three times (median = setup_s): start sympvld, wait until it
  // listens, reduce the two warm ROMs, then one second of the mix at
  // the nominal rate so connections, pools and allocator arenas are warm.
  // The last daemon serves the run.
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<WarmRom> roms;
  std::vector<double> setup;
  for (int k = 0; k < 3; ++k) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(args, socket);
    roms = warm_up(socket, args.seed);
    const std::vector<Request> warm = plan_step(roms, kNominalRate, 1.0, args.seed, 50 + k);
    const StepRun run = run_step(socket, warm, 1.0);
    count_replies(warm, run.replies, out);
    setup.push_back(seconds_since(t0));
  }
  const std::int64_t rss_setup = proc_status_bytes(daemon->pid(), "VmRSS");

  // The nominal step, then the ladder passes.
  const double nominal_s = kNominalShare * args.seconds;
  const int rising = static_cast<int>(std::size(kRising));
  const double step_s = (args.seconds - nominal_s) / (rising * kPasses);
  Tracer tracer(args.trace);
  const CpuTicks ticks0 = cpu_ticks();
  std::vector<std::vector<Request>> plans;
  std::vector<StepRun> runs;
  std::vector<StepStats> steps;
  for (int k = 0; k <= rising * kPasses; ++k) {
    const double rate = k == 0 ? kNominalRate : kRising[(k - 1) % rising];
    plans.push_back(plan_step(roms, rate, k == 0 ? nominal_s : step_s, args.seed, k));
    // A short pause lets the queue of an overloaded step drain first.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const int span = tracer.begin(format("ladder.%g_rps", rate), k);
    runs.push_back(run_step(daemon->socket(), plans.back(), 2.0 * kLatencyLimitS));
    tracer.end(span);
    steps.push_back(summarize(rate, plans.back(), runs.back().replies));
    // The long nominal step is judged like lat_p99_s, by window.
    if (k == 0) steps.back().slo_p99 = steps.back().windowed_p99(kNominalWindows);
    count_replies(plans.back(), runs.back().replies, out);
  }
  const std::int64_t rss_end = proc_status_bytes(daemon->pid(), "VmRSS");
  out.note(steal_note(ticks0, cpu_ticks()));
  const std::int64_t hwm = proc_status_bytes(daemon->pid(), "VmHWM");
  serve::RegistryStats reg;
  serve::BatchStats bat;
  status_counters(daemon->socket(), reg, bat);
  daemon.reset();

  // Sampled served sweeps must equal the in-process sweep of the same ROM
  // (same netlist text, same options) bit for bit.
  ReduceOptions package_options;
  package_options.order = kPackageOrder;
  const ReduceOptions options[] = {package_options, reduce_options(warm_grid_spec())};
  std::vector<MacroModel> local;
  for (std::size_t k = 0; k < roms.size(); ++k) {
    const ReduceResult r = reduce(parse_netlist(roms[k].netlist), options[k]);
    out.check(r.ok(), "in-process reduce of a warm ROM failed");
    local.push_back(r.model);
  }
  long compared = 0;
  for (std::size_t k = 0; k < plans.size(); ++k)
    for (std::size_t i = 0; i < plans[k].size(); ++i) {
      const Reply& r = runs[k].replies[i];
      if (plans[k][i].kind != Kind::kSweep || !r.ok || r.body.empty()) continue;
      const auto rom = static_cast<std::size_t>(plans[k][i].rom);
      out.check(served_sweep_matches(r.body, local[rom], roms[rom].ports),
                format("served sweep %zu of step %zu differs from sympvl::sweep", i, k));
      ++compared;
    }
  out.note(format("%ld served sweeps compared bit for bit with sympvl::sweep", compared));

  // Exact AC checks of the served 64-port grid ROM's netlist and eight more
  // of its family (median = check_s; worst error = rom_digits).
  Tracer quiet(false);
  const ModelSpec g = warm_grid_spec();
  std::vector<PipelineSample> checks;
  std::vector<double> check_s;
  double worst_err = 0.0;
  for (int k = 0; k < 9; ++k) {
    const std::string text =
        k == 0 ? roms[1].netlist
               : rc_grid_netlist(g.rows, g.cols, g.ports, mix_seed(args.seed, 510 + k));
    checks.push_back(
        run_pipeline_once(g, text, -1 - k, true, args.trace ? tracer : quiet, out));
    check_s.push_back(checks.back().check_s);
    worst_err = std::max(worst_err, checks.back().rom_err);
  }
  // The served netlist's own factor is cached by the reduce above, so the
  // traced probe's report cross-check uses the first fresh netlist.
  const PipelineSample& grid = checks[1];

  const StepStats& nominal = steps.front();
  for (const StepStats& s : steps)
    out.note(format("step %5.0f req/s: n=%zu p50=%.4fs p99=%.4fs missed=%ld lag_p99=%.4fs%s",
                    s.rate, s.latency.size(), quantile(s.latency, 0.5), s.p99(), s.missed,
                    quantile(s.lag, 0.99), s.backlog ? " BACKLOG" : ""));
  // Each rising rate is judged on its passes pooled; it has a backlog
  // when most of its passes had one.
  std::vector<StepStats> ladder = {nominal};
  for (int r = 0; r < rising; ++r) {
    StepStats pooled;
    pooled.rate = kRising[r];
    int backlogged = 0;
    for (int p = 0; p < kPasses; ++p) {
      const StepStats& s = steps[static_cast<std::size_t>(1 + p * rising + r)];
      pooled.latency.insert(pooled.latency.end(), s.latency.begin(), s.latency.end());
      pooled.lag.insert(pooled.lag.end(), s.lag.begin(), s.lag.end());
      pooled.missed += s.missed;
      backlogged += s.backlog ? 1 : 0;
    }
    pooled.backlog = 2 * backlogged > kPasses;
    pooled.slo_p99 = pooled.p99();
    out.note(format("rate %5.0f req/s, %d passes pooled: n=%zu p99=%.4fs missed=%ld%s",
                    pooled.rate, kPasses, pooled.latency.size(), pooled.slo_p99,
                    pooled.missed, pooled.backlog ? " BACKLOG" : ""));
    ladder.push_back(std::move(pooled));
  }
  const double slo_rps = slo_rate(ladder);

  if (!args.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("model_s", median(nominal.reduce_latency), "s");
    out.add("check_s", median(check_s), "s");
    out.add("rom_sweep_s", median(nominal.sweep_latency), "s");
    out.add("rom_digits", -std::log10(std::max(worst_err, 1e-16)), "digits");
    out.add("peak_rss_bytes", static_cast<double>(hwm), "B");
    out.add("rss_growth_bytes", static_cast<double>(rss_end - rss_setup), "B");
    out.add("lat_p50_s", quantile(nominal.latency, 0.5), "s");
    out.add("lat_p99_s", nominal.slo_p99, "s");
    out.add("slo_rps", slo_rps, "1/s");
    out.note(format("nominal step: %zu requests; %zu cold reduces p50=%.4fs max=%.4fs; "
                    "sweeps p99=%.4fs", nominal.latency.size(), nominal.reduce_latency.size(),
                    median(nominal.reduce_latency), quantile(nominal.reduce_latency, 1.0),
                    quantile(nominal.sweep_latency, 0.99)));
    return out;
  }

  // Traced run: per-request spans from the recorded times, the pipeline
  // layers on a fresh grid of the warm-ROM family, the in-process serving
  // layers on the package, and the live daemon's counters.
  long requests = 0;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    requests += static_cast<long>(plans[k].size());
    for (std::size_t i = 0; i < plans[k].size(); ++i) {
      const auto at = [&](double s) {
        return runs[k].t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s));
      };
      const Kind kind = plans[k][i].kind;
      tracer.record(kind == Kind::kSweep      ? "request.sweep"
                    : kind == Kind::kEvaluate ? "request.evaluate"
                                              : "request.reduce",
                    at(plans[k][i].due_s), at(runs[k].replies[i].done_s), static_cast<int>(k));
    }
  }
  probe_pipeline_layers(g, rc_grid_netlist(g.rows, g.cols, g.ports, mix_seed(args.seed, 502)),
                        grid, 1, tracer, out);
  out.add("mem.unaccounted_bytes",
          static_cast<double>(grid.peak_rss_after_model - grid.report.factor_bytes -
                              grid.report.krylov_peak_bytes),
          "B");
  probe_serve_layers(args, false, tracer, out);
  add_registry_batcher(reg, bat, out);
  out.add("obs.rss_per_request_bytes",
          static_cast<double>(rss_end - rss_setup) / static_cast<double>(requests), "B");
  out.add("gen.lag_p99_s", quantile(nominal.lag, 0.99), "s");
  finish_trace(args, tracer, grid.model_s, out);
  return out;
}

}  // namespace perfbench
