// The serving subsystem: protocol golden tests, warm-ROM registry
// (LRU eviction, byte accounting, single-flight), sweep batching
// correctness, and socket end-to-end coverage (TCP + unix, /healthz,
// /metrics, malformed HTTP).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <unistd.h>

#include "circuit/parser.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "obs/json.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

using namespace sympvl::serve;

const char* kRcNetlist =
    "R1 in mid 1k\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n";

std::string reduce_body(const std::string& netlist, Index order = 4) {
  return "{\"v\":1,\"op\":\"reduce\",\"netlist\":" +
         obs::json_string(netlist) +
         ",\"options\":{\"order\":" + std::to_string(order) + "}}";
}

/// Extracts "rom":"<33 chars>" from a reduce response.
std::string rom_of(const std::string& response) {
  const size_t at = response.find("\"rom\":\"");
  EXPECT_NE(at, std::string::npos) << response;
  return response.substr(at + 7, 33);
}

ReduceResult make_rom(const std::string& netlist_text, Index order = 4) {
  ReduceOptions opt;
  opt.order = order;
  return reduce(parse_netlist(netlist_text), opt);
}

// ---- Protocol: request parsing ----------------------------------------

TEST(ServeProtocol, ParsesReduceRequest) {
  const Request r = parse_request(
      "{\"v\":1,\"op\":\"reduce\",\"id\":\"r-1\",\"netlist\":\"R1 a 0 1\\n"
      ".port p a\\n\",\"options\":{\"method\":\"sympvl\",\"order\":8,"
      "\"s0\":1e9}}");
  EXPECT_EQ(r.op, Op::kReduce);
  EXPECT_EQ(r.id, "r-1");
  EXPECT_EQ(r.options.order, 8);
  EXPECT_EQ(r.options.method, ReduceMethod::kSympvl);
  EXPECT_DOUBLE_EQ(r.options.s0, 1e9);
  EXPECT_NE(r.netlist.find(".port"), std::string::npos);

  // "electrical" spells the default clustering, so it shares the key.
  const Request e = parse_request(
      "{\"v\":1,\"op\":\"reduce\",\"netlist\":\"R1 a 0 1\\n"
      ".port p a\\n\",\"options\":{\"method\":\"sympvl\",\"order\":8,"
      "\"s0\":1e9,\"clustering\":\"electrical\"}}");
  EXPECT_EQ(e.options.shard.clustering, ShardClustering::kAuto);
  EXPECT_TRUE(rom_key(e.netlist, e.options) == rom_key(r.netlist, r.options));
}

TEST(ServeProtocol, ParsesSweepGridForms) {
  const Request exp = parse_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"frequencies_hz\":"
      "[1.0,10.0,100.0]}");
  ASSERT_EQ(exp.frequencies_hz.size(), 3u);
  EXPECT_DOUBLE_EQ(exp.frequencies_hz[1], 10.0);

  const Request lin = parse_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"grid\":{\"start_hz\":0,"
      "\"stop_hz\":10,\"points\":3,\"spacing\":\"linear\"}}");
  ASSERT_EQ(lin.frequencies_hz.size(), 3u);
  EXPECT_DOUBLE_EQ(lin.frequencies_hz[1], 5.0);

  const Request lg = parse_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"grid\":{\"start_hz\":1,"
      "\"stop_hz\":100,\"points\":3}}");
  ASSERT_EQ(lg.frequencies_hz.size(), 3u);
  EXPECT_NEAR(lg.frequencies_hz[1], 10.0, 1e-9);
}

void expect_bad_request(const std::string& body,
                        const std::string& needle = "") {
  try {
    parse_request(body);
    FAIL() << "accepted: " << body;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << body;
    if (!needle.empty())
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
  }
}

TEST(ServeProtocol, RejectsSchemaViolations) {
  expect_bad_request("{\"op\":\"status\"}", "\"v\"");
  expect_bad_request("{\"v\":2,\"op\":\"status\"}", "version");
  expect_bad_request("{\"v\":1,\"op\":\"selfdestruct\"}", "unknown op");
  expect_bad_request("{\"v\":1,\"op\":\"status\",\"extra\":1}", "unknown");
  expect_bad_request("{\"v\":1,\"op\":\"reduce\"}", "netlist");
  expect_bad_request(
      "{\"v\":1,\"op\":\"reduce\",\"netlist\":\"x\","
      "\"options\":{\"typo_field\":1}}",
      "typo_field");
  expect_bad_request(
      "{\"v\":1,\"op\":\"reduce\",\"netlist\":\"x\","
      "\"options\":{\"order\":0}}",
      "order");
  expect_bad_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"netlist\":\"x\","
      "\"frequencies_hz\":[1]}",
      "not both");
  expect_bad_request("{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\"}",
                     "frequencies_hz");
  expect_bad_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"frequencies_hz\":[-1]}");
  expect_bad_request(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"k\",\"grid\":{\"start_hz\":0,"
      "\"stop_hz\":10,\"points\":3,\"spacing\":\"log\"}}",
      "log");
  expect_bad_request(
      "{\"v\":1,\"op\":\"evaluate\",\"rom\":\"k\",\"s\":[1]}", "[re, im]");
  expect_bad_request("{\"v\":1,\"op\":\"evaluate\",\"rom\":\"k\"}", "\"s\"");
}

// ---- Protocol: golden response bytes ----------------------------------

TEST(ServeProtocol, GoldenOkEnvelope) {
  EXPECT_EQ(ok_response(Op::kSweep, "id-1", "{\"x\":1}"),
            "{\"v\":1,\"ok\":true,\"id\":\"id-1\",\"op\":\"sweep\","
            "\"result\":{\"x\":1}}");
  EXPECT_EQ(ok_response(Op::kStatus, "", "{}"),
            "{\"v\":1,\"ok\":true,\"op\":\"status\",\"result\":{}}");
}

TEST(ServeProtocol, GoldenErrorEnvelope) {
  const Error err(ErrorCode::kInvalidArgument, "bad \"field\"",
                  {.stage = "serve.request", .index = 3});
  EXPECT_EQ(error_response(err, "q"),
            "{\"v\":1,\"ok\":false,\"id\":\"q\",\"error\":{"
            "\"code\":\"invalid_argument\",\"stage\":\"serve.request\","
            "\"message\":\"bad \\\"field\\\"\",\"index\":3}}");
  EXPECT_EQ(error_response(ErrorCode::kFaultInjected, "serve.request",
                           "boom", ""),
            "{\"v\":1,\"ok\":false,\"error\":{\"code\":\"fault_injected\","
            "\"stage\":\"serve.request\",\"message\":\"boom\"}}");
}

TEST(ServeProtocol, GoldenTruncatedRequest) {
  // A truncated body is malformed JSON: coded error, daemon-level.
  Daemon daemon({});
  const std::string response = daemon.handle("{\"v\":1,\"op\":\"stat");
  EXPECT_EQ(response,
            "{\"v\":1,\"ok\":false,\"error\":{\"code\":\"invalid_argument\","
            "\"stage\":\"json.parse\","
            "\"message\":\"JSON: unterminated string\",\"index\":17}}");
}

// ---- Registry ----------------------------------------------------------

TEST(ServeRegistry, KeyIsDeterministicAndRoundTrips) {
  ReduceOptions a, b;
  a.order = b.order = 6;
  const RomKey k1 = rom_key(kRcNetlist, a);
  const RomKey k2 = rom_key(kRcNetlist, b);
  EXPECT_EQ(k1, k2);
  b.order = 7;
  EXPECT_FALSE(k1 == rom_key(kRcNetlist, b));
  b.order = 6;
  b.s0 = 123.0;
  EXPECT_FALSE(k1 == rom_key(kRcNetlist, b));

  const std::string hex = rom_key_hex(k1);
  EXPECT_EQ(hex.size(), 33u);
  RomKey parsed;
  ASSERT_TRUE(parse_rom_key_hex(hex, &parsed));
  EXPECT_EQ(parsed, k1);
  EXPECT_FALSE(parse_rom_key_hex("zz", &parsed));
  EXPECT_FALSE(parse_rom_key_hex(std::string(33, 'g'), &parsed));
}

TEST(ServeRegistry, HitMissAndByteAccountedEviction) {
  // Three distinct single-port ROMs of ~128 bytes each against a
  // capacity that holds two: the LRU victim must be the stalest.
  RomRegistry registry(300);
  std::vector<std::string> nets;
  for (int k = 0; k < 3; ++k)
    nets.push_back("R1 in mid " + std::to_string(1000 + k) +
                   "\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n");
  ReduceOptions opt;
  opt.order = 4;

  std::vector<RomKey> keys;
  for (const auto& net : nets) {
    keys.push_back(rom_key(net, opt));
    bool hit = true;
    auto entry =
        registry.acquire(keys.back(), [&] { return make_rom(net); }, &hit);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(hit);
    EXPECT_GT(entry->bytes, 0);
  }
  const RegistryStats s = registry.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2);
  EXPECT_LE(s.resident_bytes, 300);

  // Oldest (keys[0]) was evicted; the newer two still resolve by hex.
  EXPECT_EQ(registry.find(rom_key_hex(keys[0])), nullptr);
  EXPECT_NE(registry.find(rom_key_hex(keys[1])), nullptr);
  EXPECT_NE(registry.find(rom_key_hex(keys[2])), nullptr);

  bool hit = false;
  registry.acquire(keys[2], [&] { return make_rom(nets[2]); }, &hit);
  EXPECT_TRUE(hit);
}

TEST(ServeRegistry, SingleFlightSharesOneBuild) {
  RomRegistry registry(1 << 20);
  const RomKey key = rom_key(kRcNetlist, ReduceOptions{});
  std::atomic<int> builds{0};
  std::atomic<int> shared{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      bool was_shared = false;
      auto entry = registry.acquire(
          key,
          [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            return make_rom(kRcNetlist);
          },
          nullptr, &was_shared);
      EXPECT_NE(entry, nullptr);
      if (was_shared) shared.fetch_add(1);
    });
    // Stagger slightly so later threads land inside the build window.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_GT(shared.load(), 0);
  EXPECT_EQ(registry.stats().misses, 1u);
}

TEST(ServeRegistry, FailedBuildPropagatesAndIsNeverCached) {
  RomRegistry registry(1 << 20);
  const RomKey key = rom_key("bogus", ReduceOptions{});
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        registry.acquire(key, [&]() -> ReduceResult {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          throw Error(ErrorCode::kSingular, "injected build failure",
                      {.stage = "serve.test"});
        });
        ADD_FAILURE() << "acquire returned despite failing build";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kSingular);
        errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 4);
  EXPECT_EQ(registry.stats().entries, 0);  // failure cached nothing

  // The key still works once a healthy build comes along.
  auto entry = registry.acquire(key, [&] { return make_rom(kRcNetlist); });
  EXPECT_NE(entry, nullptr);
}

TEST(ServeRegistry, FailedReductionBecomesCodedError) {
  RomRegistry registry(1 << 20);
  // A netlist with no port fails assembly → kFailed diagnostics.
  const std::string bad = "R1 a 0 1k\n.end\n";
  const RomKey key = rom_key(bad, ReduceOptions{});
  try {
    registry.acquire(key, [&] { return make_rom(bad); });
    FAIL() << "expected a coded error from the failed reduction";
  } catch (const Error& e) {
    EXPECT_NE(e.code(), ErrorCode::kFaultInjected);
    EXPECT_NE(std::string(e.what()).size(), 0u);
  }
  EXPECT_EQ(registry.stats().entries, 0);
}

// ---- Batcher -----------------------------------------------------------

TEST(ServeBatcher, CoalescesOverlappingGridsCorrectly) {
  RomRegistry registry(1 << 20);
  const RomKey key = rom_key(kRcNetlist, ReduceOptions{});
  auto rom = registry.acquire(key, [&] { return make_rom(kRcNetlist); });

  const Vec grid_a = {1e3, 1e6, 1e9};
  const Vec grid_b = {1e6, 5e8, 1e9, 2e9};  // overlaps a on 2 points
  const SweepResult ref_a = sweep(rom->result.model, grid_a);
  const SweepResult ref_b = sweep(rom->result.model, grid_b);

  SweepBatcher batcher({.window_us = 20000, .max_batch = 8});
  SweepBatcher::Outcome out_a, out_b;
  std::thread ta([&] { out_a = batcher.run(rom, grid_a); });
  std::thread tb([&] { out_b = batcher.run(rom, grid_b); });
  ta.join();
  tb.join();

  ASSERT_EQ(out_a.sweep.size(), grid_a.size());
  ASSERT_EQ(out_b.sweep.size(), grid_b.size());
  for (size_t k = 0; k < grid_a.size(); ++k) {
    EXPECT_DOUBLE_EQ(out_a.sweep.frequencies[k], grid_a[k]);
    EXPECT_EQ(out_a.sweep.values[k](0, 0), ref_a.values[k](0, 0)) << k;
  }
  for (size_t k = 0; k < grid_b.size(); ++k)
    EXPECT_EQ(out_b.sweep.values[k](0, 0), ref_b.values[k](0, 0)) << k;

  const BatchStats s = batcher.stats();
  EXPECT_EQ(s.requests, 2u);
  if (out_a.batched == 2) {  // both joined one batch (timing-dependent)
    EXPECT_EQ(s.runs, 1u);
    EXPECT_EQ(s.merged_points, 2u);  // the two overlapping frequencies
    EXPECT_EQ(out_b.batched, 2);
  }
}

TEST(ServeBatcher, DisabledWindowStillSweeps) {
  RomRegistry registry(1 << 20);
  auto rom = registry.acquire(rom_key(kRcNetlist, ReduceOptions{}),
                              [&] { return make_rom(kRcNetlist); });
  SweepBatcher batcher({.window_us = 0, .max_batch = 8});
  const auto out = batcher.run(rom, {1e6, 1e7});
  EXPECT_EQ(out.batched, 1);
  EXPECT_TRUE(out.sweep.all_ok());
}

TEST(ServeBatcher, ManyConcurrentRequestsAllServed) {
  RomRegistry registry(1 << 20);
  auto rom = registry.acquire(rom_key(kRcNetlist, ReduceOptions{}),
                              [&] { return make_rom(kRcNetlist); });
  SweepBatcher batcher({.window_us = 500, .max_batch = 16});
  constexpr int kThreads = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Vec grid = {1e6 * (1 + t % 3), 1e8, 1e9 + 1e6 * t};
      const auto out = batcher.run(rom, grid);
      if (out.sweep.all_ok() && out.sweep.size() == grid.size() &&
          out.sweep.frequencies == grid)
        ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(batcher.stats().requests, (std::uint64_t)kThreads);
}

// ---- Daemon: in-process protocol seam ----------------------------------

TEST(ServeDaemon, ReduceSweepEvaluateStatusRoundTrip) {
  Daemon daemon({});
  const std::string r1 = daemon.handle(reduce_body(kRcNetlist));
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"cached\":false"), std::string::npos);
  const std::string rom = rom_of(r1);

  // Same request again: warm hit.
  const std::string r2 = daemon.handle(reduce_body(kRcNetlist));
  EXPECT_NE(r2.find("\"cached\":true"), std::string::npos) << r2;
  EXPECT_EQ(rom, rom_of(r2));

  const std::string sw = daemon.handle(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom +
      "\",\"frequencies_hz\":[1e3,1e6,1e9]}");
  EXPECT_NE(sw.find("\"ok\":true"), std::string::npos) << sw;
  EXPECT_NE(sw.find("\"points\":3"), std::string::npos);
  EXPECT_NE(sw.find("\"failed\":0"), std::string::npos);

  // The daemon's sweep values match the library called directly.
  const ReduceResult direct = make_rom(kRcNetlist);
  const CMat z = direct.model.eval(Complex(0.0, 2e9 * 3.141592653589793));
  const std::string ev = daemon.handle(
      "{\"v\":1,\"op\":\"evaluate\",\"rom\":\"" + rom +
      "\",\"s\":[0.0,6.283185307179586e9]}");
  EXPECT_NE(ev.find("\"ok\":true"), std::string::npos) << ev;
  char expect_re[32];
  std::snprintf(expect_re, sizeof expect_re, "%.9g", z(0, 0).real());
  EXPECT_NE(ev.find(std::string(expect_re).substr(0, 8)),
            std::string::npos)
      << "evaluate drifted from direct eval: " << ev;

  const std::string st = daemon.handle("{\"v\":1,\"op\":\"status\"}");
  EXPECT_NE(st.find("\"protocol_version\":1"), std::string::npos);
  EXPECT_NE(st.find("\"reduce\":2"), std::string::npos) << st;
  EXPECT_NE(st.find("\"sweep\":1"), std::string::npos);
  EXPECT_NE(st.find("\"evaluate\":1"), std::string::npos);
}

TEST(ServeDaemon, CodedErrorsKeepTheDaemonServing) {
  Daemon daemon({});
  // Malformed JSON, schema violation, unknown ROM, bad netlist — each a
  // coded error response, none fatal.
  EXPECT_NE(daemon.handle("{nope").find("\"code\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(daemon.handle("{\"v\":1,\"op\":\"sweep\",\"rom\":\"absent\","
                          "\"frequencies_hz\":[1]}")
                .find("unknown rom"),
            std::string::npos);
  EXPECT_NE(
      daemon.handle("{\"v\":1,\"op\":\"reduce\",\"netlist\":\"garbage!\"}")
          .find("\"ok\":false"),
      std::string::npos);

  const std::string r = daemon.handle(reduce_body(kRcNetlist));
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;

  // Out-of-range entries on a healthy ROM.
  const std::string sw = daemon.handle(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom_of(r) +
      "\",\"frequencies_hz\":[1e6],\"entries\":[[0,5]]}");
  EXPECT_NE(sw.find("out of range"), std::string::npos) << sw;

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.errors, 4u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(ServeDaemon, StrictSweepFailsOnBadPoint) {
  Daemon daemon({});
  const std::string rom = rom_of(daemon.handle(reduce_body(kRcNetlist)));
  // Inline-netlist sweep also works (reduce implied).
  const std::string inline_sweep = daemon.handle(
      "{\"v\":1,\"op\":\"sweep\",\"netlist\":" + obs::json_string(kRcNetlist) +
      ",\"options\":{\"order\":4},\"frequencies_hz\":[1e6],\"strict\":true}");
  EXPECT_NE(inline_sweep.find("\"ok\":true"), std::string::npos)
      << inline_sweep;
  EXPECT_NE(inline_sweep.find("\"cached\":true"), std::string::npos);
}

// ---- Sockets end to end ------------------------------------------------

TEST(ServeHttp, TcpEndToEnd) {
  DaemonOptions opt;
  opt.http_port = 0;
  opt.http_workers = 2;
  Daemon daemon(opt);
  daemon.start();
  ASSERT_GT(daemon.port(), 0);

  HttpClient client = HttpClient::connect_tcp(daemon.port());
  const ClientResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"ok\":true}\n");

  // Keep-alive: several API calls on one connection.
  const std::string r = client.post_api(reduce_body(kRcNetlist));
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  const std::string sweep_response = client.post_api(
      "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom_of(r) +
      "\",\"frequencies_hz\":[1e6,1e9]}");
  EXPECT_NE(sweep_response.find("\"points\":2"), std::string::npos);

  const ClientResponse metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sympvl_build_info"), std::string::npos);

  const ClientResponse missing = client.request("GET", "/nope");
  EXPECT_EQ(missing.status, 404);
  const ClientResponse wrong = client.request("GET", "/api/v1");
  EXPECT_EQ(wrong.status, 405);

  daemon.stop();
}

TEST(ServeHttp, UnixSocketEndToEnd) {
  const std::string path =
      "/tmp/sympvl_test_" + std::to_string(::getpid()) + ".sock";
  DaemonOptions opt;
  opt.http_port = -1;  // unix only
  opt.unix_path = path;
  Daemon daemon(opt);
  daemon.start();
  EXPECT_EQ(daemon.port(), 0);

  HttpClient client = HttpClient::connect_unix(path);
  const std::string st = client.post_api("{\"v\":1,\"op\":\"status\"}");
  EXPECT_NE(st.find("\"ok\":true"), std::string::npos) << st;
  daemon.stop();
  // stop() removes the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeHttp, MalformedHttpGetsCodedAnswers) {
  DaemonOptions opt;
  opt.http_port = 0;
  Daemon daemon(opt);
  daemon.start();

  {  // Garbage request line → 400, connection closed.
    HttpClient c = HttpClient::connect_tcp(daemon.port());
    const std::string raw = c.send_raw("NONSENSE\r\n\r\n");
    EXPECT_NE(raw.find("400"), std::string::npos) << raw;
  }
  {  // POST without Content-Length → 400.
    HttpClient c = HttpClient::connect_tcp(daemon.port());
    const std::string raw = c.send_raw("POST /api/v1 HTTP/1.1\r\n\r\n");
    EXPECT_NE(raw.find("400"), std::string::npos) << raw;
  }
  {  // Declared body never arrives → server closes without answering.
    HttpClient c = HttpClient::connect_tcp(daemon.port());
    const std::string raw = c.send_raw(
        "POST /api/v1 HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"v\":1");
    EXPECT_EQ(raw, "");
  }
  {  // Oversized Content-Length → 413 without reading the body.
    HttpClient c = HttpClient::connect_tcp(daemon.port());
    const std::string raw = c.send_raw(
        "POST /api/v1 HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n");
    EXPECT_NE(raw.find("413"), std::string::npos) << raw;
  }

  // And the daemon still serves healthy requests afterwards.
  HttpClient c = HttpClient::connect_tcp(daemon.port());
  EXPECT_EQ(c.request("GET", "/healthz").status, 200);
  daemon.stop();
}

TEST(ServeHttp, ConcurrentClientsAgainstWarmRegistry) {
  DaemonOptions opt;
  opt.http_port = 0;
  opt.http_workers = 4;
  opt.batch_window_us = 200;
  Daemon daemon(opt);
  daemon.start();

  std::string rom;
  {
    HttpClient warm = HttpClient::connect_tcp(daemon.port());
    rom = rom_of(warm.post_api(reduce_body(kRcNetlist)));
  }
  constexpr int kClients = 8;
  constexpr int kRequests = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      HttpClient client = HttpClient::connect_tcp(daemon.port());
      for (int r = 0; r < kRequests; ++r) {
        const std::string body = client.post_api(
            "{\"v\":1,\"op\":\"sweep\",\"rom\":\"" + rom +
            "\",\"frequencies_hz\":[1e6,1e7,1e8],\"entries\":[[0,0]]}");
        if (body.find("\"failed\":0") != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sweep, (std::uint64_t)(kClients * kRequests));
  daemon.stop();
}

}  // namespace
}  // namespace sympvl
