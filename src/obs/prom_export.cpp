#include "obs/prom_export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common.hpp"
#include "linalg/simd.hpp"
#include "obs/histogram.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"

namespace sympvl::obs {

namespace {

// Prometheus sample-value syntax: Go strconv floats plus +Inf/-Inf/NaN.
std::string prom_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string prom_value(std::int64_t v) { return std::to_string(v); }

// Shorter form for le= boundaries (they are exact bucket bounds, not
// measurements; 9 significant digits round-trips them).
std::string prom_le(double v) {
  if (std::isinf(v)) return "+Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Label-value escaping: backslash, double quote, newline.
std::string label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

void help_type(std::ostream& out, const std::string& name, const char* type,
               const std::string& help) {
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string prometheus_metric_name(const std::string& raw) {
  std::string out = "sympvl_";
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void export_prometheus(std::ostream& out) {
  // Build / process identity.
  {
    help_type(out, "sympvl_build_info", "gauge",
              "Build identity as labels; value is always 1.");
    out << "sympvl_build_info{compiler=\""
        << label_escape(detail::build_compiler()) << "\",build_type=\""
        << label_escape(detail::build_type()) << "\",simd_level=\""
        << label_escape(simd_level_name(resolve_simd_level(SimdLevel::kAuto)))
        << "\"} 1\n";

    help_type(out, "sympvl_process_peak_rss_bytes", "gauge",
              "Process high-water resident set size (getrusage).");
    out << "sympvl_process_peak_rss_bytes " << prom_value(peak_rss_bytes())
        << "\n";
    if (const std::int64_t rss = current_rss_bytes(); rss > 0) {
      help_type(out, "sympvl_process_rss_bytes", "gauge",
                "Instantaneous resident set size (/proc/self/statm).");
      out << "sympvl_process_rss_bytes " << prom_value(rss) << "\n";
    }

    help_type(out, "sympvl_obs_dropped_events_total", "counter",
              "Trace events dropped at the per-thread buffer cap.");
    out << "sympvl_obs_dropped_events_total "
        << prom_value(dropped_events()) << "\n";
  }

  // Counters — one family each, "_total" suffix per convention.
  for (const auto& [raw, v] : snapshot_counters()) {
    const std::string name = prometheus_metric_name(raw) + "_total";
    help_type(out, name, "counter", "obs counter \"" + raw + "\".");
    out << name << " " << prom_value(v) << "\n";
  }

  // Byte gauges: current + high-water companion.
  for (const ByteGaugeSnapshot& g : snapshot_byte_gauges()) {
    const std::string name = prometheus_metric_name(g.name);
    help_type(out, name, "gauge", "obs byte gauge \"" + g.name + "\".");
    out << name << " " << prom_value(g.current) << "\n";
    help_type(out, name + "_peak", "gauge",
              "High-water mark of \"" + g.name + "\".");
    out << name + "_peak"
        << " " << prom_value(g.peak) << "\n";
  }

  // Span latency: one histogram family + one quantile summary family,
  // both keyed by a span label so dashboards aggregate uniformly.
  const auto hists = snapshot_histograms();
  bool any = false;
  for (const auto& [name, bins] : hists) any = any || !bins.empty();
  if (any) {
    help_type(out, "sympvl_span_duration_seconds", "histogram",
              "Span duration distribution per obs span family.");
    for (const auto& [span, bins] : hists) {
      if (bins.empty()) continue;
      const std::string lbl = label_escape(span);
      // Coarse export boundaries: every 4th internal sub-bucket, i.e.
      // two le= boundaries per decade — enough for dashboards while
      // keeping the document compact. Counts are cumulative.
      std::uint64_t cum = 0;
      int next_export = 0;
      for (int b = 0; b < kHistBuckets - 1; ++b) {
        cum += bins.counts[static_cast<size_t>(b)];
        if (b == next_export) {
          out << "sympvl_span_duration_seconds_bucket{span=\"" << lbl
              << "\",le=\"" << prom_le(histogram_upper_bound(b)) << "\"} "
              << cum << "\n";
          next_export += kBucketsPerDecade / 2;
        }
      }
      out << "sympvl_span_duration_seconds_bucket{span=\"" << lbl
          << "\",le=\"+Inf\"} " << bins.count << "\n";
      out << "sympvl_span_duration_seconds_sum{span=\"" << lbl << "\"} "
          << prom_value(bins.sum) << "\n";
      out << "sympvl_span_duration_seconds_count{span=\"" << lbl << "\"} "
          << bins.count << "\n";
    }

    help_type(out, "sympvl_span_latency_quantiles_seconds", "summary",
              "Precomputed span latency quantiles per obs span family.");
    for (const auto& [span, bins] : hists) {
      if (bins.empty()) continue;
      const std::string lbl = label_escape(span);
      const LatencyStats s = latency_stats(bins);
      out << "sympvl_span_latency_quantiles_seconds{span=\"" << lbl
          << "\",quantile=\"0.5\"} " << prom_value(s.p50) << "\n";
      out << "sympvl_span_latency_quantiles_seconds{span=\"" << lbl
          << "\",quantile=\"0.95\"} " << prom_value(s.p95) << "\n";
      out << "sympvl_span_latency_quantiles_seconds{span=\"" << lbl
          << "\",quantile=\"0.99\"} " << prom_value(s.p99) << "\n";
      out << "sympvl_span_latency_quantiles_seconds_sum{span=\"" << lbl
          << "\"} " << prom_value(bins.sum) << "\n";
      out << "sympvl_span_latency_quantiles_seconds_count{span=\"" << lbl
          << "\"} " << bins.count << "\n";
    }
  }
}

void write_prometheus(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "obs: cannot open metrics file '" + path + "'");
  export_prometheus(out);
  require(out.good(), "obs: failed writing metrics file '" + path + "'");
}

}  // namespace sympvl::obs
