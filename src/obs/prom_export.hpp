// Prometheus text-exposition exporter (Metrics v2).
//
// Serialises the obs registries — counters, byte gauges, latency
// histograms, process stats — in Prometheus exposition format
// v0.0.4, the exact payload a future reduction-as-a-service daemon
// serves verbatim from /metrics. Enabled as a third environment sink:
// SYMPVL_METRICS=<path> turns instrumentation on (like SYMPVL_TRACE /
// SYMPVL_STATS) and the file is (re)written at every obs::flush(),
// including the atexit flush.
//
// Naming convention (stable; linted by tools/check_metrics.py):
//   * every metric is prefixed "sympvl_"; dots in obs names become
//     underscores ("factor_cache.hit" → sympvl_factor_cache_hit_total)
//   * obs::Counter  → TYPE counter, "_total" suffix
//   * obs::ByteGauge→ two gauges: current value under the obs name and
//     the high-water mark with a "_peak" suffix
//   * span latency  → two families shared by every span, keyed by a
//     span="<obs name>" label:
//       sympvl_span_duration_seconds           TYPE histogram
//         (coarse 2-buckets-per-decade le boundaries + +Inf/_sum/_count)
//       sympvl_span_latency_quantiles_seconds  TYPE summary
//         (quantile="0.5|0.95|0.99" + _sum/_count — the p99 surface)
//   * process / build: sympvl_process_peak_rss_bytes,
//     sympvl_process_rss_bytes, sympvl_obs_dropped_events_total,
//     sympvl_build_info{compiler=,build_type=,simd_level=} 1
#pragma once

#include <iosfwd>
#include <string>

namespace sympvl::obs {

/// "factor_cache.hit" → "sympvl_factor_cache_hit": prefixes, maps every
/// character outside [a-zA-Z0-9_:] to '_'.
std::string prometheus_metric_name(const std::string& raw);

/// Writes the full exposition document to `out`.
void export_prometheus(std::ostream& out);

/// export_prometheus into `path` (truncating).
void write_prometheus(const std::string& path);

}  // namespace sympvl::obs
