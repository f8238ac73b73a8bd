// Log-bucketed, mergeable latency histograms (Metrics v2).
//
// Two layers:
//
//  * HistogramBins — a plain, single-threaded value type holding the
//    bucket counts plus count/sum/min/max moments. It is the mergeable
//    snapshot/accumulator form: cheap to copy, trivially serialisable,
//    and the thing quantiles are computed from. Internal subsystems
//    that keep an always-on, zero-contention local digest of span
//    durations (e.g. the Lanczos step digest feeding SympvlReport) use
//    it directly.
//
//  * Histogram — the concurrent recorder behind obs::histogram(name).
//    Recording is lock-free: each thread hashes to one of a fixed set
//    of cache-line-padded shards and does relaxed atomic increments on
//    that shard only, so parallel supernodal factorization and parallel
//    sweeps can record from pool workers without serialising on a
//    mutex (and without TSan findings). snapshot() merges the shards;
//    like obs::snapshot_events it is a racy-but-consistent-enough view
//    when writers are still active, and exact once they have quiesced.
//
// Bucket layout: kBucketsPerDecade geometric sub-buckets per decade
// over [kHistMin, kHistMax) seconds, plus an underflow bucket 0 and an
// overflow bucket kHistBuckets-1. With 8 buckets/decade the relative
// resolution is 10^(1/8) ≈ 1.33, good enough to separate a p99 from a
// p50 of the same span family while keeping the whole histogram ~700
// bytes per shard. Quantiles interpolate geometrically inside a bucket
// and are clamped to the observed [min, max].
//
// Spans recorded through obs::ScopedTimer feed these automatically:
// obs::detail::record() forwards every completed span's duration to
// the histogram interned under the span's name (see obs.cpp), so the
// existing instrumentation points (ldlt.factor, ldlt.solve, ac.z_at,
// lanczos.step, kernel.panel_update, kernel.trsm, ...) gain p50/p95/p99
// without touching their call sites.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sympvl::obs {

inline constexpr int kBucketsPerDecade = 8;
inline constexpr double kHistMin = 1e-7;  // 100 ns
inline constexpr int kHistDecades = 10;   // [1e-7 s, 1e3 s)
inline constexpr int kHistBuckets = kHistDecades * kBucketsPerDecade + 2;

/// Bucket index for a value in seconds. Bucket 0 is the underflow
/// bucket [0, kHistMin) (and catches non-positive / NaN values);
/// bucket kHistBuckets-1 is the overflow bucket [kHistMax, +inf).
int histogram_bucket(double seconds);

/// Upper bound (seconds) of bucket `b`; +inf for the overflow bucket.
double histogram_upper_bound(int b);

/// Plain mergeable histogram cells — see file comment.
struct HistogramBins {
  std::vector<std::uint64_t> counts;  // kHistBuckets entries once non-empty
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;

  void record(double seconds);
  void merge(const HistogramBins& other);
  bool empty() const { return count == 0; }
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

  /// Quantile in [0, 1] via geometric interpolation inside the owning
  /// bucket, clamped to the observed [min, max]. Returns 0 when empty.
  double quantile(double q) const;
};

/// The digest of a HistogramBins that reports carry: count plus the
/// five-number latency summary every span family is described by.
struct LatencyStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

LatencyStats latency_stats(const HistogramBins& bins);

/// Concurrent recorder. record() is gated on obs::enabled() like every
/// other instrumentation point; record_unchecked() skips the gate for
/// callers that already sit behind one (the span feed in obs.cpp).
class Histogram {
 public:
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double seconds);
  void record_unchecked(double seconds);

  /// Merged view across shards.
  HistogramBins snapshot() const;

  /// Zeroes all shards (obs::reset()).
  void reset();

 private:
  // One shard per small power-of-two slot; threads pick a home shard
  // round-robin at first use. alignas keeps shards on distinct cache
  // lines so worker increments never false-share.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counts[kHistBuckets];
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min_bits{0.0};  // valid only when count > 0
    std::atomic<double> max_bits{0.0};
  };
  static constexpr int kShards = 16;

  Shard& home_shard();

  std::unique_ptr<Shard[]> shards_;
};

/// Interned registry: one Histogram per name, created on first use and
/// intentionally leaked so records during static destruction stay safe.
Histogram& histogram(const char* name);

/// Name → merged bins for every registered histogram, sorted by name.
std::vector<std::pair<std::string, HistogramBins>> snapshot_histograms();

namespace detail {
/// Span-duration feed: called by obs::detail::record() for completed
/// spans. Uses a per-thread name→histogram cache so the steady-state
/// cost is one hash probe plus the shard increments.
void record_span_duration(const char* name, std::int64_t dur_us);
/// obs::reset() hook.
void reset_histograms();
}  // namespace detail

}  // namespace sympvl::obs
