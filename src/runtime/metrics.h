// Process-wide metrics registry: lock-free instruments with an
// OpenMetrics text exposition (DESIGN.md §16).
//
// The registry is the *live* complement to the per-run telemetry
// snapshots (runtime/telemetry.h): counters, gauges and log-bucketed
// latency histograms that are registered once by (name, labels) and
// then written from hot paths with relaxed atomic ops on cache-line-
// padded slots — no locks, no allocation, no line bouncing between
// unrelated instruments. Registration (get-or-create under one mutex)
// is the cold path; call sites cache the returned handle.
//
// Exposition: text() renders the whole registry in the OpenMetrics /
// Prometheus text format on demand. serve::Server::metrics_text()
// returns it, and the admin plane (serve/admin.h) serves it live as
// GET /metrics; that scrape is the one exit.
//
// Histograms are HDR-style log-bucketed: each power-of-two octave is
// split into kSubBuckets linear sub-buckets, so relative bucket width
// is bounded (~1/kSubBuckets) across the whole range and quantile
// queries are exact to within one bucket. Values above the top octave
// land in a saturating overflow bucket; counts are conserved exactly
// under any number of concurrent writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/aligned_buffer.h"

namespace ndirect {

/// One key="value" pair on an instrument. Ordered; two instruments
/// with the same name and equal label vectors are the same instrument.
struct MetricLabel {
  std::string key;
  std::string value;
};
using MetricLabels = std::vector<MetricLabel>;

/// Log-bucketed histogram layout, shared by the lock-free instrument
/// and the plain snapshot. HDR-style: values below kSubBuckets get one
/// unit-width bucket each; every power-of-two octave [2^m, 2^(m+1))
/// with m >= log2(kSubBuckets) is split into kSubBuckets equal
/// sub-buckets of width 2^(m - kSubBucketBits), so the relative bucket
/// width is bounded by 1/kSubBuckets (12.5%) across the whole range.
/// Values past the top octave land in one saturating overflow bucket.
/// With nanosecond values the covered range is [0, 16 << 39) ≈ 2.4 h.
struct HistogramLayout {
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 40;  ///< sub-divided octaves (shifts)
  static constexpr int kBuckets = (kOctaves + 1) * kSubBuckets + 1;
  static constexpr int kOverflowBucket = kBuckets - 1;

  /// Bucket index for `v`.
  static int bucket_of(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBucketBits;  ///< sub-bucket width log2
    if (shift >= kOctaves) return kOverflowBucket;
    // v >> shift is in [kSubBuckets, 2*kSubBuckets).
    return (shift + 1) * kSubBuckets +
           static_cast<int>((v >> shift) - kSubBuckets);
  }

  /// Inclusive upper bound of bucket `b` — the largest value the
  /// bucket holds (the OpenMetrics `le` value); UINT64_MAX for the
  /// overflow bucket.
  static std::uint64_t upper_bound(int b) {
    if (b >= kOverflowBucket) return ~std::uint64_t{0};
    if (b < kSubBuckets) return static_cast<std::uint64_t>(b);
    const int shift = b / kSubBuckets - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(b % kSubBuckets);
    return ((kSubBuckets + sub + 1) << shift) - 1;
  }

  /// Inclusive lower bound of bucket `b`.
  static std::uint64_t lower_bound(int b) {
    if (b <= 0) return 0;
    if (b <= kSubBuckets) return static_cast<std::uint64_t>(b);
    if (b >= kOverflowBucket)
      return (std::uint64_t{2 * kSubBuckets} << (kOctaves - 1));
    return upper_bound(b - 1) + 1;
  }
};

/// Plain (non-atomic) histogram aggregate: what snapshot() returns and
/// what quantile queries and cross-worker merges operate on.
struct HistogramSnapshot {
  std::uint64_t counts[HistogramLayout::kBuckets] = {};
  std::uint64_t count = 0;  ///< total recorded values
  std::uint64_t sum = 0;    ///< sum of recorded values (saturating)

  /// Accumulate `other` into this snapshot (exact: counts and sums add).
  void merge(const HistogramSnapshot& other);

  /// Value at quantile q in [0, 1]: the upper bound of the bucket that
  /// contains the ceil(q * count)-th recorded value (so the answer is
  /// exact to within one bucket width). 0 when empty.
  std::uint64_t quantile(double q) const;
};

/// Monotonic counter. inc() is one relaxed fetch_add.
class CounterCell {
 public:
  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }  ///< test hook

 private:
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> v_{0};
};

/// Gauge: a settable signed level. set()/add() are single relaxed ops.
class GaugeCell {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }  ///< test hook

 private:
  alignas(kCacheLineBytes) std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed latency histogram. record() is two relaxed fetch_adds
/// (bucket, sum) on this cell's own cache lines — multi-writer safe,
/// counts conserved exactly. There is deliberately no separate count
/// atomic: snapshot() derives the count from the bucket totals, so a
/// record() costs one less contended RMW on the serving hot path.
class HistogramCell {
 public:
  void record(std::uint64_t v) {
    buckets_[HistogramLayout::bucket_of(v)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Not linearizable against concurrent record() (a racing write may
  /// be counted in a bucket but not yet in `sum`, or vice versa);
  /// totals are exact once writers quiesce.
  HistogramSnapshot snapshot() const;

  void reset() {  ///< test hook; not safe against concurrent record()
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  alignas(kCacheLineBytes) std::atomic<std::uint64_t>
      buckets_[HistogramLayout::kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

/// Registry of named instruments. Registration is get-or-create and
/// idempotent: the same (name, labels) always returns the same cell,
/// whose address is stable for the registry's lifetime (instruments
/// are never removed). Hot paths hold the returned pointer; they never
/// touch the registry again.
class MetricsRegistry {
 public:
  /// The process-wide instance (what the exposition surfaces export).
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  CounterCell* counter(const std::string& name, MetricLabels labels = {},
                       const std::string& help = "");
  GaugeCell* gauge(const std::string& name, MetricLabels labels = {},
                   const std::string& help = "");
  HistogramCell* histogram(const std::string& name,
                           MetricLabels labels = {},
                           const std::string& help = "");

  /// Number of registered instruments (all kinds).
  std::size_t size() const;

  /// The whole registry in the OpenMetrics text exposition format:
  /// one family block per metric name (# HELP / # TYPE, then one
  /// sample line per label set; histograms expand to cumulative
  /// <name>_bucket{le="..."} series plus _count/_sum), terminated by
  /// the required "# EOF" line. Histogram `le` bounds and quantile
  /// queries agree: both use HistogramLayout::upper_bound.
  std::string text() const;

  /// Drop every instrument value back to zero (registration survives;
  /// handles stay valid). Test hook — not for production paths.
  void reset_values();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    std::string name;
    MetricLabels labels;
    std::string help;
    Kind kind;
    std::unique_ptr<CounterCell> counter;
    std::unique_ptr<GaugeCell> gauge;
    std::unique_ptr<HistogramCell> histogram;
  };

  Instrument* find_or_create(const std::string& name,
                             MetricLabels&& labels,
                             const std::string& help, Kind kind);

  mutable std::mutex mu_;  ///< guards instruments_ (cold path only)
  std::vector<std::unique_ptr<Instrument>> instruments_;
};

/// Render one label set as {k1="v1",k2="v2"} with OpenMetrics escaping
/// ("" for an empty set). Exposed for the exposition tests.
std::string format_labels(const MetricLabels& labels);

}  // namespace ndirect
