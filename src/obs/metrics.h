// Metrics for the serving fleet: counters, gauges and
// log-bucketed latency histograms behind one labeled registry.
//
// The design target is the submit hot path of the InferenceServer, which
// takes exactly one shard mutex and a handful of relaxed atomics — telemetry
// must not add a lock to that. So:
//
//   * every metric handle returned by the registry is a stable reference to
//     an atomic cell; incrementing a Counter is ONE relaxed fetch_add, the
//     same discipline as FaultInjector's no-fault fast path;
//   * a Histogram::record is a relaxed fetch_add on one log bucket plus a
//     relaxed sum/min/max update — no lock, no allocation;
//   * the registry mutex is taken only when a metric is *created* or a
//     snapshot is taken (control plane / export path), never per increment.
//
// Snapshots are per-field torn-free: every atomic is loaded individually, so
// each counter value is a real value that existed at some instant (monotonic,
// never torn) — but the snapshot as a whole is not a cross-metric
// transaction, which is fine for an ops surface.
//
// Histograms are log-bucketed (32 sub-buckets per power of two → ≤ ~3.1%
// relative bucket width) with exact rank extraction: percentile(p) walks the
// bucket counts to the exact rank and returns the bucket midpoint, so p50/
// p99/p999 are exact up to the bucket resolution. obs_test cross-checks them
// against the sorted-vector answer.
//
// Label dimensions (per-tenant, per-device, per-shard) are ordinary label
// pairs: the registry keys metrics on (name, sorted labels). Callers create
// the labeled handle once (control plane) and increment it forever (data
// plane).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace guardnn::obs {

/// Sorted-on-registration (key, value) pairs identifying one metric series.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : u8 { kCounter, kGauge, kHistogram };

/// Monotonic event count. inc() is one relaxed fetch_add — safe from any
/// thread, cheap enough for the serving submit path.
class Counter {
 public:
  void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Point-in-time value (queue depth, byte budget, health code). set is a
/// relaxed atomic store; typically sampled by the exporter, not on the hot
/// path.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  u64 count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  /// Non-empty buckets only, ascending: (bucket lower bound, count).
  std::vector<std::pair<double, u64>> buckets;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Lock-free log-bucketed histogram. Values are unit-agnostic doubles (the
/// serving layer records milliseconds). Usable standalone (benches) or
/// through a MetricRegistry (the server).
///
/// Thread safety: record() from any thread concurrently; snapshot()/
/// percentile() concurrently with writers (per-bucket torn-free loads).
class Histogram {
 public:
  /// 32 sub-buckets per power of two: relative bucket width 1/32 ≈ 3.1%.
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Finest resolved value 2^-10 ≈ 0.001 (1 µs when recording ms)…
  static constexpr int kMinExp = -10;
  /// …coarsest 2^24 ms ≈ 4.7 h. Outside the range: under/overflow buckets.
  static constexpr int kMaxExp = 24;
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets + 2;

  /// Bucket index for a value. Non-positive (and NaN) values land in the
  /// underflow bucket 0; values >= 2^kMaxExp in the overflow bucket.
  /// A value exactly on a bucket's lower bound lands in that bucket
  /// (binary-exact: the sub-bucket math is all powers of two).
  static int bucket_index(double v) {
    if (!(v > 0.0)) return 0;
    int exp = 0;
    const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac ∈ [0.5, 1)
    if (exp <= kMinExp) return 0;
    if (exp > kMaxExp) return kBucketCount - 1;
    const int sub = static_cast<int>((frac - 0.5) * (2 * kSubBuckets));
    return 1 + (exp - kMinExp - 1) * kSubBuckets +
           (sub < kSubBuckets - 1 ? sub : kSubBuckets - 1);
  }

  /// Inclusive lower bound of a bucket (0 for the underflow bucket).
  static double bucket_lower(int index) {
    if (index <= 0) return 0.0;
    if (index >= kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
    const int z = index - 1;
    return std::ldexp(1.0 + static_cast<double>(z % kSubBuckets) / kSubBuckets,
                      kMinExp + z / kSubBuckets);
  }

  /// Exclusive upper bound of a bucket (+inf for the overflow bucket).
  static double bucket_upper(int index) {
    if (index >= kBucketCount - 1)
      return std::numeric_limits<double>::infinity();
    return bucket_lower(index + 1);
  }

  void record(double v) {
    buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  u64 count() const {
    u64 total = 0;
    for (const auto& bucket : buckets_)
      total += bucket.load(std::memory_order_relaxed);
    return total;
  }

  /// Exact rank extraction over the bucket counts: the value at rank
  /// ceil(p * count) (1-based), reported as its bucket's midpoint. 0 when
  /// empty.
  double percentile(double p) const;

  /// Per-field torn-free snapshot with p50/p90/p99/p999 precomputed from
  /// one coherent read of the bucket array.
  HistogramSnapshot snapshot() const;

 private:
  void update_min(double v) {
    double seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) {
    double seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  static double percentile_from(const std::vector<u64>& counts, u64 total,
                                double p);

  std::array<std::atomic<u64>, static_cast<std::size_t>(kBucketCount)>
      buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One exported metric series: name + labels + the kind-specific payload.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  u64 counter = 0;      ///< kCounter
  double gauge = 0.0;   ///< kGauge
  HistogramSnapshot hist;  ///< kHistogram
};

/// Thread-safe registry of named, labeled metrics. Creation and snapshot
/// take the registry mutex; the returned handles are stable for the
/// registry's lifetime and lock-free to update (see file header).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the (name, labels) series, creating it on first use. Labels
  /// are canonicalized (sorted by key), so call order doesn't fork series.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Every series, sorted by (name, labels). Values are per-field torn-free
  /// (see file header); histogram percentiles are computed from one coherent
  /// bucket read.
  std::vector<MetricSample> snapshot() const;

 private:
  using Key = std::pair<std::string, Labels>;

  static Labels canonical(Labels labels);

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

/// One timestamped control-plane event (health transition, failover, admin
/// action). Milliseconds since the log's construction.
struct EventRecord {
  double t_ms = 0.0;
  std::string kind;
  std::string detail;
};

/// Bounded, mutex-guarded event log for *rare* control-plane edges — the
/// health-state transition log the ops surface reads. Not for the data
/// plane: record() allocates and locks.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1024);

  void record(std::string kind, std::string detail);

  /// Oldest → newest, at most `capacity` entries.
  std::vector<EventRecord> snapshot() const;

  /// Total events ever recorded (≥ snapshot().size() once wrapped).
  u64 recorded() const;

 private:
  using Clock = std::chrono::steady_clock;
  const std::size_t capacity_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<EventRecord> events_;
  u64 recorded_ = 0;
};

}  // namespace guardnn::obs
