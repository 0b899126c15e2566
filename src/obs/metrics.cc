#include "obs/metrics.h"

#include <algorithm>
#include <tuple>

namespace guardnn::obs {

double Histogram::percentile_from(const std::vector<u64>& counts, u64 total,
                                  double p) {
  if (total == 0) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  u64 rank = static_cast<u64>(std::ceil(clamped * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  u64 cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      const int index = static_cast<int>(i);
      const double lo = bucket_lower(index);
      const double hi = bucket_upper(index);
      if (index == 0) return hi / 2.0;                 // underflow: [0, 2^min)
      if (index == kBucketCount - 1) return lo;        // overflow: unbounded
      return (lo + hi) / 2.0;
    }
  }
  return bucket_lower(kBucketCount - 1);  // unreachable: cumulative == total
}

double Histogram::percentile(double p) const {
  std::vector<u64> counts(static_cast<std::size_t>(kBucketCount), 0);
  u64 total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return percentile_from(counts, total, p);
}

HistogramSnapshot Histogram::snapshot() const {
  // One coherent read of the bucket array, then all derived values (count,
  // percentiles, non-empty bucket list) come from that single read.
  std::vector<u64> counts(static_cast<std::size_t>(kBucketCount), 0);
  u64 total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }

  HistogramSnapshot snap;
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  snap.min = std::isfinite(lo) ? lo : 0.0;
  snap.max = std::isfinite(hi) ? hi : 0.0;
  snap.p50 = percentile_from(counts, total, 0.50);
  snap.p90 = percentile_from(counts, total, 0.90);
  snap.p99 = percentile_from(counts, total, 0.99);
  snap.p999 = percentile_from(counts, total, 0.999);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0)
      snap.buckets.emplace_back(bucket_lower(static_cast<int>(i)), counts[i]);
  }
  return snap;
}

Labels MetricRegistry::canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Counter& MetricRegistry::counter(const std::string& name, Labels labels) {
  const Key key{name, canonical(std::move(labels))};
  std::lock_guard lock(mu_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name, Labels labels) {
  const Key key{name, canonical(std::move(labels))};
  std::lock_guard lock(mu_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name, Labels labels) {
  const Key key{name, canonical(std::move(labels))};
  std::lock_guard lock(mu_);
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, value] : counters_) {
    MetricSample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.kind = MetricKind::kCounter;
    sample.counter = value->value();
    out.push_back(std::move(sample));
  }
  for (const auto& [key, value] : gauges_) {
    MetricSample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.kind = MetricKind::kGauge;
    sample.gauge = value->value();
    out.push_back(std::move(sample));
  }
  for (const auto& [key, value] : histograms_) {
    MetricSample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.kind = MetricKind::kHistogram;
    sample.hist = value->snapshot();
    out.push_back(std::move(sample));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  });
  return out;
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity ? capacity : 1), epoch_(Clock::now()) {}

void EventLog::record(std::string kind, std::string detail) {
  EventRecord event;
  event.t_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  event.kind = std::move(kind);
  event.detail = std::move(detail);
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
  if (events_.size() > capacity_) events_.pop_front();
  ++recorded_;
}

std::vector<EventRecord> EventLog::snapshot() const {
  std::lock_guard lock(mu_);
  return {events_.begin(), events_.end()};
}

u64 EventLog::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

}  // namespace guardnn::obs
