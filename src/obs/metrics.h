#ifndef CAPPLAN_OBS_METRICS_H_
#define CAPPLAN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace capplan::obs {

// Thread-safe metrics registry for the always-on service surface. The
// paper's deployment (Section 8) is an estate-wide daemon; these are the
// primitives a standard monitoring stack scrapes from it:
//
//   * Counter   — monotone event count (registered names end in `_total`)
//   * Gauge     — instantaneous level (in-flight refits, active alerts)
//   * Histogram — fixed-bucket latency/size distribution with p50/p90/p99
//                 estimated by linear interpolation inside the bucket
//
// Registration (name + label set -> cell) takes a mutex; the returned
// handles are plain pointers into node-stable storage, so the hot path is
// lock-free relaxed atomics. Handles stay valid for the registry's lifetime
// and may be used concurrently from any thread (ThreadPool workers record
// fit latencies while the driver thread serves a scrape).

// Metric names are snake_case with a unit suffix, lint-enforced by
// tools/check_metrics.py against the catalogue in docs/observability.md:
// counters end in `_total`; histograms and timing gauges carry `_ms`,
// `_seconds`, `_bytes` or `_ratio`.
bool IsValidMetricName(const std::string& name);

// One metric label set, e.g. {{"stage","fit"},{"rung","ses"}}. Kept sorted
// by key so equal sets compare equal regardless of construction order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class CounterCell {
 public:
  void Inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class GaugeCell {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// The last observation that landed in a histogram bucket, with the ids
// needed to pivot from a latency spike to the trace span and wide event
// that caused it (OpenMetrics exemplar).
struct Exemplar {
  bool valid = false;
  double value = 0.0;
  std::uint64_t span_id = 0;
  std::uint64_t event_id = 0;
};

class HistogramCell {
 public:
  // `bounds` are ascending bucket upper limits; an implicit +Inf bucket is
  // appended. An empty vector gets the default latency layout.
  explicit HistogramCell(std::vector<double> bounds);

  void Observe(double v);
  // Observe() plus exemplar capture: the bucket the observation lands in
  // remembers (v, span_id, event_id) as its exposition exemplar. Lock-free
  // (per-bucket seqlock); a writer claims the slot with a CAS, and one that
  // loses the claim drops its exemplar — some recent observation wins, and
  // the published triple is always from a single observation.
  void ObserveWithExemplar(double v, std::uint64_t span_id,
                           std::uint64_t event_id);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Exact observed extrema (0 when empty) — the histogram keeps them so the
  // percentile interpolation can clamp to the real observed range.
  double Min() const;
  double Max() const;
  // q in [0,1]; linear interpolation inside the covering bucket, clamped to
  // the observed [min, max]. Returns 0 for an empty histogram.
  double Quantile(double q) const;
  // Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket.
  std::vector<std::uint64_t> BucketCounts() const;
  // Per-bucket exemplars, parallel to BucketCounts(); entries are invalid
  // for buckets that never saw an ObserveWithExemplar.
  std::vector<Exemplar> Exemplars() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  // Seqlock-protected exemplar slot: a writer claims the slot by CASing the
  // sequence from even to odd (so writers never interleave), and readers
  // retry until they see the same even sequence on both sides of the data
  // loads, so the (value, span, event) triple is always mutually consistent.
  struct ExemplarSlot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> event_id{0};
  };

  std::size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::vector<ExemplarSlot> exemplars_;              // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Cheap copyable handles. A default-constructed handle is detached and all
// operations on it are no-ops (reads return 0), so structs of handles can be
// declared before the registry binds them.
class Counter {
 public:
  Counter() = default;
  explicit Counter(CounterCell* cell) : cell_(cell) {}
  void Inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->Inc(n);
  }
  std::uint64_t value() const { return cell_ == nullptr ? 0 : cell_->Value(); }
  // Drop-in replacements for the plain-integer counters this API replaced
  // (ServiceTelemetry predates the registry): ++, += and assignment mutate
  // the underlying cell, and the handle converts to its current value.
  Counter& operator++() {
    Inc();
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    Inc(n);
    return *this;
  }
  Counter& operator=(std::uint64_t n) {
    if (cell_ != nullptr) cell_->Set(n);
    return *this;
  }
  operator std::uint64_t() const { return value(); }  // NOLINT(runtime/explicit)

 private:
  CounterCell* cell_ = nullptr;
};

inline std::ostream& operator<<(std::ostream& os, const Counter& c) {
  return os << c.value();
}

class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(GaugeCell* cell) : cell_(cell) {}
  void Set(double v) {
    if (cell_ != nullptr) cell_->Set(v);
  }
  void Add(double d) {
    if (cell_ != nullptr) cell_->Add(d);
  }
  double value() const { return cell_ == nullptr ? 0.0 : cell_->Value(); }

 private:
  GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}
  void Observe(double v) {
    if (cell_ != nullptr) cell_->Observe(v);
  }
  void ObserveWithExemplar(double v, std::uint64_t span_id,
                           std::uint64_t event_id) {
    if (cell_ != nullptr) cell_->ObserveWithExemplar(v, span_id, event_id);
  }
  std::uint64_t count() const { return cell_ == nullptr ? 0 : cell_->Count(); }
  double sum() const { return cell_ == nullptr ? 0.0 : cell_->Sum(); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const { return cell_ == nullptr ? 0.0 : cell_->Min(); }
  double max() const { return cell_ == nullptr ? 0.0 : cell_->Max(); }
  double quantile(double q) const {
    return cell_ == nullptr ? 0.0 : cell_->Quantile(q);
  }

 private:
  HistogramCell* cell_ = nullptr;
};

// Default bucket upper bounds (milliseconds) for stage/fit latencies: the
// paper's grid fits range from milliseconds (HES) to tens of seconds (the
// 660-candidate SARIMAX grid), so the layout spans 0.25 ms .. 60 s.
std::vector<double> DefaultLatencyBucketsMs();

enum class MetricType { kCounter, kGauge, kHistogram };

// Point-in-time view of one metric (one label set), for the exporters.
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  LabelSet labels;
  double value = 0.0;  // counter/gauge
  // Histogram only.
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // per-bucket, +Inf last
  std::vector<Exemplar> exemplars;           // parallel to bucket_counts
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by (name, labels)
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent: the same (name, labels) returns a handle to
  // the same cell. `help` is kept from the first registration.
  Counter GetCounter(const std::string& name, const LabelSet& labels = {},
                     const std::string& help = "");
  Gauge GetGauge(const std::string& name, const LabelSet& labels = {},
                 const std::string& help = "");
  // Empty `bounds` selects DefaultLatencyBucketsMs(). Bounds are fixed at
  // first registration; later calls for the same metric ignore them.
  Histogram GetHistogram(const std::string& name,
                         const std::vector<double>& bounds = {},
                         const LabelSet& labels = {},
                         const std::string& help = "");

  // Consistent-enough snapshot for a scrape (counters are relaxed atomics;
  // a scrape concurrent with updates may be one event behind per cell).
  MetricsSnapshot Collect() const;

  std::size_t size() const;

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<CounterCell> counter;
    std::unique_ptr<GaugeCell> gauge;
    std::unique_ptr<HistogramCell> histogram;
  };
  using Key = std::pair<std::string, LabelSet>;

  static LabelSet Sorted(LabelSet labels);

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_METRICS_H_
