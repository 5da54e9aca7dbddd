#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace capplan::obs {

namespace {

bool HasSuffix(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

}  // namespace

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (name.front() < 'a' || name.front() > 'z') return false;
  for (char c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  if (name.find("__") != std::string::npos) return false;
  return !HasSuffix(name, "_");
}

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.25, 0.5,  1.0,   2.5,   5.0,   10.0,   25.0,    50.0,  100.0,
          250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
}

HistogramCell::HistogramCell(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBucketsMs() : std::move(bounds)),
      buckets_(bounds_.size() + 1),
      exemplars_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

std::size_t HistogramCell::BucketIndex(double v) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void HistogramCell::Observe(double v) {
  if (std::isnan(v)) return;
  const std::size_t idx = BucketIndex(v);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  double seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void HistogramCell::ObserveWithExemplar(double v, std::uint64_t span_id,
                                        std::uint64_t event_id) {
  if (std::isnan(v)) return;
  Observe(v);
  ExemplarSlot& slot = exemplars_[BucketIndex(v)];
  // Claim the slot by flipping seq even -> odd with a CAS so two writers
  // can never interleave their field stores. Losing the race just drops
  // this exemplar — the slot only promises *some* recent observation. Each
  // field store is a release, so a reader that sees it also sees the claim
  // before it; the release store of the new even seq publishes all three.
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if (seq % 2 != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return;
  }
  slot.value.store(v, std::memory_order_release);
  slot.span_id.store(span_id, std::memory_order_release);
  slot.event_id.store(event_id, std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);  // even: stable
}

std::vector<Exemplar> HistogramCell::Exemplars() const {
  std::vector<Exemplar> out(exemplars_.size());
  for (std::size_t i = 0; i < exemplars_.size(); ++i) {
    const ExemplarSlot& slot = exemplars_[i];
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) break;       // never written
      if (s1 % 2 != 0) continue;  // writer in flight
      Exemplar e;
      e.valid = true;
      // Acquire loads: the re-read of seq below cannot move above them, and
      // a field written by a later writer carries that writer's claim with
      // it, so the re-read then sees a newer seq. An unchanged sequence thus
      // proves the triple was not torn, with no fence (which TSan cannot
      // model).
      e.value = slot.value.load(std::memory_order_acquire);
      e.span_id = slot.span_id.load(std::memory_order_acquire);
      e.event_id = slot.event_id.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == s1) {
        out[i] = e;
        break;
      }
    }
  }
  return out;
}

double HistogramCell::Min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double HistogramCell::Max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double HistogramCell::Quantile(double q) const {
  const std::uint64_t n = Count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double lo_seen = Min();
  const double hi_seen = Max();
  const double target = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) continue;
    if (cum + in_bucket >= target) {
      // Interpolate inside this bucket, clamping its edges to the observed
      // extrema so sparse tails don't inflate the estimate.
      double lo = i == 0 ? lo_seen : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : hi_seen;
      lo = std::max(lo, lo_seen);
      hi = std::min(hi, hi_seen);
      if (hi < lo) hi = lo;
      const double frac = std::max(target - cum, 0.0) / in_bucket;
      return std::clamp(lo + frac * (hi - lo), lo_seen, hi_seen);
    }
    cum += in_bucket;
  }
  return hi_seen;
}

std::vector<std::uint64_t> HistogramCell::BucketCounts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

LabelSet MetricsRegistry::Sorted(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Counter MetricsRegistry::GetCounter(const std::string& name,
                                    const LabelSet& labels,
                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[{name, Sorted(labels)}];
  if (e.counter == nullptr) {
    e.type = MetricType::kCounter;
    e.help = help;
    e.counter = std::make_unique<CounterCell>();
  }
  return Counter(e.counter.get());
}

Gauge MetricsRegistry::GetGauge(const std::string& name,
                                const LabelSet& labels,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[{name, Sorted(labels)}];
  if (e.gauge == nullptr) {
    e.type = MetricType::kGauge;
    e.help = help;
    e.gauge = std::make_unique<GaugeCell>();
  }
  return Gauge(e.gauge.get());
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds,
                                        const LabelSet& labels,
                                        const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[{name, Sorted(labels)}];
  if (e.histogram == nullptr) {
    e.type = MetricType::kHistogram;
    e.help = help;
    e.histogram = std::make_unique<HistogramCell>(bounds);
  }
  return Histogram(e.histogram.get());
}

MetricsSnapshot MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.help = entry.help;
    s.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        s.value = static_cast<double>(entry.counter->Value());
        break;
      case MetricType::kGauge:
        s.value = entry.gauge->Value();
        break;
      case MetricType::kHistogram:
        s.bounds = entry.histogram->bounds();
        s.bucket_counts = entry.histogram->BucketCounts();
        s.exemplars = entry.histogram->Exemplars();
        s.count = entry.histogram->Count();
        s.sum = entry.histogram->Sum();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace capplan::obs
