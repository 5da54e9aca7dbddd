#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace capplan::obs {
namespace {

TEST(MetricNameTest, AcceptsCatalogueStyleNames) {
  EXPECT_TRUE(IsValidMetricName("capplan_ticks_total"));
  EXPECT_TRUE(IsValidMetricName("capplan_stage_latency_ms"));
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("x9_y2"));
}

TEST(MetricNameTest, RejectsNonCatalogueNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName("_starts_with_underscore"));
  EXPECT_FALSE(IsValidMetricName("CamelCase"));
  EXPECT_FALSE(IsValidMetricName("has-dash"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("double__underscore"));
  EXPECT_FALSE(IsValidMetricName("trailing_"));
}

TEST(CounterTest, DetachedHandleIsANoOp) {
  Counter c;
  c.Inc();
  c += 7;
  ++c;
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(c), 0u);
}

TEST(CounterTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("requests_total");
  Counter b = registry.GetCounter("requests_total");
  a.Inc(3);
  b.Inc(2);
  EXPECT_EQ(a.value(), 5u);  // both handles share the cell
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(CounterTest, IntegerOperatorsMutateTheCell) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("ops_total");
  ++c;
  c += 4;
  EXPECT_EQ(c.value(), 5u);
  c = 2;  // assignment resets (used by recovery replay)
  EXPECT_EQ(static_cast<std::uint64_t>(c), 2u);
}

TEST(CounterTest, LabelOrderDoesNotSplitTheSeries) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("fits_total",
                                  {{"rung", "ses"}, {"stage", "fit"}});
  Counter b = registry.GetCounter("fits_total",
                                  {{"stage", "fit"}, {"rung", "ses"}});
  a.Inc();
  b.Inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge g = registry.GetGauge("in_flight_refits");
  g.Set(3.0);
  g.Add(2.0);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  Gauge detached;
  detached.Set(9.0);
  EXPECT_DOUBLE_EQ(detached.value(), 0.0);
}

TEST(HistogramTest, TracksCountSumAndExtrema) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("fit_ms", {10.0, 20.0});
  h.Observe(2.0);
  h.Observe(8.0);
  h.Observe(15.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 25.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);
}

TEST(HistogramTest, EmptyHistogramReadsAsZero) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("idle_ms", {1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, IgnoresNaNObservations) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("clean_ms", {1.0});
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(0.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);
}

TEST(HistogramTest, QuantileInterpolatesInsideTheCoveringBucket) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("lat_ms", {10.0, 20.0});
  // Four observations in [2, 8] plus one at 15: the p50 target falls 2.5/4
  // of the way through the first bucket, whose edges clamp to [2, 10].
  for (double v : {2.0, 4.0, 6.0, 8.0}) h.Observe(v);
  h.Observe(15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0 + 0.625 * (10.0 - 2.0));
  // The top quantile clamps to the observed maximum, not the bucket bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
}

TEST(HistogramTest, MatchesTheTelemetryGoldenValues) {
  // The default latency layout puts 7.5 in (5, 10] and 12.5 in (10, 25];
  // these are the exact values the ServiceTelemetry JSON golden test pins.
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("stage_ms");
  h.Observe(12.5);
  h.Observe(7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 12.45);
  EXPECT_DOUBLE_EQ(h.min(), 7.5);
  EXPECT_DOUBLE_EQ(h.max(), 12.5);
}

TEST(HistogramTest, EmptyBoundsSelectDefaultLatencyLayout) {
  MetricsRegistry registry;
  registry.GetHistogram("default_ms").Observe(3.0);
  MetricsSnapshot snap = registry.Collect();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].bounds, DefaultLatencyBucketsMs());
  // Per-bucket counts carry one extra +Inf bucket.
  EXPECT_EQ(snap.samples[0].bucket_counts.size(),
            DefaultLatencyBucketsMs().size() + 1);
}

TEST(RegistryTest, CollectSnapshotsEveryKind) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("events_total", {}, "events seen");
  Gauge g = registry.GetGauge("level");
  Histogram h = registry.GetHistogram("wait_ms", {1.0, 2.0});
  c.Inc(4);
  g.Set(2.5);
  h.Observe(0.5);
  h.Observe(5.0);

  MetricsSnapshot snap = registry.Collect();
  ASSERT_EQ(snap.samples.size(), 3u);  // sorted by name
  EXPECT_EQ(snap.samples[0].name, "events_total");
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.samples[0].help, "events seen");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 4.0);
  EXPECT_EQ(snap.samples[1].name, "level");
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 2.5);
  EXPECT_EQ(snap.samples[2].name, "wait_ms");
  EXPECT_EQ(snap.samples[2].type, MetricType::kHistogram);
  EXPECT_EQ(snap.samples[2].count, 2u);
  EXPECT_DOUBLE_EQ(snap.samples[2].sum, 5.5);
  const std::vector<std::uint64_t> expected = {1, 0, 1};  // (..1], (1,2], +Inf
  EXPECT_EQ(snap.samples[2].bucket_counts, expected);
}

// The hot-path contract: handles recorded from ThreadPool workers while the
// driver thread registers new series and scrapes. Run under TSan in CI.
TEST(RegistryTest, ConcurrentRecordingKeepsExactTotals) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("hammer_total");
  Histogram h = registry.GetHistogram("hammer_ms", {1.0, 10.0, 100.0});
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](std::size_t t) {
    // Workers also re-register (idempotent) and collect mid-hammer.
    Counter mine = registry.GetCounter("hammer_total");
    for (std::size_t i = 0; i < kPerThread; ++i) {
      mine.Inc();
      h.Observe(static_cast<double>((t * kPerThread + i) % 200));
      if (i % 4096 == 0) (void)registry.Collect();
    }
  });
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 199.0);
}

// Exemplar slots are seqlocks: pool writers publish (v, span, event) triples
// that agree with each other while a reader loops Exemplars(), and no read
// may mix two writers' fields. Every value lands in the +Inf bucket, so all
// writers contend for one slot. Run under TSan in CI.
TEST(RegistryTest, ConcurrentExemplarReadsAreNeverTorn) {
  HistogramCell cell({0.5});
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const Exemplar& e : cell.Exemplars()) {
        if (!e.valid) continue;
        ASSERT_EQ(e.span_id, e.event_id);
        ASSERT_EQ(e.value, static_cast<double>(e.span_id));
      }
    }
  });
  {
    ThreadPool pool(kWriters);
    pool.ParallelFor(kWriters, [&](std::size_t w) {
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) {
        const std::uint64_t id = w * kPerWriter + i;
        cell.ObserveWithExemplar(static_cast<double>(id), id, id);
      }
    });
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(cell.Count(), kWriters * kPerWriter);
  const Exemplar last = cell.Exemplars().back();
  ASSERT_TRUE(last.valid);
  EXPECT_EQ(last.value, static_cast<double>(last.span_id));
  EXPECT_EQ(last.span_id, last.event_id);
}

}  // namespace
}  // namespace capplan::obs
