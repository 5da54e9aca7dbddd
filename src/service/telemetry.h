#ifndef CAPPLAN_SERVICE_TELEMETRY_H_
#define CAPPLAN_SERVICE_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace capplan::service {

// Per-shard slice of the service telemetry (labels {shard="i"} on every
// cell). One entry per estate shard, created by
// ServiceTelemetry::EnsureShards; an unsharded service has exactly one.
// These are the numbers that make shard skew visible: a lagging shard shows
// up as a tick-latency outlier and a growing enqueued-minus-drained gap.
struct ShardTelemetry {
  obs::Counter ticks;              // shard tick jobs run
  obs::Counter samples_ingested;   // raw samples appended by this shard
  obs::Counter refits_dispatched;  // series handed to batch fit jobs
  obs::Counter refits_deferred;    // skipped: short history
  obs::Counter refit_batches;      // batch jobs submitted to the pool
  obs::Counter batch_series;       // series across those batches
  obs::Counter queue_enqueued;     // keys pushed onto the refit queue
  obs::Counter queue_drained;      // keys popped off it (depth = difference)
  obs::Counter fourier_hits;       // batched-refit design-column reuses
  obs::Counter fourier_misses;     // distinct designs computed

  // Forecast guardrail (quality::LiveAccuracyTracker) — live scoring of
  // hourly actuals against the active cached forecast, per shard.
  obs::Counter guardrail_scored;        // actuals scored
  obs::Counter guardrail_drift_alarms;  // Page-Hinkley sustained-shift alarms
  obs::Counter guardrail_early_refits;  // alarms that pulled a refit forward
  // Deep health of the shard.
  obs::Counter tick_overruns;        // tick-deadline watchdog hits
  obs::Counter health_transitions;   // health-state machine transitions
  obs::Gauge guardrail_live_mape;    // worst rolling live MAPE across keys
  obs::Gauge guardrail_ph_statistic; // worst Page-Hinkley statistic
  obs::Gauge guardrail_ph_samples;   // most detector samples since baseline
  obs::Gauge health_state;           // 0 healthy / 1 degraded / 2 critical

  // Stage latency histograms (ms), fed by the stage's TraceSpan::End().
  obs::Histogram tick_stage;         // whole shard tick job wall time
  obs::Histogram ingest_stage;       // ingest slice of the tick job
  obs::Histogram refit_batch_stage;  // one batch fit job, end to end
};

// Counters and per-stage latencies of the estate planning daemon. The
// paper's production deployment (Section 8) is an always-on service; these
// are the numbers an operator would watch to know it is healthy.
//
// The struct is now a facade over an obs::MetricsRegistry: each field is a
// handle into the registry, so the same numbers that feed TelemetryToJson
// are scrapeable through the Prometheus exporter (obs/export.h) with no
// double bookkeeping. Handles keep the original plain-integer ergonomics
// (++, +=, =, implicit read) so call sites did not change.
struct ServiceTelemetry {
  ServiceTelemetry();
  ServiceTelemetry(const ServiceTelemetry&) = delete;
  ServiceTelemetry& operator=(const ServiceTelemetry&) = delete;

  // Registry owning every cell below; shared so an exporter can outlive a
  // scrape call. Declared first: handles must not outlive it.
  std::shared_ptr<obs::MetricsRegistry> registry;

  obs::Counter ticks;
  obs::Counter polls;               // agent samples requested
  obs::Counter samples_ingested;    // raw samples appended
  obs::Counter hourly_points;       // hourly aggregates appended
  obs::Counter refits_dispatched;
  obs::Counter refits_succeeded;
  obs::Counter refits_failed;
  obs::Counter refits_deferred;     // not enough history yet
  obs::Counter refits_degraded;     // forecast came from a ladder rung
  obs::Counter quality_gated;       // sentinel kept a fit off the grid
  obs::Counter quarantines;
  obs::Counter alerts_raised;
  obs::Counter alerts_cleared;
  obs::Counter forecast_cache_hits;     // ticks served from a cached fit
  obs::Counter forecast_exhausted_ticks;  // cache older than its horizon
  obs::Counter journal_events;
  obs::Counter snapshots_written;

  // Write-path failures the service absorbed to stay available. A non-zero
  // count means durability is degraded (recovery would lose the failed
  // events/snapshots) even though the daemon kept serving.
  obs::Counter io_errors;               // all absorbed write failures
  obs::Counter journal_write_failures;  // subset: journal appends
  obs::Counter snapshot_failures;       // subset: snapshot writes

  // Champion/challenger guardrail outcomes (driver side; per-shard scoring
  // counters live in ShardTelemetry).
  obs::Counter promotions;           // challengers installed as champion
  obs::Counter promotions_rejected;  // challengers the gate kept out
  obs::Counter rollbacks;            // champions rolled back on regression

  // Flight-recorder ring overwrites (cumulative, refreshed from the
  // obs::Tracer / obs::EventLog singletons just before each export). A
  // rising rate means the rings are undersized for the event volume and
  // recent history is being lost.
  obs::Counter obs_trace_dropped;
  obs::Counter obs_events_dropped;

  // Stage latency histograms (ms), fed by the stage's TraceSpan::End().
  obs::Histogram ingest_stage;
  obs::Histogram fit_stage;       // worker wall time per refit
  obs::Histogram forecast_stage;  // breach scan over cached forecasts
  obs::Histogram alert_stage;     // alert state transitions + journalling

  // Grows `shards` to n entries, registering each one's capplan_shard_*
  // cells with a {shard="i"} label. Idempotent; never shrinks.
  void EnsureShards(std::size_t n);
  std::vector<ShardTelemetry> shards;
};

// Serializes the telemetry block via the shared JSON writer — the same
// integration surface as core::ReportToJson. Field order and formatting of
// the pre-registry fields are frozen (goldens in estate_service_test.cc);
// the histogram-derived stage fields (min_ms, p50_ms, p99_ms) and the
// trailing per-shard "shards" array are additive — strictly appended after
// the frozen prefix, never inserted into it.
std::string TelemetryToJson(const ServiceTelemetry& telemetry,
                            bool pretty = false);

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_TELEMETRY_H_
