#include "service/telemetry.h"

#include "common/json_writer.h"

namespace capplan::service {

ServiceTelemetry::ServiceTelemetry()
    : registry(std::make_shared<obs::MetricsRegistry>()) {
  auto counter = [this](const char* name, const char* help) {
    return registry->GetCounter(name, {}, help);
  };
  ticks = counter("capplan_ticks_total", "Service driver loop iterations");
  polls = counter("capplan_polls_total", "Agent samples requested");
  samples_ingested =
      counter("capplan_samples_ingested_total", "Raw samples appended");
  hourly_points =
      counter("capplan_hourly_points_total", "Hourly aggregates appended");
  refits_dispatched =
      counter("capplan_refits_dispatched_total", "Refits handed to the pool");
  refits_succeeded =
      counter("capplan_refits_succeeded_total", "Refits that produced a model");
  refits_failed = counter("capplan_refits_failed_total", "Refits that errored");
  refits_deferred =
      counter("capplan_refits_deferred_total", "Refits skipped: short history");
  refits_degraded = counter("capplan_refits_degraded_total",
                            "Refits served by a degradation-ladder rung");
  quality_gated = counter("capplan_quality_gated_total",
                          "Fits the data-quality sentinel kept off the grid");
  quarantines =
      counter("capplan_quarantines_total", "Keys quarantined after failures");
  alerts_raised = counter("capplan_alerts_raised_total", "Breach alerts raised");
  alerts_cleared =
      counter("capplan_alerts_cleared_total", "Breach alerts cleared");
  forecast_cache_hits = counter("capplan_forecast_cache_hits_total",
                                "Ticks served from a cached fit");
  forecast_exhausted_ticks = counter("capplan_forecast_exhausted_ticks_total",
                                     "Ticks where the cache outran its horizon");
  journal_events =
      counter("capplan_journal_events_total", "Journal events appended");
  snapshots_written =
      counter("capplan_snapshots_written_total", "State snapshots written");
  io_errors =
      counter("capplan_io_errors_total", "Absorbed write failures, all paths");
  journal_write_failures = counter("capplan_journal_write_failures_total",
                                   "Absorbed journal append failures");
  snapshot_failures = counter("capplan_snapshot_failures_total",
                              "Absorbed snapshot write failures");
  promotions = counter("capplan_guardrail_promotions_total",
                       "Challengers installed as champion");
  promotions_rejected =
      counter("capplan_guardrail_promotions_rejected_total",
              "Challengers the promotion gate rejected (champion retained)");
  rollbacks = counter("capplan_guardrail_rollbacks_total",
                      "Champions rolled back on live regression");
  obs_trace_dropped = counter("capplan_obs_trace_dropped_total",
                              "Trace spans overwritten in full ring buffers");
  obs_events_dropped = counter("capplan_obs_events_dropped_total",
                               "Wide events overwritten in full ring buffers");

  auto stage = [this](const char* name) {
    return registry->GetHistogram("capplan_stage_latency_ms", {},
                                  {{"stage", name}},
                                  "Per-stage wall time distribution");
  };
  ingest_stage = stage("ingest");
  fit_stage = stage("fit");
  forecast_stage = stage("forecast");
  alert_stage = stage("alert");
}

void ServiceTelemetry::EnsureShards(std::size_t n) {
  while (shards.size() < n) {
    const obs::LabelSet labels = {{"shard", std::to_string(shards.size())}};
    auto counter = [&](const char* name, const char* help) {
      return registry->GetCounter(name, labels, help);
    };
    auto histogram = [&](const char* name, const char* help) {
      return registry->GetHistogram(name, {}, labels, help);
    };
    ShardTelemetry s;
    s.ticks = counter("capplan_shard_ticks_total", "Shard tick jobs run");
    s.samples_ingested = counter("capplan_shard_samples_ingested_total",
                                 "Raw samples appended by this shard");
    s.refits_dispatched =
        counter("capplan_shard_refits_dispatched_total",
                "Series this shard handed to batch fit jobs");
    s.refits_deferred = counter("capplan_shard_refits_deferred_total",
                                "Refits this shard skipped: short history");
    s.refit_batches = counter("capplan_shard_refit_batches_total",
                              "Batched fit jobs submitted to the pool");
    s.batch_series = counter("capplan_shard_batch_series_total",
                             "Series fitted across those batch jobs");
    s.queue_enqueued = counter("capplan_shard_queue_enqueued_total",
                               "Keys pushed onto the shard's refit queue");
    s.queue_drained = counter("capplan_shard_queue_drained_total",
                              "Keys drained from the shard's refit queue");
    s.fourier_hits =
        counter("capplan_shard_fourier_hits_total",
                "Fourier design columns reused within a refit batch");
    s.fourier_misses =
        counter("capplan_shard_fourier_misses_total",
                "Distinct Fourier designs computed within refit batches");
    s.guardrail_scored =
        counter("capplan_guardrail_samples_scored_total",
                "Hourly actuals scored against the active forecast");
    s.guardrail_drift_alarms =
        counter("capplan_guardrail_drift_alarms_total",
                "Page-Hinkley sustained-error-shift alarms");
    s.guardrail_early_refits =
        counter("capplan_guardrail_early_refits_total",
                "Drift alarms that pulled a refit forward");
    s.tick_overruns = counter("capplan_health_tick_overruns_total",
                              "Shard tick jobs past the watchdog deadline");
    s.health_transitions = counter("capplan_health_transitions_total",
                                   "Health-state machine transitions");
    auto gauge = [&](const char* name, const char* help) {
      return registry->GetGauge(name, labels, help);
    };
    s.guardrail_live_mape =
        gauge("capplan_guardrail_live_mape_ratio",
              "Worst rolling live MAPE across the shard's keys (fraction)");
    s.guardrail_ph_statistic =
        gauge("capplan_guardrail_ph_statistic_ratio",
              "Worst Page-Hinkley cumulative statistic (APE units)");
    s.guardrail_ph_samples =
        gauge("capplan_guardrail_ph_samples_count",
              "Most detector samples seen since a key's baseline reset");
    s.health_state = gauge("capplan_health_state",
                           "Shard health: 0 healthy, 1 degraded, 2 critical");
    s.tick_stage = histogram("capplan_shard_tick_latency_ms",
                             "Whole shard tick job wall time");
    s.ingest_stage = histogram("capplan_shard_ingest_latency_ms",
                               "Ingest slice of the shard tick job");
    s.refit_batch_stage = histogram("capplan_shard_refit_batch_ms",
                                    "One batched fit job, end to end");
    shards.push_back(std::move(s));
  }
}

namespace {

void WriteStage(JsonWriter* w, const std::string& key,
                const obs::Histogram& stage) {
  w->Key(key);
  w->BeginObject();
  w->Integer("count", static_cast<long long>(stage.count()));
  w->Number("total_ms", stage.sum());
  w->Number("mean_ms", stage.mean());
  w->Number("max_ms", stage.max());
  w->Number("min_ms", stage.min());
  w->Number("p50_ms", stage.quantile(0.50));
  w->Number("p99_ms", stage.quantile(0.99));
  w->EndObject();
}

}  // namespace

std::string TelemetryToJson(const ServiceTelemetry& t, bool pretty) {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Integer("ticks", static_cast<long long>(t.ticks.value()));
  w.Integer("polls", static_cast<long long>(t.polls.value()));
  w.Integer("samples_ingested",
            static_cast<long long>(t.samples_ingested.value()));
  w.Integer("hourly_points", static_cast<long long>(t.hourly_points.value()));
  w.Integer("refits_dispatched",
            static_cast<long long>(t.refits_dispatched.value()));
  w.Integer("refits_succeeded",
            static_cast<long long>(t.refits_succeeded.value()));
  w.Integer("refits_failed", static_cast<long long>(t.refits_failed.value()));
  w.Integer("refits_deferred",
            static_cast<long long>(t.refits_deferred.value()));
  w.Integer("refits_degraded",
            static_cast<long long>(t.refits_degraded.value()));
  w.Integer("quality_gated", static_cast<long long>(t.quality_gated.value()));
  w.Integer("quarantines", static_cast<long long>(t.quarantines.value()));
  w.Integer("alerts_raised", static_cast<long long>(t.alerts_raised.value()));
  w.Integer("alerts_cleared", static_cast<long long>(t.alerts_cleared.value()));
  w.Integer("forecast_cache_hits",
            static_cast<long long>(t.forecast_cache_hits.value()));
  w.Integer("forecast_exhausted_ticks",
            static_cast<long long>(t.forecast_exhausted_ticks.value()));
  w.Integer("journal_events", static_cast<long long>(t.journal_events.value()));
  w.Integer("snapshots_written",
            static_cast<long long>(t.snapshots_written.value()));
  w.Integer("io_errors", static_cast<long long>(t.io_errors.value()));
  w.Integer("journal_write_failures",
            static_cast<long long>(t.journal_write_failures.value()));
  w.Integer("snapshot_failures",
            static_cast<long long>(t.snapshot_failures.value()));
  w.Key("stages");
  w.BeginObject();
  WriteStage(&w, "ingest", t.ingest_stage);
  WriteStage(&w, "fit", t.fit_stage);
  WriteStage(&w, "forecast", t.forecast_stage);
  WriteStage(&w, "alert", t.alert_stage);
  w.EndObject();
  // Strictly appended after the frozen counter/stages prefix: per-shard
  // stage distributions (and the queue counters that reveal skew). An
  // unsharded service emits a one-element array.
  w.BeginArray("shards");
  for (std::size_t i = 0; i < t.shards.size(); ++i) {
    const ShardTelemetry& s = t.shards[i];
    w.BeginObject();
    w.Integer("shard", static_cast<long long>(i));
    w.Integer("ticks", static_cast<long long>(s.ticks.value()));
    w.Integer("refit_batches",
              static_cast<long long>(s.refit_batches.value()));
    w.Integer("queue_enqueued",
              static_cast<long long>(s.queue_enqueued.value()));
    w.Integer("queue_drained",
              static_cast<long long>(s.queue_drained.value()));
    WriteStage(&w, "tick", s.tick_stage);
    WriteStage(&w, "ingest", s.ingest_stage);
    WriteStage(&w, "refit_batch", s.refit_batch_stage);
    w.EndObject();
  }
  w.EndArray();
  // Appended after the shards array (still additive wrt the golden prefix):
  // the forecast-guardrail and deep-health summaries. Scoring counters are
  // summed across shards; detector gauges report the worst key anywhere.
  {
    std::uint64_t scored = 0, alarms = 0, early = 0, overruns = 0;
    double worst_mape = 0.0, worst_stat = 0.0, most_samples = 0.0;
    for (const ShardTelemetry& s : t.shards) {
      scored += s.guardrail_scored.value();
      alarms += s.guardrail_drift_alarms.value();
      early += s.guardrail_early_refits.value();
      overruns += s.tick_overruns.value();
      if (s.guardrail_live_mape.value() > worst_mape) {
        worst_mape = s.guardrail_live_mape.value();
      }
      if (s.guardrail_ph_statistic.value() > worst_stat) {
        worst_stat = s.guardrail_ph_statistic.value();
      }
      if (s.guardrail_ph_samples.value() > most_samples) {
        most_samples = s.guardrail_ph_samples.value();
      }
    }
    w.Key("guardrail");
    w.BeginObject();
    w.Integer("samples_scored", static_cast<long long>(scored));
    w.Integer("drift_alarms", static_cast<long long>(alarms));
    w.Integer("early_refits", static_cast<long long>(early));
    w.Integer("promotions", static_cast<long long>(t.promotions.value()));
    w.Integer("promotions_rejected",
              static_cast<long long>(t.promotions_rejected.value()));
    w.Integer("rollbacks", static_cast<long long>(t.rollbacks.value()));
    w.Number("live_mape_max", worst_mape);
    w.Number("ph_statistic_max", worst_stat);
    w.Number("ph_samples_max", most_samples);
    w.EndObject();
    w.Key("health");
    w.BeginObject();
    w.Integer("tick_overruns", static_cast<long long>(overruns));
    w.BeginArray("states");
    for (const ShardTelemetry& s : t.shards) {
      w.ArrayNumber(s.health_state.value());
    }
    w.EndArray();
    w.EndObject();
  }
  // Appended after "health" (still additive wrt the golden prefix): the
  // flight-recorder drop counters. Both stay 0 unless a ring wrapped since
  // the last export refresh.
  w.Key("obs");
  w.BeginObject();
  w.Integer("trace_dropped",
            static_cast<long long>(t.obs_trace_dropped.value()));
  w.Integer("events_dropped",
            static_cast<long long>(t.obs_events_dropped.value()));
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace capplan::service
