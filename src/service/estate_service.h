#ifndef CAPPLAN_SERVICE_ESTATE_SERVICE_H_
#define CAPPLAN_SERVICE_ESTATE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/capacity.h"
#include "core/pipeline.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "quality/guardrail.h"
#include "quality/sentinel.h"
#include "repo/model_store.h"
#include "repo/repository.h"
#include "serve/estate_view.h"
#include "service/health.h"
#include "service/events.h"
#include "service/journal.h"
#include "service/scheduler.h"
#include "service/shard.h"
#include "service/telemetry.h"
#include "workload/cluster.h"

namespace capplan::service {

// The paper's production operating mode (Sections 5.1, 8) as a continuously
// running, simulated-clock daemon: agents poll every 15 minutes, samples are
// aggregated hourly into the central repository, each stored model lives for
// one week or until its RMSE degrades, refits are dispatched concurrently
// onto a shared thread pool with retry/backoff and failure quarantine, and
// cached forecasts feed a breach-alert stream between refits. An append-only
// journal plus periodic snapshots make the schedule, registry, forecasts and
// alert state recoverable after a crash.
//
// The estate is partitioned into n_shards independent shards (consistent
// hash of the repository key — service/shard.h): each shard owns its slice
// of metric storage, its own due-time retrain scheduler and a batched refit
// queue, and runs its tick work (ingest, staleness, due-taking, batch
// preparation) as one parallel job per shard. Due refits drain through the
// queue in batches of refit_batch_size series per pool job, so transforms
// that do not depend on the series values (the Fourier design columns
// behind every shared-OLS group — core::RefitBatchSession) are computed
// once per batch instead of once per series. The estate-level coordinator —
// this class — keeps the public API, the journal/snapshot formats, the
// model registry, forecast/alert state and EstateView publication exactly
// as before, so the serving layer and recovery semantics are unchanged;
// docs/scaling.md covers the sharding model and its metrics.

// One (instance, metric) pair under estate watch.
struct WatchConfig {
  int instance = 0;
  workload::Metric metric = workload::Metric::kCpu;
  double threshold = 0.0;  // breach level for the alert feed
  // Per-watch agent fault override (e.g. a flaky host); the service-wide
  // fault model applies when unset.
  std::optional<agent::FaultModel> faults;

  WatchConfig() = default;
  WatchConfig(int instance, workload::Metric metric, double threshold,
              std::optional<agent::FaultModel> faults = std::nullopt)
      : instance(instance),
        metric(metric),
        threshold(threshold),
        faults(std::move(faults)) {}
};

// Forecast guardrails (docs/robustness.md): live accuracy scoring of every
// arriving hourly actual against the active cached forecast, the
// champion/challenger promotion gate, automatic rollback on live
// regression, drift-triggered early refits, and the per-shard health
// watchdog. All thresholds compare MAPE in percent (the pipeline's held-out
// unit); the tracker itself reports a fraction and the service converts.
struct GuardrailConfig {
  bool enabled = true;
  // Per-key live scoring (rolling window + Page-Hinkley drift detection).
  quality::LiveAccuracyTracker::Options tracker;
  // Challenger promotion gate: a freshly refit challenger is installed only
  // if its held-out MAPE does not exceed tolerance_ratio x the champion's
  // live rolling MAPE. The gate needs at least promotion_min_scored live
  // points — before that (fresh key, just-promoted champion) the challenger
  // is promoted unconditionally, which keeps short estates deterministic.
  double promotion_tolerance_ratio = 1.5;
  std::size_t promotion_min_scored = 6;
  // Live-regression rollback: the champion is rolled back to the previous
  // generation when its live MAPE exceeds regression_ratio x the reference
  // (the previous champion's own live MAPE, its held-out MAPE as fallback),
  // with at least rollback_min_scored points of evidence.
  double rollback_regression_ratio = 2.0;
  std::size_t rollback_min_scored = 6;
  // Floor (percent) under both references so a near-perfect champion cannot
  // hair-trigger gates on sub-percent noise.
  double reference_mape_floor_pct = 1.0;
  // A Page-Hinkley drift alarm pulls the key's refit forward to "now"
  // (respecting backoff and quarantine — a failing key is never thundered).
  bool early_refit_on_drift = true;
  // Shard tick jobs slower than this trip the watchdog (a health signal);
  // <= 0 disables the deadline.
  double tick_deadline_ms = 5000.0;
  // Per-shard health-state machine thresholds.
  HealthPolicy health;
};

// Service-level objectives (obs/slo.h): multi-window burn-rate tracking
// over a forecast-accuracy SLO (fed by the live guardrail scoring pass) and
// a serve-latency SLO (fed by the query handler when wired with the
// service's SloSet). Burn rates export as capplan_slo_* metrics, render on
// /v1/slo, and — for the accuracy SLO — feed each shard's health state
// machine (sustained burn argues kDegraded, never kCritical).
struct SloConfig {
  bool enabled = true;
  // Forecast accuracy: a live-scored point is "good" when its absolute
  // percentage error stays at or under the tolerance (fraction, matching
  // LiveAccuracyTracker::Scored::abs_pct_error). Windows are sized for the
  // hourly scoring cadence: 6 h reacts within a workday, 24 h must agree
  // before health degrades.
  double accuracy_objective = 0.90;
  double accuracy_ape_tolerance = 0.25;
  double accuracy_fast_window_seconds = 6.0 * 3600.0;
  double accuracy_slow_window_seconds = 24.0 * 3600.0;
  // Serve latency: a request is "good" when rendered under the threshold.
  // Recorded by serve::EstateQueryHandler against the shared SloSet; the
  // windows follow the SRE-workbook 5 min / 1 h pairing.
  double latency_objective = 0.99;
  double latency_threshold_ms = 250.0;
  double latency_fast_window_seconds = 300.0;
  double latency_slow_window_seconds = 3600.0;
};

struct EstateServiceConfig {
  // Simulated seconds per Tick(); must be a positive multiple of one hour so
  // every tick completes whole aggregation buckets.
  std::int64_t tick_seconds = 3600;
  // Agent poll cadence (15 min or 1 h, as MonitoringAgent supports).
  std::int64_t poll_seconds = 15 * 60;
  // Workers on the shared refit pool.
  std::size_t fit_threads = 4;
  // History backfilled before the first tick so the Table-1 hourly window
  // (42 days) is available immediately.
  int warmup_days = 42;
  // Cap on fit input: at most this many recent hourly points per refit.
  std::size_t fit_window_hours = 56 * 24;
  // Model selection options for refits. The service forces
  // model_repository = nullptr (the driver thread owns registry updates),
  // n_threads = 1 (parallelism is across series, on the shared pool), and a
  // horizon override spanning the staleness period unless one is set.
  core::PipelineOptions pipeline;
  repo::StalenessPolicy staleness;
  RetryPolicy retry;
  // Live-RMSE window (hours of forecast-vs-actual overlap) for the
  // degradation half of the staleness policy; fewer overlapping points than
  // `degradation_min_points` skips the check.
  std::size_t degradation_window_hours = 24;
  std::size_t degradation_min_points = 6;
  // Snapshot cadence in ticks; 0 disables snapshots (journal-only recovery).
  int snapshot_every_ticks = 24;
  // Durability directory (journal + snapshots). Empty = ephemeral service.
  std::string state_dir;
  // Data-quality sentinel applied to every fit window before the pipeline.
  quality::SentinelOptions quality;
  // When set, windows the sentinel marks untrainable skip the configured
  // selection grid and start directly on the HES rung of the degradation
  // ladder (the grid would only overfit the noise the sentinel flagged).
  bool quality_gate = true;
  // When set, refits walk the degradation ladder instead of failing: every
  // watched instance keeps *some* forecast (tagged with its rung) unless the
  // window holds no usable data at all.
  bool always_forecast = true;
  // Trailing observed hours copied into each published EstateView row so the
  // serving layer can answer headroom queries without repository access.
  std::size_t view_recent_hours = 48;
  // Longer observed tail published for /v1/decompose: STL needs at least two
  // full cycles of the longest detected period (two weeks of hourly data
  // covers the weekly season). 0 disables the decompose history.
  std::size_t view_history_hours = 14 * 24;
  // Estate partitioning: number of independent shards (consistent key hash;
  // 0 and 1 both mean unsharded). Shard tick jobs run in parallel on a
  // small second pool, so several shards only pay off when the host has
  // cores for them; the shard count itself is a layout choice and must stay
  // stable across restarts for per-shard segment recovery (resizing is
  // safe but falls back to a full re-poll — docs/scaling.md).
  std::size_t n_shards = 1;
  // Series per batched refit job drained from a shard's queue (min 1).
  // Larger batches amortize shared transforms and per-job overhead across
  // more series but serialize those series onto one pool worker.
  std::size_t refit_batch_size = 8;
  // Cap on refit batches dispatched per shard per tick; 0 = unlimited.
  // Overflow stays on the shard's queue (in flight, visible as the
  // enqueued-minus-drained gap) and drains on later ticks — bounded-refit
  // overload shedding.
  std::size_t max_batches_per_shard_tick = 0;
  // Forecast guardrails: live scoring, promotion gate, rollback, health.
  GuardrailConfig guardrail;
  // Burn-rate SLOs: forecast accuracy (service-fed) + serve latency
  // (handler-fed through the shared SloSet).
  SloConfig slo;
};

// An active breach warning.
struct ServiceAlert {
  std::string key;
  bool upper_only = false;  // only the upper prediction bound crosses
  std::int64_t predicted_breach_epoch = 0;
  std::int64_t raised_at_epoch = 0;
};

// What one Tick() did.
struct TickReport {
  std::int64_t now_epoch = 0;
  std::size_t samples_ingested = 0;
  std::size_t refits_dispatched = 0;
  std::size_t refit_batches = 0;  // pool jobs carrying those refits
  std::size_t refits_completed = 0;
  std::size_t refits_failed = 0;
  std::size_t refits_degraded = 0;  // completed via a ladder rung
  std::size_t alerts_raised = 0;
  std::size_t alerts_cleared = 0;
  std::size_t promotions_rejected = 0;  // challengers the gate kept out
  std::size_t rollbacks = 0;            // champions rolled back this tick
};

class EstateService {
 public:
  // `cluster` is not owned and must outlive the service.
  EstateService(const workload::ClusterSimulator* cluster,
                std::vector<WatchConfig> watches,
                EstateServiceConfig config = {},
                agent::FaultModel default_faults = {});
  ~EstateService();

  EstateService(const EstateService&) = delete;
  EstateService& operator=(const EstateService&) = delete;

  // Fresh start: backfills the warmup window into the metrics repository and
  // schedules an initial fit for every watch.
  Status Start();

  // Crash recovery: reloads the last snapshot from state_dir, decodes the
  // journal suffix and applies every event with Apply, the reducer the live
  // path runs, to rebuild clock, registry, schedule, cached forecasts,
  // quality verdicts and alert state, then rebuilds the metric history by
  // re-polling the deterministic agents up to the recovered cursor. (A real
  // deployment would reload the repository's own persisted series instead;
  // see MetricsRepository::SaveAll.)
  Status Recover();

  // One scheduler cycle: ingest the elapsed window, check staleness and
  // degradation, dispatch due refits onto the pool, collect finished ones,
  // update the alert feed, journal, and snapshot when due. Never blocks on
  // in-flight refits.
  Result<TickReport> Tick();

  // Convenience: `n` consecutive ticks, stopping on the first error.
  Status RunTicks(int n);

  // Blocks until every in-flight refit has completed and been applied.
  Status DrainRefits();

  // Forces a snapshot now (also drains, so the snapshot is complete).
  Status Checkpoint();

  // Puts a quarantined key back into the rotation, due immediately.
  Status ReleaseQuarantine(const std::string& key);

  // Writes the Prometheus text exposition of the telemetry registry to
  // `path` atomically (tmp + rename), so an external scraper never reads a
  // half-written file. Callable at any point in the service lifecycle.
  Status WritePrometheus(const std::string& path) const;

  // Drains every buffered trace span (obs::Tracer — enable tracing with
  // obs::Tracer::Instance().Enable() before Start/Tick) into a Chrome
  // trace-event JSON file at `path`, viewable in chrome://tracing or
  // Perfetto. Draining clears the buffers; each dump covers the spans since
  // the previous one.
  Status DumpTrace(const std::string& path) const;

  // Introspection.
  bool started() const { return started_; }
  std::int64_t now() const { return now_; }
  std::uint64_t tick_count() const { return ticks_; }
  const ServiceTelemetry& telemetry() const { return telemetry_; }
  const repo::ModelRepository& registry() const { return registry_; }

  // Shard topology. Keys route by consistent hash: the shard owning a key
  // is a pure function of (key, n_shards), identical across restarts.
  std::size_t n_shards() const { return shards_.size(); }
  std::size_t ShardOfKey(const std::string& key) const {
    return ShardOf(key, shards_.size());
  }
  // Keys owned by one shard, in watch-config order.
  std::vector<std::string> ShardKeys(std::size_t shard) const;

  // Metric storage, routed by key (each shard owns its slice). FindHourly's
  // borrow semantics are the repository's: valid until the same key is
  // mutated (the next Tick).
  const repo::MetricsRepository& metrics_for(const std::string& key) const {
    return ShardForKey(key).metrics;
  }
  const repo::MetricsRepository& shard_metrics(std::size_t shard) const {
    return shards_[shard]->metrics;
  }
  const tsa::TimeSeries* FindHourly(const std::string& key) const {
    return ShardForKey(key).metrics.FindHourly(key);
  }
  // Series across all shards.
  std::size_t series_count() const;

  // Retrain schedule, routed by key.
  Result<ScheduleEntry> ScheduleFor(const std::string& key) const {
    return ShardForKey(key).scheduler.Get(key);
  }
  bool IsQuarantined(const std::string& key) const {
    return ShardForKey(key).scheduler.IsQuarantined(key);
  }
  std::vector<std::string> QuarantinedKeys() const;  // all shards, key order
  std::vector<ScheduleEntry> ScheduleEntries() const;  // all shards, key order
  std::size_t schedule_size() const;
  const RetrainScheduler& shard_scheduler(std::size_t shard) const {
    return shards_[shard]->scheduler;
  }

  // Keys queued for a batched refit but not yet handed to a pool job
  // (queued keys are in flight in their scheduler, so they are never taken
  // twice; a crash mid-queue re-dispatches them on recovery).
  std::size_t RefitQueueDepth() const;

  // Outstanding batched refit jobs on the pool (each carries up to
  // refit_batch_size series).
  std::size_t in_flight_refits() const { return in_flight_.size(); }
  std::vector<ServiceAlert> ActiveAlerts() const;
  const std::vector<std::string>& keys() const { return keys_; }
  // Latest sentinel report per key (from the most recent collected refit).
  const std::map<std::string, quality::QualityReport>& quality_reports()
      const {
    return quality_;
  }
  // Ladder rung of the key's cached forecast; kFull when no forecast yet.
  core::DegradationLevel ForecastDegradation(const std::string& key) const;
  // The forecast each key's rollback slot holds: the demoted champion's,
  // paired with registry().GetPrevious.
  const std::map<std::string, CachedForecast>& rollback_forecasts() const {
    return previous_forecasts_;
  }

  // Deep health (service/health.h): per-shard state machine fed by tick
  // overruns, refit-queue depth, quarantine/rollback storms and I/O errors.
  HealthState ShardHealthState(std::size_t shard) const {
    return shards_[shard]->health.state();
  }
  HealthState OverallHealth() const;
  // Rolling live MAPE (percent, as the pipeline reports it) of the key's
  // champion; negative while the key has no scored points yet.
  double LiveMapeFor(const std::string& key) const;

  // The service's SLO trackers ("forecast_accuracy" is fed by the guardrail
  // scoring pass; "serve_latency" is empty until a query handler is wired
  // with this set via EstateQueryHandler::Options::slos). Null when
  // config.slo.enabled is false.
  std::shared_ptr<obs::SloSet> slos() const { return slo_set_; }
  // Monotone sequence number of the last journal event appended (0 before
  // the first append, or for an ephemeral service). Wide events emitted at
  // journalled transitions carry the seq of their event, linking the
  // flight recorder to the durability log.
  std::uint64_t journal_seq() const { return journal_seq_; }

  // Read side of the serving layer: an immutable estate snapshot is
  // republished (one atomic shared_ptr swap) at the end of Start, every
  // Tick, DrainRefits, and Recover. Request threads answer from the frozen
  // view without touching service state or locks.
  std::shared_ptr<const serve::EstateView> View() const {
    return view_channel_.Get();
  }
  serve::ViewChannel* view_channel() { return &view_channel_; }

  // Repository key for a watch on this cluster ("cdbm011/cpu").
  static std::string KeyFor(const workload::ClusterSimulator& cluster,
                            const WatchConfig& watch);

 private:
  // Everything a worker returns; applied on the driver thread.
  struct FitOutcome {
    Status status;
    // The challenger: key, fitted_at (the dispatch-time sim clock), winner
    // and accuracy, coefficients for warm starts, detected periods.
    repo::StoredModel model;
    CachedForecast forecast;
    bool quality_gated = false;  // sentinel kept this fit off the grid
    quality::QualityReport quality;
    // The worker's refit span. Its id is stamped onto this outcome's
    // journal events so a logged failure can be found in the trace
    // timeline; its start and duration time the refit wide event and the
    // fit stage.
    obs::SpanTiming refit;
  };

  // One series of a prepared refit batch: everything the pool job needs,
  // copied so the job never touches live service state.
  struct RefitJobInput {
    std::string key;
    tsa::TimeSeries window;
    core::PipelineOptions opts;
    std::int64_t fitted_at_epoch = 0;
  };
  // A shard's drained batch, ready for one pool job.
  struct PreparedBatch {
    std::size_t shard = 0;
    std::vector<RefitJobInput> items;
  };
  // What one batch job returns: per-series outcomes plus the batch-level
  // shared-transform stats, applied on the driver thread.
  struct BatchOutcome {
    std::size_t shard = 0;
    std::vector<FitOutcome> outcomes;
    std::uint64_t fourier_hits = 0;
    std::uint64_t fourier_misses = 0;
    double wall_ms = 0.0;
  };
  // What one shard's parallel tick job produced.
  struct ShardTickOutput {
    Status status;
    std::vector<PreparedBatch> batches;
    std::size_t samples_ingested = 0;
    std::size_t refits_dispatched = 0;
  };

  EstateShard& ShardForKey(const std::string& key) {
    return *shards_[ShardOf(key, shards_.size())];
  }
  const EstateShard& ShardForKey(const std::string& key) const {
    return *shards_[ShardOf(key, shards_.size())];
  }

  // Runs `fn(shard)` for every shard — inline when unsharded, as one job
  // per shard on the tick pool otherwise — and returns the first error.
  // The driver blocks until every shard job has finished, so shard state is
  // never touched from two threads at once.
  Status ForEachShard(const std::function<Status(EstateShard*)>& fn);

  Status IngestShard(EstateShard* shard, std::int64_t from_epoch,
                     std::int64_t to_epoch,
                     std::size_t* samples_out = nullptr);
  void CheckStalenessShard(EstateShard* shard);
  // Takes due keys into the shard's refit queue, then drains the queue into
  // prepared batches (short-history keys defer instead).
  void PrepareBatches(EstateShard* shard, ShardTickOutput* out);
  // The whole per-shard phase of one Tick: ingest + staleness + batching.
  ShardTickOutput TickShard(EstateShard* shard);
  void SubmitBatch(PreparedBatch batch, TickReport* report);
  void CollectFinished(bool block, TickReport* report);
  // Decision code for a finished refit: the sentinel verdict, then the
  // promotion gate's install or rejection, or the failure and quarantine.
  void DecideOutcome(const FitOutcome& outcome, TickReport* report);
  void EvaluateAlerts(TickReport* report);
  // Shard-phase live scoring: every hourly actual the tick ingested is
  // scored against the key's active cached forecast (one guardrail tracker
  // per key), feeding the Page-Hinkley detector; an alarm pulls the key's
  // refit forward when backoff allows. Runs inside TickShard, so it only
  // reads coordinator forecasts_ (the CheckStalenessShard precedent) and
  // writes shard-owned guardrail state.
  void ScoreShard(EstateShard* shard);
  // Driver-phase guardrail pass: exports per-shard worst-key gauges and
  // rolls back champions whose live MAPE regressed past the configured
  // ratio of their predecessor's accuracy.
  void EvaluateGuardrails(TickReport* report);
  // Driver-phase health pass: folds the tick's signals into each shard's
  // state machine and exports the state gauges.
  void EvaluateHealth();
  void PublishView();
  // Writes the snapshot files. Only keys without an encoded row (their
  // forecast changed since the last snapshot) are encoded afresh.
  Status WriteSnapshot();
  Status LoadSnapshot();
  // Installs the key's served forecast and drops its encoded snapshot row.
  // The only writer of forecasts_.
  void InstallForecast(const std::string& key, CachedForecast forecast);
  // Journals `event` (stamped with the calling thread's trace span when it
  // has none) and applies it, even when the append fails; returns the
  // append's status. Every journalled live transition goes through it.
  Status Commit(const Event& event);
  // The one reducer: the only code that changes the registry, the cached
  // and rollback forecasts, alerts, quality verdicts, the journalled
  // schedule transitions and the clock. The live path reaches it through
  // Commit; Recover applies each decoded line of the journal suffix.
  // Telemetry stays with the live decision code, so replay counts nothing.
  void Apply(const Event& event);
  // Rebuilds one shard's metric history on recovery: reopen its segment
  // directory and re-poll only the missing suffix, or fall back to a full
  // re-poll when the segments are missing/damaged/inconsistent.
  Status RecoverShardHistory(EstateShard* shard);
  std::string ShardSegmentDir(std::size_t shard) const;
  std::string JournalPath() const;

  const workload::ClusterSimulator* cluster_;  // not owned
  std::vector<WatchConfig> watches_;
  EstateServiceConfig config_;
  std::vector<agent::MonitoringAgent> agents_;  // one per watch
  std::vector<std::string> keys_;               // parallel to watches_
  std::map<std::string, std::size_t> watch_index_;

  // The shards: each owns its slice of metric storage, its scheduler and
  // its refit queue. Estate-level state (registry, forecasts, alerts,
  // quality, journal) stays below, owned by the coordinator.
  std::vector<std::unique_ptr<EstateShard>> shards_;

  repo::ModelRepository registry_;
  EventJournal journal_;
  ServiceTelemetry telemetry_;

  // SLO trackers (null when disabled). accuracy_slo_ caches the estate-wide
  // "forecast_accuracy" tracker; per-shard trackers live on the shards.
  std::shared_ptr<obs::SloSet> slo_set_;
  obs::SloTracker* accuracy_slo_ = nullptr;
  // Count of successfully appended journal events (== the journal_events
  // counter, but plain so the hot path stays off the registry).
  std::uint64_t journal_seq_ = 0;

  std::map<std::string, CachedForecast> forecasts_;
  // Each forecast's snapshot.forecasts.csv record (repo::AppendCsvRecord of
  // EncodeForecastRow), encoded by the first snapshot after the forecast
  // was installed and reused until the next install drops it.
  std::map<std::string, std::string> forecast_rows_;
  // Rollback targets: the forecast each key's previous champion was serving
  // when the current champion displaced it. Entries exist only for keys
  // whose registry lineage also holds a previous generation, so a rollback
  // restores model and forecast together, byte-equal to pre-promotion.
  std::map<std::string, CachedForecast> previous_forecasts_;
  std::map<std::string, ServiceAlert> alerts_;
  std::map<std::string, quality::QualityReport> quality_;
  std::vector<std::future<BatchOutcome>> in_flight_;

  serve::ViewChannel view_channel_;
  obs::Counter view_swaps_;

  bool started_ = false;
  std::int64_t now_ = 0;     // simulated clock
  std::int64_t cursor_ = 0;  // next poll epoch (ingested up to here)
  std::uint64_t ticks_ = 0;

  // Small pool for the parallel per-shard tick jobs (null when unsharded:
  // one shard runs inline on the driver thread). Separate from pool_ so a
  // shard tick never queues behind a long batched grid fit — Tick() must
  // stay non-blocking with respect to in-flight refits.
  std::unique_ptr<ThreadPool> tick_pool_;

  // Declared last: destroyed first, draining queued fit jobs (which capture
  // only copies) before the rest of the service goes away.
  ThreadPool pool_;
};

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_ESTATE_SERVICE_H_
