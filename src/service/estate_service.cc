#include "service/estate_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/number_format.h"
#include "core/batch_refit.h"
#include "core/selector.h"
#include "core/split.h"
#include "models/arima_spec.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "repo/csv.h"

namespace capplan::service {

namespace {

// The alert `fc` raises at `now`: its first step at or after `now` whose
// mean, else whose upper bound, crosses `threshold`.
std::optional<AlertEvent> FirstBreach(const CachedForecast& fc,
                                      double threshold, std::int64_t now) {
  if (fc.step_seconds <= 0) return std::nullopt;
  std::int64_t first = (now - fc.start_epoch) / fc.step_seconds;
  if ((now - fc.start_epoch) % fc.step_seconds != 0) ++first;
  if (first < 0) first = 0;
  for (const bool upper : {false, true}) {
    const std::vector<double>& bound =
        upper ? fc.forecast.upper : fc.forecast.mean;
    for (std::size_t i = static_cast<std::size_t>(first); i < bound.size();
         ++i) {
      if (bound[i] > threshold) {
        return AlertEvent{upper, fc.start_epoch + static_cast<std::int64_t>(i) *
                                                      fc.step_seconds};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string EstateService::KeyFor(const workload::ClusterSimulator& cluster,
                                  const WatchConfig& watch) {
  return repo::MetricsRepository::KeyFor(cluster.InstanceName(watch.instance),
                                         watch.metric);
}

EstateService::EstateService(const workload::ClusterSimulator* cluster,
                             std::vector<WatchConfig> watches,
                             EstateServiceConfig config,
                             agent::FaultModel default_faults)
    : cluster_(cluster),
      watches_(std::move(watches)),
      config_(std::move(config)),
      registry_(config_.staleness),
      pool_(config_.fit_threads) {
  if (config_.refit_batch_size == 0) config_.refit_batch_size = 1;
  agents_.reserve(watches_.size());
  keys_.reserve(watches_.size());
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    const WatchConfig& w = watches_[i];
    agents_.emplace_back(cluster_, w.faults.value_or(default_faults),
                         config_.poll_seconds);
    keys_.push_back(cluster_ != nullptr ? KeyFor(*cluster_, w)
                                        : std::to_string(i));
    watch_index_[keys_.back()] = i;
  }
  const std::size_t n_shards = std::max<std::size_t>(1, config_.n_shards);
  telemetry_.EnsureShards(n_shards);
  obs::SloTracker::Options accuracy_slo;
  if (config_.slo.enabled) {
    accuracy_slo.objective = config_.slo.accuracy_objective;
    accuracy_slo.fast_window_seconds = config_.slo.accuracy_fast_window_seconds;
    accuracy_slo.slow_window_seconds = config_.slo.accuracy_slow_window_seconds;
    obs::SloTracker::Options latency_slo;
    latency_slo.objective = config_.slo.latency_objective;
    latency_slo.fast_window_seconds = config_.slo.latency_fast_window_seconds;
    latency_slo.slow_window_seconds = config_.slo.latency_slow_window_seconds;
    slo_set_ = std::make_shared<obs::SloSet>();
    accuracy_slo_ = slo_set_->Add("forecast_accuracy", accuracy_slo);
    slo_set_->Add("serve_latency", latency_slo);
  }
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<EstateShard>(config_.retry);
    shard->id = s;
    shard->telemetry = &telemetry_.shards[s];
    shard->health = ShardHealth(config_.guardrail.health);
    if (config_.slo.enabled) {
      shard->accuracy_slo = std::make_unique<obs::SloTracker>(accuracy_slo);
    }
    // The unsharded service keeps unlabelled store gauges (the layout every
    // dashboard predates); sharded stores need the shard label so N gauges
    // do not clobber one another on Set.
    obs::LabelSet store_labels;
    if (n_shards > 1) store_labels.push_back({"shard", std::to_string(s)});
    shard->metrics.BindMetrics(telemetry_.registry.get(), store_labels);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    shards_[ShardOf(keys_[i], n_shards)]->watch_ids.push_back(i);
  }
  if (telemetry_.registry != nullptr) {
    view_swaps_ = telemetry_.registry->GetCounter(
        "capplan_serve_view_swaps_total", {},
        "EstateView snapshots published to the serving layer");
  }
  if (n_shards > 1) {
    tick_pool_ = std::make_unique<ThreadPool>(
        std::min(n_shards, core::DefaultThreadCount()));
  }
}

EstateService::~EstateService() = default;

Status EstateService::ForEachShard(
    const std::function<Status(EstateShard*)>& fn) {
  if (tick_pool_ == nullptr) return fn(shards_[0].get());
  std::vector<std::future<Status>> pending;
  pending.reserve(shards_.size());
  for (auto& shard : shards_) {
    EstateShard* s = shard.get();
    pending.push_back(tick_pool_->Submit([&fn, s] { return fn(s); }));
  }
  // Join everything before propagating: a failed shard must not leave
  // siblings running against state the caller thinks is quiesced.
  Status first = Status::OK();
  for (auto& f : pending) {
    Status st = f.get();
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

Status EstateService::Start() {
  if (started_) {
    return Status::FailedPrecondition("service: already started");
  }
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("service: no cluster attached");
  }
  if (watches_.empty()) {
    return Status::InvalidArgument("service: no watches configured");
  }
  if (config_.tick_seconds <= 0 || config_.tick_seconds % 3600 != 0) {
    return Status::InvalidArgument(
        "service: tick_seconds must be a positive multiple of 3600");
  }
  if (!config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.state_dir, ec);
    if (ec) {
      return Status::IoError("service: cannot create state dir " +
                             config_.state_dir + ": " + ec.message());
    }
    CAPPLAN_ASSIGN_OR_RETURN(journal_, EventJournal::Open(JournalPath()));
  }
  now_ = cluster_->start_epoch();
  cursor_ = now_;
  if (config_.warmup_days > 0) {
    obs::TraceSpan ingest_span("service.ingest", "service");
    const std::int64_t warmup_end =
        now_ + static_cast<std::int64_t>(config_.warmup_days) * 86400;
    const std::int64_t from = cursor_;
    CAPPLAN_RETURN_NOT_OK(ForEachShard([this, from, warmup_end](
                                           EstateShard* shard) {
      return IngestShard(shard, from, warmup_end);
    }));
    cursor_ = warmup_end;
    now_ = warmup_end;
    telemetry_.ingest_stage.Observe(ingest_span.End());
  }
  for (const auto& key : keys_) {
    ShardForKey(key).scheduler.ScheduleAt(key, now_);
  }
  started_ = true;
  PublishView();
  return Status::OK();
}

Status EstateService::IngestShard(EstateShard* shard, std::int64_t from_epoch,
                                  std::int64_t to_epoch,
                                  std::size_t* samples_out) {
  if (to_epoch <= from_epoch) return Status::OK();
  const std::int64_t span = to_epoch - from_epoch;
  if (span % config_.poll_seconds != 0) {
    return Status::InvalidArgument(
        "service: ingest window is not a whole number of polls");
  }
  const std::size_t n_polls =
      static_cast<std::size_t>(span / config_.poll_seconds);
  for (std::size_t id : shard->watch_ids) {
    CAPPLAN_ASSIGN_OR_RETURN(
        tsa::TimeSeries chunk,
        agents_[id].Collect(watches_[id].instance, watches_[id].metric,
                            from_epoch, n_polls));
    chunk.set_name(keys_[id]);
    CAPPLAN_RETURN_NOT_OK(shard->metrics.Append(keys_[id], chunk));
    telemetry_.polls += n_polls;
    telemetry_.samples_ingested += chunk.size();
    telemetry_.hourly_points += static_cast<std::uint64_t>(span / 3600);
    shard->telemetry->samples_ingested.Inc(chunk.size());
    if (samples_out != nullptr) *samples_out += chunk.size();
  }
  return Status::OK();
}

void EstateService::CheckStalenessShard(EstateShard* shard) {
  for (std::size_t id : shard->watch_ids) {
    const std::string& key = keys_[id];
    auto entry = shard->scheduler.Get(key);
    // A key on the retry ladder keeps its backoff: after a failed age-due
    // refit its champion stays past max_age, so a pull here would retry it
    // every tick (ScoreShard's drift pulls follow the same rule).
    if (entry.ok() && (entry->quarantined || entry->in_flight ||
                       entry->consecutive_failures > 0)) {
      continue;
    }
    if (!registry_.Contains(key)) continue;  // initial fit already scheduled
    auto fc_it = forecasts_.find(key);
    double live_rmse = -1.0;
    if (fc_it != forecasts_.end()) {
      const CachedForecast& fc = fc_it->second;
      const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
      if (hourly != nullptr && !hourly->empty()) {
        const std::size_t n = hourly->size();
        const std::size_t begin =
            n > config_.degradation_window_hours
                ? n - config_.degradation_window_hours
                : 0;
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t j = begin; j < n; ++j) {
          const std::int64_t t = hourly->TimestampAt(j);
          if (t < fc.start_epoch || fc.step_seconds <= 0) continue;
          const std::int64_t idx = (t - fc.start_epoch) / fc.step_seconds;
          if (idx < 0 ||
              idx >= static_cast<std::int64_t>(fc.forecast.mean.size())) {
            continue;
          }
          const double actual = (*hourly)[j];
          if (std::isnan(actual)) continue;
          const double err =
              actual - fc.forecast.mean[static_cast<std::size_t>(idx)];
          sum += err * err;
          ++count;
        }
        if (count >= config_.degradation_min_points) {
          live_rmse = std::sqrt(sum / static_cast<double>(count));
        }
      }
    }
    // The age half of the policy is already encoded in the schedule (due =
    // fitted_at + max_age); this pulls the refit forward on degradation.
    if (registry_.IsStale(key, now_, live_rmse)) {
      shard->scheduler.PullForward(key, now_);
    }
  }
}

void EstateService::ScoreShard(EstateShard* shard) {
  if (!config_.guardrail.enabled) return;
  obs::TraceSpan span("guardrail.score", "service");
  for (std::size_t id : shard->watch_ids) {
    const std::string& key = keys_[id];
    const auto fc_it = forecasts_.find(key);
    if (fc_it == forecasts_.end()) continue;
    const CachedForecast& fc = fc_it->second;
    if (fc.step_seconds <= 0 || fc.forecast.mean.empty()) continue;
    const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
    if (hourly == nullptr || hourly->empty()) continue;
    auto entry_it = shard->guardrail.find(key);
    if (entry_it == shard->guardrail.end()) {
      EstateShard::GuardrailEntry fresh;
      fresh.tracker = quality::LiveAccuracyTracker(config_.guardrail.tracker);
      // First sight of the key: the high-water mark starts at the previous
      // tick's cursor, so only points this tick ingested are scored — a
      // recovery re-poll of weeks of history must not flood the detector.
      fresh.last_scored_epoch = cursor_;
      entry_it = shard->guardrail.emplace(key, std::move(fresh)).first;
    }
    EstateShard::GuardrailEntry& entry = entry_it->second;
    // Walk back from the tail to the first point newer than the high-water
    // mark: a tick appends a handful of hours while the series holds weeks,
    // so the scan touches only the fresh suffix.
    const std::size_t n = hourly->size();
    std::size_t begin = n;
    while (begin > 0 &&
           hourly->TimestampAt(begin - 1) > entry.last_scored_epoch) {
      --begin;
    }
    bool alarmed = false;
    for (std::size_t j = begin; j < n; ++j) {
      const std::int64_t t = hourly->TimestampAt(j);
      entry.last_scored_epoch = t;
      if (t < fc.start_epoch) continue;
      const std::int64_t idx = (t - fc.start_epoch) / fc.step_seconds;
      if (idx < 0 ||
          idx >= static_cast<std::int64_t>(fc.forecast.mean.size())) {
        continue;
      }
      const double actual = (*hourly)[j];
      if (std::isnan(actual)) continue;  // masked outage, not model error
      const auto scored = entry.tracker.Score(
          actual, fc.forecast.mean[static_cast<std::size_t>(idx)]);
      ++shard->telemetry->guardrail_scored;
      // Feed the forecast-accuracy SLO: the scored point is good when its
      // APE stays within tolerance. Shard tracker drives this shard's
      // health burn signal; the estate tracker drives /v1/slo and the
      // capplan_slo_* export. Both are internally synchronized, so
      // concurrent shard tick jobs may share the estate tracker.
      if (slo_set_ != nullptr) {
        const bool good =
            scored.abs_pct_error <= config_.slo.accuracy_ape_tolerance;
        const double at = static_cast<double>(t);
        shard->accuracy_slo->Record(good, at);
        accuracy_slo_->Record(good, at);
      }
      if (scored.drift_alarm) {
        alarmed = true;
        ++shard->telemetry->guardrail_drift_alarms;
      }
    }
    if (alarmed && config_.guardrail.early_refit_on_drift) {
      // Sustained error shift: pull the key's refit forward — but never
      // through the retry ladder. A key that is backing off, quarantined or
      // already in flight keeps its schedule (the detector auto-reset after
      // the alarm provides a natural min_samples cooldown either way).
      const auto sched = shard->scheduler.Get(key);
      if (sched.ok() && !sched->quarantined && !sched->in_flight &&
          sched->consecutive_failures == 0 && sched->due_epoch > now_) {
        shard->scheduler.PullForward(key, now_);
        ++shard->telemetry->guardrail_early_refits;
      }
    }
  }
}

void EstateService::PrepareBatches(EstateShard* shard, ShardTickOutput* out) {
  // Newly due keys join the back of the shard's queue; they stay in_flight
  // in the scheduler until an outcome (or defer) lands, so a key is never
  // queued twice.
  for (const auto& key : shard->scheduler.TakeDue(now_)) {
    shard->refit_queue.push_back(key);
    ++shard->telemetry->queue_enqueued;
  }
  const std::size_t max_batches = config_.max_batches_per_shard_tick;
  std::vector<RefitJobInput> items;
  while (!shard->refit_queue.empty()) {
    if (max_batches > 0 && out->batches.size() >= max_batches) {
      break;  // overload shedding: the rest drains on later ticks
    }
    const std::string key = shard->refit_queue.front();
    shard->refit_queue.pop_front();
    ++shard->telemetry->queue_drained;
    const tsa::TimeSeries* hourly = shard->metrics.FindHourly(key);
    auto policy = core::SplitFor(tsa::Frequency::kHourly);
    const std::size_t needed = policy.ok() ? policy->observations : 1008;
    const std::size_t have = hourly == nullptr ? 0 : hourly->size();
    if (have < needed) {
      // Not enough history yet: come back when the gap has been ingested.
      shard->scheduler.Defer(
          key, now_ + static_cast<std::int64_t>(needed - have) * 3600);
      ++telemetry_.refits_deferred;
      ++shard->telemetry->refits_deferred;
      continue;
    }
    const std::size_t window_len =
        std::min<std::size_t>(config_.fit_window_hours, have);
    auto window = hourly->Slice(have - window_len, window_len);
    if (!window.ok()) {
      shard->scheduler.Defer(key, now_ + 3600);
      ++telemetry_.refits_deferred;
      ++shard->telemetry->refits_deferred;
      continue;
    }
    window->set_name(key);
    core::PipelineOptions opts = config_.pipeline;
    opts.model_repository = nullptr;  // driver thread owns registry updates
    opts.n_threads = 1;               // parallelism is across series
    // capplan_select_* metrics from the routing/lattice stages land in the
    // service registry (handles are lock-free, workers record directly).
    opts.metrics = telemetry_.registry.get();
    // Warm-start the grid search from the previous fit of this series: the
    // stored coefficients seed the matching chains in the selector, so a
    // weekly refit of a stable workload converges in a fraction of the
    // cold-fit iterations (the cold re-score keeps the selection itself
    // unchanged).
    if (auto prev = registry_.Get(key); prev.ok()) {
      if (auto spec = models::ParseArimaSpec(prev->spec); spec.ok()) {
        opts.selector_hint.spec = *spec;
        opts.selector_hint.ar = prev->ar_coef;
        opts.selector_hint.ma = prev->ma_coef;
      }
    }
    if (opts.horizon_override == 0) {
      // One fit's forecast must outlive the staleness period.
      opts.horizon_override = static_cast<std::size_t>(
          config_.staleness.max_age_seconds / 3600 + 48);
    }
    if (config_.always_forecast) opts.degrade_on_failure = true;
    RefitJobInput item;
    item.key = key;
    item.window = std::move(*window);
    item.opts = std::move(opts);
    item.fitted_at_epoch = now_;
    items.push_back(std::move(item));
    ++telemetry_.refits_dispatched;
    ++shard->telemetry->refits_dispatched;
    ++out->refits_dispatched;
    if (items.size() >= config_.refit_batch_size) {
      out->batches.push_back({shard->id, std::move(items)});
      items.clear();
    }
  }
  if (!items.empty()) {
    out->batches.push_back({shard->id, std::move(items)});
  }
}

EstateService::ShardTickOutput EstateService::TickShard(EstateShard* shard) {
  obs::TraceSpan span("shard.tick", "service");
  ShardTickOutput out;
  obs::TraceSpan ingest_span("shard.ingest", "service");
  out.status = IngestShard(shard, cursor_, now_, &out.samples_ingested);
  shard->telemetry->ingest_stage.Observe(ingest_span.End());
  if (!out.status.ok()) return out;
  CheckStalenessShard(shard);
  ScoreShard(shard);
  PrepareBatches(shard, &out);
  ++shard->telemetry->ticks;
  const double tick_ms = span.End();
  shard->telemetry->tick_stage.Observe(tick_ms);
  if (config_.guardrail.tick_deadline_ms > 0 &&
      tick_ms > config_.guardrail.tick_deadline_ms) {
    // Watchdog: the shard fell behind its tick budget. Counted here (the
    // tick job is this counter's single writer) and folded into the health
    // state machine by the driver after the join.
    ++shard->tick_overruns;
    ++shard->telemetry->tick_overruns;
    obs::EventLog& events = obs::EventLog::Instance();
    if (events.enabled()) {
      obs::WideEvent ev;
      ev.kind = obs::WideEventKind::kTickOverrun;
      ev.set_key("shard.tick");
      ev.shard = static_cast<std::int32_t>(shard->id);
      ev.set_timing(span.timing());
      ev.outcome = "overrun";
      ev.AddAttr("deadline_ms", config_.guardrail.tick_deadline_ms);
      ev.AddAttr("samples_ingested",
                 static_cast<double>(out.samples_ingested));
      events.Emit(ev);
    }
  }
  return out;
}

void EstateService::SubmitBatch(PreparedBatch batch, TickReport* report) {
  if (report != nullptr) ++report->refit_batches;
  EstateShard* shard = shards_[batch.shard].get();
  ++shard->telemetry->refit_batches;
  shard->telemetry->batch_series.Inc(batch.items.size());
  // The job captures copies only, so it stays valid across service shutdown
  // and never races the driver thread. All per-series results plus the
  // batch-level cache stats come back in one BatchOutcome, applied by the
  // driver in CollectFinished.
  in_flight_.push_back(pool_.Submit(
      [items = std::move(batch.items), shard_id = batch.shard,
       quality_opts = config_.quality,
       gate = config_.quality_gate]() -> BatchOutcome {
        obs::TraceSpan batch_span("shard.refit_batch", "service");
        BatchOutcome bo;
        bo.shard = shard_id;
        // One session per batch: the Fourier design columns behind every
        // shared-OLS group are computed for the first series and reused by
        // the rest (identical cadence -> identical design).
        core::RefitBatchSession session;
        bo.outcomes.reserve(items.size());
        for (const RefitJobInput& item : items) {
          obs::TraceSpan refit_span("service.refit", "service");
          FitOutcome out;
          out.model.key = item.key;
          out.model.fitted_at_epoch = item.fitted_at_epoch;
          // Sentinel pass: classify, repair what is safe, mask outages.
          // An irreparable window (no usable observation) fails the fit
          // outright — retry/backoff/quarantine handle it from there.
          quality::DataQualitySentinel sentinel(quality_opts);
          auto repaired = sentinel.Repair(item.window, &out.quality);
          if (!repaired.ok()) {
            out.status = repaired.status();
            refit_span.End();
            out.refit = refit_span.timing();
            bo.outcomes.push_back(std::move(out));
            continue;
          }
          core::PipelineOptions run_opts = item.opts;
          if (gate && !out.quality.trainable &&
              run_opts.technique != core::Technique::kHes) {
            // Not enough clean signal for the grid: the selection would
            // only overfit the flagged noise. Start on the HES rung.
            run_opts.technique = core::Technique::kHes;
            out.quality_gated = true;
          }
          auto rep = session.Run(*repaired, run_opts);
          refit_span.End();
          out.refit = refit_span.timing();
          if (!rep.ok()) {
            out.status = rep.status();
            bo.outcomes.push_back(std::move(out));
            continue;
          }
          out.status = Status::OK();
          repo::StoredModel& model = out.model;
          model.technique = core::TechniqueName(rep->chosen_family);
          model.spec = rep->chosen_spec;
          model.test_rmse = rep->test_accuracy.rmse;
          model.test_mape = rep->test_accuracy.mape;
          model.ar_coef = std::move(rep->chosen_ar);
          model.ma_coef = std::move(rep->chosen_ma);
          for (const auto& season : rep->seasons) {
            model.periods.push_back(static_cast<double>(season.period));
          }
          CachedForecast& fc = out.forecast;
          fc.forecast = std::move(rep->forecast);
          fc.start_epoch = rep->forecast_start_epoch;
          fc.step_seconds = tsa::FrequencySeconds(item.window.frequency());
          fc.spec = model.technique + " " + model.spec;
          fc.degradation = rep->degradation;
          if (out.quality_gated &&
              fc.degradation == core::DegradationLevel::kFull) {
            fc.degradation = core::DegradationLevel::kHesOnly;
          }
          // Chaos sites: a refit that "succeeds" with a ruined model. The
          // first ruins the held-out accuracy (what the promotion gate
          // sees); the second ruins the forecast itself while keeping the
          // reported accuracy clean — the live guardrail must catch it.
          if (FaultFires("pipeline.poison_fit")) {
            model.test_rmse = 1e6;
            model.test_mape = 1e6;
          }
          if (FaultFires("pipeline.poison_forecast")) {
            for (double& v : fc.forecast.mean) v = v * 10.0 + 1e3;
            for (double& v : fc.forecast.lower) v = v * 10.0 + 1e3;
            for (double& v : fc.forecast.upper) v = v * 10.0 + 1e3;
          }
          bo.outcomes.push_back(std::move(out));
        }
        const core::RefitBatchSession::Stats stats = session.stats();
        bo.fourier_hits = stats.fourier_hits;
        bo.fourier_misses = stats.fourier_misses;
        bo.wall_ms = batch_span.End();
        return bo;
      }));
}

void EstateService::CollectFinished(bool block, TickReport* report) {
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const bool ready =
        block ||
        it->wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    if (!ready) {
      ++it;
      continue;
    }
    BatchOutcome batch = it->get();
    for (const FitOutcome& outcome : batch.outcomes) {
      DecideOutcome(outcome, report);
    }
    ShardTelemetry* st = shards_[batch.shard]->telemetry;
    st->fourier_hits.Inc(batch.fourier_hits);
    st->fourier_misses.Inc(batch.fourier_misses);
    st->refit_batch_stage.Observe(batch.wall_ms);
    it = in_flight_.erase(it);
  }
}

void EstateService::DecideOutcome(const FitOutcome& outcome,
                                  TickReport* report) {
  const std::string& key = outcome.model.key;
  const double test_mape = outcome.model.test_mape;
  // Every journal event from this outcome carries the worker's refit span
  // id, so a replayed failure can be located in the trace dump.
  const std::uint64_t span_id = outcome.refit.span_id;
  Commit({now_, key, span_id, QualityEvent{outcome.quality}});
  if (outcome.quality_gated) ++telemetry_.quality_gated;
  // Flight recorder: one wide event per refit, sharing the worker's span id
  // with the journal events above (the /v1/debug <-> journal correlation
  // contract) and feeding the fit-stage histogram's exemplar slot so a
  // latency outlier links straight back to this record.
  std::uint64_t refit_event_id = 0;
  obs::EventLog& events = obs::EventLog::Instance();
  if (events.enabled()) {
    obs::WideEvent ev;
    ev.kind = obs::WideEventKind::kRefit;
    ev.set_key(key);
    ev.shard = static_cast<std::int32_t>(ShardOfKey(key));
    ev.set_timing(outcome.refit);
    ev.journal_seq = journal_seq_;
    ev.outcome = outcome.status.ok() ? "ok" : "error";
    ev.AddAttr("test_mape", test_mape);
    ev.AddAttr("degradation", static_cast<double>(static_cast<int>(
                                  outcome.forecast.degradation)));
    ev.AddAttr("quality_score", outcome.quality.score);
    refit_event_id = events.Emit(ev);
    if (outcome.quality.short_gaps_filled > 0 ||
        outcome.quality.long_outages > 0 ||
        outcome.quality.masked_leading > 0) {
      // The sentinel altered the fit window — record what it did.
      obs::WideEvent repair;
      repair.kind = obs::WideEventKind::kQualityRepair;
      repair.set_key(key);
      repair.shard = ev.shard;
      repair.span_id = span_id;
      // The repair ran first in the refit.
      repair.start_ns = outcome.refit.start_ns;
      repair.journal_seq = journal_seq_;
      repair.outcome = outcome.quality.trainable ? "ok" : "gated";
      repair.AddAttr("score", outcome.quality.score);
      repair.AddAttr("gaps_filled",
                     static_cast<double>(outcome.quality.short_gaps_filled));
      repair.AddAttr("long_outages",
                     static_cast<double>(outcome.quality.long_outages));
      repair.AddAttr("masked_leading",
                     static_cast<double>(outcome.quality.masked_leading));
      events.Emit(repair);
    }
  }
  telemetry_.fit_stage.ObserveWithExemplar(outcome.refit.ms(), span_id,
                                           refit_event_id);
  EstateShard& shard = ShardForKey(key);
  if (!outcome.status.ok()) {
    const ScheduleEntry after = shard.scheduler.AfterFailure(key, now_);
    ++telemetry_.refits_failed;
    if (report != nullptr) ++report->refits_failed;
    Commit({now_, key, span_id,
            FitFailEvent{after.consecutive_failures,
                         after.quarantined ? -1 : after.due_epoch,
                         outcome.status.ToString()}});
    if (after.quarantined) {
      ++telemetry_.quarantines;
      Commit({now_, key, span_id, QuarantineEvent{}});
    }
    return;
  }
  // The finished fit is a *challenger*. The current champion's live rolling
  // MAPE (percent) is the accuracy bar; with enough scored evidence, a
  // challenger whose held-out MAPE regresses past tolerance is rejected and
  // the champion keeps serving.
  const std::int64_t next_due =
      outcome.model.fitted_at_epoch + config_.staleness.max_age_seconds;
  double champion_live_pct = -1.0;
  std::size_t champion_scored = 0;
  const auto tracker = shard.guardrail.find(key);
  if (tracker != shard.guardrail.end()) {
    const double frac = tracker->second.tracker.live_mape();
    if (frac >= 0.0) champion_live_pct = frac * 100.0;
    champion_scored = tracker->second.tracker.window_size();
  }
  const auto champion = registry_.Get(key);
  if (config_.guardrail.enabled && champion.ok() && champion_live_pct >= 0.0 &&
      champion_scored >= config_.guardrail.promotion_min_scored &&
      test_mape > config_.guardrail.promotion_tolerance_ratio *
                      std::max(champion_live_pct,
                               config_.guardrail.reference_mape_floor_pct)) {
    // Gate says no: the champion (model, forecast, tracker baseline) stays
    // exactly as it is. The refit still *completed* — it counts as
    // succeeded and reschedules normally — only the install is refused.
    ++telemetry_.refits_succeeded;
    ++telemetry_.promotions_rejected;
    if (report != nullptr) {
      ++report->refits_completed;
      ++report->promotions_rejected;
    }
    Commit({now_, key, span_id,
            PromotionEvent{outcome.model.technique, outcome.model.spec,
                           test_mape, champion_live_pct, next_due}});
    if (events.enabled()) {
      obs::WideEvent ev;
      ev.kind = obs::WideEventKind::kPromotion;
      ev.set_key(key);
      ev.shard = static_cast<std::int32_t>(shard.id);
      ev.span_id = span_id;
      ev.journal_seq = journal_seq_;
      ev.outcome = "rejected";
      ev.AddAttr("challenger_mape", test_mape);
      ev.AddAttr("champion_live_mape", champion_live_pct);
      events.Emit(ev);
    }
    return;
  }
  FitOkEvent fit{outcome.model, outcome.forecast, outcome.quality.score};
  fit.model.generation = (champion.ok() ? champion->generation : 0) + 1;
  fit.model.promoted_at_epoch = now_;
  // The demoted champion is stamped with its final live accuracy: the bar
  // a rollback to it compares against.
  if (champion.ok()) fit.demoted_live_mape = champion_live_pct;
  const int generation = fit.model.generation;
  Commit({now_, key, span_id, std::move(fit)});
  // The new champion is judged only on its own errors.
  if (tracker != shard.guardrail.end()) tracker->second.tracker.ResetBaseline();
  ++telemetry_.promotions;
  ++telemetry_.refits_succeeded;
  if (outcome.forecast.degradation != core::DegradationLevel::kFull) {
    ++telemetry_.refits_degraded;
    if (report != nullptr) ++report->refits_degraded;
  }
  if (report != nullptr) ++report->refits_completed;
  if (events.enabled()) {
    obs::WideEvent ev;
    ev.kind = obs::WideEventKind::kPromotion;
    ev.set_key(key);
    ev.shard = static_cast<std::int32_t>(shard.id);
    ev.span_id = span_id;
    ev.journal_seq = journal_seq_;
    ev.outcome = "promoted";
    ev.AddAttr("generation", static_cast<double>(generation));
    ev.AddAttr("test_mape", test_mape);
    events.Emit(ev);
  }
}

void EstateService::EvaluateAlerts(TickReport* report) {
  obs::TraceSpan scan_span("service.forecast", "service");
  // Raises and clears only; the prognosis of an alert that stays active is
  // refreshed by the tick event (Apply).
  std::vector<Event> transitions;
  for (const auto& key : keys_) {
    auto it = forecasts_.find(key);
    if (it == forecasts_.end()) continue;
    const CachedForecast& fc = it->second;
    const std::int64_t fc_end =
        fc.start_epoch +
        static_cast<std::int64_t>(fc.forecast.mean.size()) * fc.step_seconds;
    if (now_ >= fc_end || fc.step_seconds <= 0) {
      ++telemetry_.forecast_exhausted_ticks;
      continue;
    }
    ++telemetry_.forecast_cache_hits;
    const auto breach =
        FirstBreach(fc, watches_[watch_index_.at(key)].threshold, now_);
    const bool active = alerts_.count(key) > 0;
    if (breach && !active) {
      transitions.push_back({now_, key, 0, *breach});
    } else if (!breach && active) {
      transitions.push_back({now_, key, 0, AlertClearEvent{}});
    }
  }
  telemetry_.forecast_stage.Observe(scan_span.End());

  obs::TraceSpan alert_span("service.alert", "service");
  for (const Event& transition : transitions) {
    Commit(transition);
    if (transition.kind() == EventKind::kAlert) {
      ++telemetry_.alerts_raised;
      if (report != nullptr) ++report->alerts_raised;
    } else {
      ++telemetry_.alerts_cleared;
      if (report != nullptr) ++report->alerts_cleared;
    }
  }
  telemetry_.alert_stage.Observe(alert_span.End());
}

void EstateService::EvaluateGuardrails(TickReport* report) {
  if (!config_.guardrail.enabled) return;
  for (auto& shard_ptr : shards_) {
    EstateShard& shard = *shard_ptr;
    double worst_mape = 0.0;
    double worst_stat = 0.0;
    double most_samples = 0.0;
    for (auto& [key, entry] : shard.guardrail) {
      const double frac = entry.tracker.live_mape();
      const core::PageHinkleyDetector& det = entry.tracker.detector();
      if (frac > worst_mape) worst_mape = frac;
      if (det.statistic() > worst_stat) worst_stat = det.statistic();
      if (static_cast<double>(det.samples_seen()) > most_samples) {
        most_samples = static_cast<double>(det.samples_seen());
      }
      // Live-regression rollback: only for keys with a full lineage pair
      // (previous model in the registry slot AND its forecast), enough
      // scored evidence, and a live MAPE past the regression ratio.
      if (frac < 0.0 ||
          entry.tracker.window_size() < config_.guardrail.rollback_min_scored) {
        continue;
      }
      const double live_pct = frac * 100.0;
      const auto pf = previous_forecasts_.find(key);
      if (pf == previous_forecasts_.end()) continue;
      const auto prev = registry_.GetPrevious(key);
      if (!prev.ok()) continue;
      const double reference = std::max(
          prev->live_mape >= 0.0 ? prev->live_mape : prev->test_mape,
          config_.guardrail.reference_mape_floor_pct);
      if (live_pct <= config_.guardrail.rollback_regression_ratio * reference) {
        continue;
      }
      obs::TraceSpan span("guardrail.rollback", "service");
      // The restored champion is old by definition — refit it soon, but
      // through the same backoff-respecting gate as a drift alarm.
      std::int64_t next_due = -1;
      if (const auto sched = shard.scheduler.Get(key); sched.ok()) {
        next_due = sched->due_epoch;
        if (!sched->quarantined && !sched->in_flight &&
            sched->consecutive_failures == 0 && sched->due_epoch > now_) {
          next_due = now_;
        }
      }
      // Restores model and forecast byte-equal to the old champion's.
      Commit({now_, key, 0, RollbackEvent{*prev, pf->second, next_due}});
      entry.tracker.ResetBaseline();
      ++telemetry_.rollbacks;
      ++shard.rollbacks;
      if (report != nullptr) ++report->rollbacks;
      obs::EventLog& events = obs::EventLog::Instance();
      if (events.enabled()) {
        obs::WideEvent ev;
        ev.kind = obs::WideEventKind::kRollback;
        ev.set_key(key);
        ev.shard = static_cast<std::int32_t>(shard.id);
        ev.span_id = span.id();
        ev.journal_seq = journal_seq_;
        ev.outcome = "rolled_back";
        ev.AddAttr("live_mape", live_pct);
        ev.AddAttr("reference_mape", reference);
        ev.AddAttr("generation", static_cast<double>(prev->generation));
        events.Emit(ev);
      }
    }
    shard.telemetry->guardrail_live_mape.Set(std::max(0.0, worst_mape));
    shard.telemetry->guardrail_ph_statistic.Set(worst_stat);
    shard.telemetry->guardrail_ph_samples.Set(most_samples);
  }
}

void EstateService::EvaluateHealth() {
  // Journal/snapshot write failures are estate-wide (one journal, one
  // snapshot path, all appended by the driver), so every shard's machine
  // sees the same cumulative I/O count — a dying disk is everyone's
  // problem, and any shard already critical for its own reasons stays so.
  const std::uint64_t io_errors = telemetry_.io_errors.value();
  for (auto& shard_ptr : shards_) {
    EstateShard& shard = *shard_ptr;
    HealthSignals signals;
    signals.tick_overruns = shard.tick_overruns;
    signals.refit_queue_depth = shard.refit_queue.size();
    signals.quarantined_keys = shard.scheduler.QuarantinedKeys().size();
    signals.rollbacks = shard.rollbacks;
    signals.io_errors = io_errors;
    if (shard.accuracy_slo != nullptr) {
      // Evaluate at the estate clock; the tracker clamps to its own newest
      // scored point, so a shard with no fresh scores holds its last burn.
      const obs::SloTracker::Burn burn =
          shard.accuracy_slo->Evaluate(static_cast<double>(now_));
      signals.slo_fast_burn = burn.fast_burn;
      signals.slo_slow_burn = burn.slow_burn;
    }
    const std::uint64_t before = shard.health.transitions();
    shard.health.Evaluate(signals);
    const std::uint64_t after = shard.health.transitions();
    if (after > before) {
      shard.telemetry->health_transitions.Inc(after - before);
    }
    shard.telemetry->health_state.Set(
        static_cast<double>(static_cast<int>(shard.health.state())));
  }
}

HealthState EstateService::OverallHealth() const {
  HealthState worst = HealthState::kHealthy;
  for (const auto& shard : shards_) {
    if (shard->health.state() > worst) worst = shard->health.state();
  }
  return worst;
}

double EstateService::LiveMapeFor(const std::string& key) const {
  const EstateShard& shard = ShardForKey(key);
  const auto it = shard.guardrail.find(key);
  if (it == shard.guardrail.end()) return -1.0;
  const double frac = it->second.tracker.live_mape();
  return frac < 0.0 ? -1.0 : frac * 100.0;
}

void EstateService::PublishView() {
  std::vector<std::vector<serve::InstanceStatus>> shard_rows(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const EstateShard& shard = *shards_[s];
    shard_rows[s].reserve(shard.watch_ids.size());
    for (std::size_t id : shard.watch_ids) {
      const std::string& key = keys_[id];
      serve::InstanceStatus row;
      row.key = key;
      const WatchConfig& watch = watches_[id];
      row.instance =
          cluster_ != nullptr ? cluster_->InstanceName(watch.instance) : key;
      row.metric = workload::MetricName(watch.metric);
      row.threshold = watch.threshold;
      if (const auto fit = forecasts_.find(key); fit != forecasts_.end()) {
        row.has_forecast = true;
        row.forecast = fit->second.forecast;
        row.forecast_start_epoch = fit->second.start_epoch;
        row.forecast_step_seconds = fit->second.step_seconds;
        row.spec = fit->second.spec;
        row.degradation = fit->second.degradation;
      }
      if (const auto q = quality_.find(key); q != quality_.end()) {
        row.quality_score = q->second.score;
        row.trainable = q->second.trainable;
        row.quality_verdict = q->second.verdict;
      }
      if (const auto alert = alerts_.find(key); alert != alerts_.end()) {
        row.alert_active = true;
        row.alert_upper_only = alert->second.upper_only;
        row.predicted_breach_epoch = alert->second.predicted_breach_epoch;
      }
      if (config_.view_recent_hours > 0) {
        if (auto tail =
                shard.metrics.HourlyTail(key, config_.view_recent_hours);
            tail.ok() && !tail->empty()) {
          row.recent = tail->values();
          row.recent_start_epoch = tail->start_epoch();
        }
      }
      // Decompose inputs: the champion's detected periods plus a tail long
      // enough for STL over the longest season (docs/selection.md).
      if (const auto model = registry_.Get(key); model.ok()) {
        row.periods = model->periods;
      }
      if (config_.view_history_hours > 0) {
        if (auto tail =
                shard.metrics.HourlyTail(key, config_.view_history_hours);
            tail.ok() && !tail->empty()) {
          row.history = tail->values();
          row.history_start_epoch = tail->start_epoch();
        }
      }
      shard_rows[s].push_back(std::move(row));
    }
  }
  auto view = serve::MergeShardRows(now_, ticks_, std::move(shard_rows));
  view->shard_health.reserve(shards_.size());
  int overall = 0;
  for (const auto& shard : shards_) {
    serve::ShardHealthStatus hs;
    hs.shard = shard->id;
    hs.state = static_cast<int>(shard->health.state());
    hs.state_name = HealthStateName(shard->health.state());
    hs.reason = shard->health.reason();
    hs.refit_queue_depth = shard->refit_queue.size();
    hs.quarantined = shard->scheduler.QuarantinedKeys().size();
    hs.tick_overruns = shard->tick_overruns;
    hs.rollbacks = shard->rollbacks;
    if (hs.state > overall) overall = hs.state;
    view->shard_health.push_back(std::move(hs));
  }
  view->overall_health = overall;
  view_channel_.Publish(std::move(view));
  view_swaps_.Inc();
}

Result<TickReport> EstateService::Tick() {
  obs::TraceSpan span("service.tick", "service");
  if (!started_) {
    return Status::FailedPrecondition("service: not started");
  }
  TickReport report;
  now_ += config_.tick_seconds;
  report.now_epoch = now_;

  // Per-shard phase: ingest, staleness, due-taking and batch preparation
  // run as one job per shard (inline when unsharded). Shard state is only
  // ever touched by its own job; the driver joins every job before reading
  // the outputs, so nothing below races.
  obs::TraceSpan ingest_span("service.ingest", "service");
  std::vector<ShardTickOutput> outputs(shards_.size());
  if (tick_pool_ == nullptr) {
    outputs[0] = TickShard(shards_[0].get());
  } else {
    std::vector<std::future<ShardTickOutput>> pending;
    pending.reserve(shards_.size());
    for (auto& shard : shards_) {
      EstateShard* s = shard.get();
      pending.push_back(tick_pool_->Submit([this, s] { return TickShard(s); }));
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      outputs[i] = pending[i].get();
    }
  }
  telemetry_.ingest_stage.Observe(ingest_span.End());
  // The cursor only advances with the tick event, once every shard ingested
  // its slice: a failed tick leaves the window un-consumed, so the next
  // tick backfills it and no sample is lost.
  for (const ShardTickOutput& out : outputs) {
    CAPPLAN_RETURN_NOT_OK(out.status);
  }
  for (ShardTickOutput& out : outputs) {
    report.samples_ingested += out.samples_ingested;
    report.refits_dispatched += out.refits_dispatched;
    for (PreparedBatch& batch : out.batches) {
      SubmitBatch(std::move(batch), &report);
    }
  }

  CollectFinished(/*block=*/false, &report);
  EvaluateGuardrails(&report);
  EvaluateAlerts(&report);

  // Durability failures do not stop the clock: a tick that cannot be
  // journalled or snapshotted is still a served tick, counted as an
  // absorbed I/O error (Commit counts its own failures).
  (void)Commit({now_, "", 0, TickEvent{}});
  ++telemetry_.ticks;
  if (config_.snapshot_every_ticks > 0 && !config_.state_dir.empty() &&
      ticks_ % static_cast<std::uint64_t>(config_.snapshot_every_ticks) ==
          0) {
    if (Status st = WriteSnapshot(); !st.ok()) {
      ++telemetry_.snapshot_failures;
      ++telemetry_.io_errors;
    }
  }
  // Health folds in last, so the machine sees this tick's final queue
  // depths, rollbacks and absorbed I/O errors before the view freezes them.
  EvaluateHealth();
  PublishView();
  return report;
}

Status EstateService::RunTicks(int n) {
  for (int i = 0; i < n; ++i) {
    auto report = Tick();
    if (!report.ok()) return report.status();
  }
  return Status::OK();
}

Status EstateService::DrainRefits() {
  if (!started_) {
    return Status::FailedPrecondition("service: not started");
  }
  CollectFinished(/*block=*/true, nullptr);
  PublishView();
  return Status::OK();
}

Status EstateService::Checkpoint() {
  if (config_.state_dir.empty()) {
    return Status::FailedPrecondition("service: no state_dir configured");
  }
  CAPPLAN_RETURN_NOT_OK(DrainRefits());
  Status st = WriteSnapshot();
  if (!st.ok()) {
    // An explicit checkpoint propagates the failure (the caller asked for
    // durability), but it still shows up in the absorbed-error counters so
    // dashboards see one consistent I/O health signal.
    ++telemetry_.snapshot_failures;
    ++telemetry_.io_errors;
  }
  return st;
}

Status EstateService::ReleaseQuarantine(const std::string& key) {
  if (!IsQuarantined(key)) {
    return Status::FailedPrecondition("service: " + key +
                                      " is not quarantined");
  }
  return Commit({now_, key, 0, ReleaseEvent{}});
}

core::DegradationLevel EstateService::ForecastDegradation(
    const std::string& key) const {
  auto it = forecasts_.find(key);
  return it == forecasts_.end() ? core::DegradationLevel::kFull
                                : it->second.degradation;
}

std::vector<ServiceAlert> EstateService::ActiveAlerts() const {
  std::vector<ServiceAlert> alerts;
  alerts.reserve(alerts_.size());
  for (const auto& [_, a] : alerts_) alerts.push_back(a);
  return alerts;
}

std::vector<std::string> EstateService::ShardKeys(std::size_t shard) const {
  std::vector<std::string> keys;
  keys.reserve(shards_[shard]->watch_ids.size());
  for (std::size_t id : shards_[shard]->watch_ids) keys.push_back(keys_[id]);
  return keys;
}

std::size_t EstateService::series_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->metrics.size();
  return total;
}

std::vector<std::string> EstateService::QuarantinedKeys() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    auto q = shard->scheduler.QuarantinedKeys();
    keys.insert(keys.end(), q.begin(), q.end());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<ScheduleEntry> EstateService::ScheduleEntries() const {
  std::vector<ScheduleEntry> entries;
  for (const auto& shard : shards_) {
    auto e = shard->scheduler.Entries();
    entries.insert(entries.end(), std::make_move_iterator(e.begin()),
                   std::make_move_iterator(e.end()));
  }
  std::sort(entries.begin(), entries.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              return a.key < b.key;
            });
  return entries;
}

std::size_t EstateService::schedule_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->scheduler.size();
  return total;
}

std::size_t EstateService::RefitQueueDepth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->refit_queue.size();
  return total;
}

std::string EstateService::JournalPath() const {
  return config_.state_dir + "/journal.log";
}

std::string EstateService::ShardSegmentDir(std::size_t shard) const {
  return config_.state_dir + "/shard_" + std::to_string(shard);
}

Status EstateService::WritePrometheus(const std::string& path) const {
  obs::MetricsRegistry* registry = telemetry_.registry.get();
  // Refresh the scrape-time families before collecting: ring drop totals
  // from the flight-recorder singletons and the SLO burn rates. The serve
  // handler does the same on /metrics; either export path is current.
  // (Handle copies write through to the shared cells.)
  obs::Counter trace_dropped = telemetry_.obs_trace_dropped;
  trace_dropped = obs::Tracer::Instance().total_dropped();
  obs::Counter events_dropped = telemetry_.obs_events_dropped;
  events_dropped = obs::EventLog::Instance().total_dropped();
  if (slo_set_ != nullptr) {
    obs::ExportSloMetrics(*slo_set_, registry, static_cast<double>(now_));
  }
  return obs::WritePrometheusFile(registry->Collect(), path);
}

Status EstateService::DumpTrace(const std::string& path) const {
  return obs::WriteChromeTraceFile(obs::Tracer::Instance().Drain(), path);
}

Status EstateService::WriteSnapshot() {
  obs::TraceSpan span("service.snapshot", "service");
  const std::string& dir = config_.state_dir;
  CAPPLAN_RETURN_NOT_OK(registry_.Save(dir + "/snapshot.registry.csv"));

  // One merged schedule CSV for the whole estate (same format as the
  // unsharded service ever wrote); rows route back to their shard by key
  // hash on recovery.
  CAPPLAN_RETURN_NOT_OK(RetrainScheduler::SaveEntries(
      dir + "/snapshot.schedule.csv", ScheduleEntries()));

  std::string header;
  repo::AppendCsvRecord(&header, {"key", "spec", "start_epoch",
                                  "step_seconds", "level", "mean", "lower",
                                  "upper", "degradation"});
  std::vector<std::string_view> records = {header};
  records.reserve(forecasts_.size() + 1);
  for (const auto& [key, fc] : forecasts_) {
    std::string& row = forecast_rows_[key];
    if (row.empty()) repo::AppendCsvRecord(&row, EncodeForecastRow(key, fc));
    records.push_back(row);
  }
  CAPPLAN_RETURN_NOT_OK(
      repo::WriteCsvRecords(dir + "/snapshot.forecasts.csv", records));

  repo::CsvTable alerts;
  alerts.header = {"key", "upper_only", "predicted_breach_epoch",
                   "raised_at_epoch"};
  for (const auto& [key, a] : alerts_) {
    alerts.rows.push_back({key, a.upper_only ? "1" : "0",
                           std::to_string(a.predicted_breach_epoch),
                           std::to_string(a.raised_at_epoch)});
  }
  CAPPLAN_RETURN_NOT_OK(repo::WriteCsv(dir + "/snapshot.alerts.csv", alerts));

  repo::CsvTable meta;
  meta.header = {"field", "value"};
  meta.rows.push_back({"now_epoch", std::to_string(now_)});
  meta.rows.push_back({"cursor_epoch", std::to_string(cursor_)});
  meta.rows.push_back({"ticks", std::to_string(ticks_)});
  CAPPLAN_RETURN_NOT_OK(repo::WriteCsv(dir + "/snapshot.meta.csv", meta));

  // The metric history itself, as compressed segments (store/segment.h) —
  // what Recover restarts from instead of re-polling the whole estate. Each
  // shard flushes its slice into its own segment directory; a failed flush
  // fails the snapshot as a whole, and the tick loop absorbs it and retries
  // at the next snapshot interval.
  for (const auto& shard : shards_) {
    const std::string shard_dir = ShardSegmentDir(shard->id);
    std::error_code ec;
    std::filesystem::create_directories(shard_dir, ec);
    if (ec) {
      return Status::IoError("service: cannot create segment dir " +
                             shard_dir + ": " + ec.message());
    }
    CAPPLAN_RETURN_NOT_OK(shard->metrics.SaveSegments(shard_dir));
  }

  CAPPLAN_RETURN_NOT_OK(Commit({now_, "", 0, SnapshotEvent{}}));
  ++telemetry_.snapshots_written;
  return Status::OK();
}

Status EstateService::Commit(const Event& event) {
  Status st = Status::OK();
  if (journal_.is_open()) {  // an ephemeral service journals nothing
    JournalEvent line = EncodeEvent(event);
    if (line.span_id == 0) line.span_id = obs::CurrentSpanId();
    st = journal_.Append(line);
    if (st.ok()) {
      ++telemetry_.journal_events;
      ++journal_seq_;
    } else {
      // Availability beats durability: callers keep serving with a degraded
      // journal, and the counters make the durability gap visible. Recovery
      // from such a journal is still consistent — it just replays less.
      ++telemetry_.journal_write_failures;
      ++telemetry_.io_errors;
    }
  }
  Apply(event);
  return st;
}

void EstateService::Apply(const Event& event) {
  const std::string& key = event.key;
  RetrainScheduler& scheduler = ShardForKey(key).scheduler;
  // The key's schedule entry, or a fresh one due at the event.
  const auto entry_or_new = [&] {
    return scheduler.Get(key).value_or(ScheduleEntry{key, event.epoch});
  };
  switch (event.kind()) {
    case EventKind::kTick:
      now_ = event.epoch;
      cursor_ = event.epoch;
      ++ticks_;
      // Only raises and clears are journalled: every tick re-reads the
      // prognosis of each active alert from the key's cached forecast.
      for (auto& [alert_key, alert] : alerts_) {
        const auto fc = forecasts_.find(alert_key);
        const auto watch = watch_index_.find(alert_key);
        if (fc == forecasts_.end() || watch == watch_index_.end()) continue;
        if (const auto breach = FirstBreach(
                fc->second, watches_[watch->second].threshold, now_)) {
          alert.upper_only = breach->upper_only;
          alert.predicted_breach_epoch = breach->predicted_breach_epoch;
        }
      }
      return;
    case EventKind::kFitOk: {
      const auto& fit = std::get<FitOkEvent>(event.body);
      if (fit.model.generation > 0) {
        // The displaced champion, stamped with its final live MAPE, and its
        // forecast become the rollback slot.
        if (registry_.Contains(key)) {
          if (fit.demoted_live_mape >= 0.0) {
            registry_.UpdateLiveMape(key, fit.demoted_live_mape);
          }
          if (const auto fc = forecasts_.find(key); fc != forecasts_.end()) {
            previous_forecasts_[key] = fc->second;
          }
        }
        registry_.Promote(fit.model);
      } else {
        registry_.Put(fit.model);  // pre-lineage layouts
      }
      InstallForecast(key, fit.forecast);
      scheduler.Restore(
          {key, fit.model.fitted_at_epoch + config_.staleness.max_age_seconds});
      return;
    }
    case EventKind::kFitFail: {
      const auto& fail = std::get<FitFailEvent>(event.body);
      // A quarantining failure keeps the due time the key was dispatched at.
      ScheduleEntry entry = entry_or_new();
      entry.consecutive_failures = fail.consecutive_failures;
      entry.quarantined = fail.next_due < 0;
      if (!entry.quarantined) entry.due_epoch = fail.next_due;
      scheduler.Restore(std::move(entry));
      return;
    }
    case EventKind::kQuarantine: {
      ScheduleEntry entry = entry_or_new();
      entry.consecutive_failures = std::max(
          entry.consecutive_failures, config_.retry.quarantine_after_failures);
      entry.quarantined = true;
      scheduler.Restore(std::move(entry));
      return;
    }
    case EventKind::kRelease:
      scheduler.Restore({key, event.epoch});
      return;
    case EventKind::kAlert: {
      const auto& alert = std::get<AlertEvent>(event.body);
      alerts_[key] = {key, alert.upper_only, alert.predicted_breach_epoch,
                      event.epoch};
      return;
    }
    case EventKind::kAlertClear:
      alerts_.erase(key);
      return;
    case EventKind::kSnapshot:
      return;
    case EventKind::kQuality:
      quality_[key] = std::get<QualityEvent>(event.body).report;
      return;
    case EventKind::kPromotion:
      scheduler.Restore({key, std::get<PromotionEvent>(event.body).next_due});
      return;
    case EventKind::kRollback: {
      const auto& rollback = std::get<RollbackEvent>(event.body);
      repo::StoredModel model = rollback.model;
      // The line does not hold the model's periods; the lineage slot does
      // whenever the promotion being undone was applied since the snapshot.
      if (const auto slot = registry_.GetPrevious(key);
          slot.ok() && slot->generation == model.generation &&
          slot->fitted_at_epoch == model.fitted_at_epoch) {
        model.periods = slot->periods;
      }
      registry_.Reinstate(model);
      InstallForecast(key, rollback.forecast);
      previous_forecasts_.erase(key);
      // Only the due time moves: failures, quarantine and an outstanding
      // refit stay as they are.
      if (rollback.next_due >= 0) scheduler.ScheduleAt(key, rollback.next_due);
      return;
    }
  }
}

void EstateService::InstallForecast(const std::string& key,
                                    CachedForecast forecast) {
  forecasts_[key] = std::move(forecast);
  forecast_rows_.erase(key);
}

Status EstateService::RecoverShardHistory(EstateShard* shard) {
  // Prefer the shard's compressed segment snapshot: it holds the exact
  // persisted samples, so only the suffix collected after the last flush
  // needs re-polling. When the segments are missing, damaged, inconsistent,
  // or laid out for a different shard count (a resize remapped the keys),
  // fall back to a full re-poll — the simulated agents are pure functions
  // of (scenario, seed, instance, epoch), so re-polling reproduces the
  // shard's slice exactly.
  std::int64_t poll_from = cluster_->start_epoch();
  if (shard->metrics.LoadSegments(ShardSegmentDir(shard->id)).ok()) {
    std::int64_t segments_end = -1;
    bool usable = true;
    for (std::size_t id : shard->watch_ids) {
      auto end = shard->metrics.RawEndEpoch(keys_[id]);
      if (!end.ok() || (segments_end != -1 && *end != segments_end)) {
        usable = false;
        break;
      }
      segments_end = *end;
    }
    // A directory holding series this shard does not own is a stale layout
    // (n_shards changed) — loading it would double-count keys elsewhere.
    usable = usable && shard->metrics.size() == shard->watch_ids.size() &&
             segments_end >= cluster_->start_epoch() &&
             segments_end <= cursor_;
    if (usable) {
      poll_from = segments_end;
    } else {
      shard->metrics.Clear();
    }
  } else {
    shard->metrics.Clear();
  }
  return IngestShard(shard, poll_from, cursor_);
}

Status EstateService::LoadSnapshot() {
  const std::string& dir = config_.state_dir;
  CAPPLAN_RETURN_NOT_OK(registry_.Load(dir + "/snapshot.registry.csv"));
  // The schedule snapshot is one merged CSV; rows route back to their
  // shard's scheduler by the same key hash that placed them.
  CAPPLAN_ASSIGN_OR_RETURN(
      std::vector<ScheduleEntry> schedule,
      RetrainScheduler::LoadEntries(dir + "/snapshot.schedule.csv"));
  for (auto& entry : schedule) {
    ShardForKey(entry.key).scheduler.Restore(std::move(entry));
  }
  // Rows are decoded as they are read. Their text is not kept as the
  // key's snapshot row: a legacy row is written back in today's layout.
  std::vector<std::string> header;
  CAPPLAN_RETURN_NOT_OK(repo::ScanCsv(
      dir + "/snapshot.forecasts.csv", &header,
      [this](std::vector<std::string>&& row) -> Status {
        CAPPLAN_ASSIGN_OR_RETURN(auto keyed, DecodeForecastRow(row));
        InstallForecast(keyed.first, std::move(keyed.second));
        return Status::OK();
      }));
  CAPPLAN_ASSIGN_OR_RETURN(repo::CsvTable alerts,
                           repo::ReadCsv(dir + "/snapshot.alerts.csv"));
  for (const auto& row : alerts.rows) {
    ServiceAlert alert;
    if (row.size() != 4 || !ParseInt(row[2], &alert.predicted_breach_epoch) ||
        !ParseInt(row[3], &alert.raised_at_epoch)) {
      return Status::IoError("service: malformed alert snapshot row");
    }
    alert.key = row[0];
    alert.upper_only = row[1] == "1";
    alerts_[alert.key] = alert;
  }
  CAPPLAN_ASSIGN_OR_RETURN(repo::CsvTable meta,
                           repo::ReadCsv(dir + "/snapshot.meta.csv"));
  for (const auto& row : meta.rows) {
    std::int64_t value = 0;
    if (row.size() != 2 || !ParseInt(row[1], &value)) {
      return Status::IoError("service: malformed meta snapshot row");
    }
    if (row[0] == "now_epoch") now_ = value;
    if (row[0] == "cursor_epoch") cursor_ = value;
    if (row[0] == "ticks") ticks_ = static_cast<std::uint64_t>(value);
  }
  return Status::OK();
}

Status EstateService::Recover() {
  obs::TraceSpan span("service.recover", "service");
  if (started_) {
    return Status::FailedPrecondition("service: already started");
  }
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("service: no cluster attached");
  }
  if (config_.state_dir.empty()) {
    return Status::FailedPrecondition("service: no state_dir to recover from");
  }
  // One pass over the journal parses every line but keeps only the suffix
  // after the last snapshot marker: the lines before it are in the
  // snapshot.
  std::vector<JournalEvent> suffix;
  bool from_snapshot = false;
  CAPPLAN_ASSIGN_OR_RETURN(
      const std::uint64_t journalled,
      ScanJournal(JournalPath(), [&](JournalEvent&& line) {
        if (line.kind == EventKind::kSnapshot) {
          from_snapshot = true;
          suffix.clear();
        } else {
          suffix.push_back(std::move(line));
        }
      }));
  if (journalled == 0) {
    return Status::NotFound("service: nothing to recover in " +
                            config_.state_dir);
  }

  // Baseline: the last snapshot, or the fresh post-warmup state.
  if (from_snapshot) {
    CAPPLAN_RETURN_NOT_OK(LoadSnapshot());
  } else {
    now_ = cluster_->start_epoch() +
           static_cast<std::int64_t>(config_.warmup_days) * 86400;
    cursor_ = now_;
    ticks_ = 0;
  }

  // The suffix goes through the reducer the live path runs.
  for (const JournalEvent& line : suffix) {
    CAPPLAN_ASSIGN_OR_RETURN(const Event event, DecodeEvent(line));
    Apply(event);
  }
  // The sequence counter resumes at the journal's true length, so wide
  // events emitted after recovery keep pointing at absolute positions in
  // the (re-opened, append-only) journal file.
  journal_seq_ = journalled;

  // Keys that never reached a journaled outcome fall back to their initial
  // schedule (the snapshot carries them otherwise). Keys that were sitting
  // on a refit queue at the crash are still in_flight=false after Restore,
  // with their original due time — they are simply taken due again, which
  // is exactly the no-orphaned-entries guarantee.
  for (const auto& key : keys_) {
    RetrainScheduler& scheduler = ShardForKey(key).scheduler;
    if (!scheduler.Get(key).ok()) scheduler.ScheduleAt(key, now_);
  }

  // Rebuild the metric history, one shard at a time (in parallel when
  // sharded): segments where usable, re-poll otherwise.
  obs::TraceSpan ingest_span("service.ingest", "service");
  CAPPLAN_RETURN_NOT_OK(ForEachShard(
      [this](EstateShard* shard) { return RecoverShardHistory(shard); }));
  telemetry_.ingest_stage.Observe(ingest_span.End());

  CAPPLAN_ASSIGN_OR_RETURN(journal_, EventJournal::Open(JournalPath()));
  started_ = true;
  PublishView();
  return Status::OK();
}

}  // namespace capplan::service
