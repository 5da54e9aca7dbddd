// Traced run: replays each layer's public calls on the inputs this run just
// produced, timing every call with a span, and turns the spans into the
// per-layer metrics. Nothing here runs in the untraced run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "agent/agent.h"
#include "core/lattice/period_router.h"
#include "models/tbats.h"
#include "quality/guardrail.h"
#include "quality/sentinel.h"
#include "repo/repository.h"
#include "runner.h"
#include "serve/handlers.h"
#include "tsa/interpolate.h"

namespace capbench {

namespace cp = capplan;
using cp::core::Technique;

namespace {

constexpr std::size_t kReplayWindows = 120;   // tick windows replayed
constexpr std::size_t kScoreCalls = 400000;   // guardrail Score() calls
constexpr int kFlushes = 3;
constexpr int kCheckpoints = 3;
constexpr int kRenderRequests = 100;          // per endpoint
constexpr double kRenderBudgetS = 1.5;        // per endpoint
constexpr int kCacheHits = 2000;
constexpr std::size_t kSoloKeys = 16;         // keys replayed through core

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

// Per-key costs of one champion refit replayed family by family.
struct CoreSample {
  double repair_ms = 0.0;
  double route_ms = 0.0;
  double hes_ms = 0.0;
  double grid_ms = 0.0;
  double lattice_ms = 0.0;
  double solo_ms = 0.0;  // the workload's own technique
  bool multi = false;    // routed to >= 2 seasons: kAuto also runs TBATS
  bool families = false;  // the grid and the lattice were replayed too
  double grid_candidates = 0.0;
  double grid_fitted = 0.0;
  double filter_runs = 0.0;
};

}  // namespace

void Runner::TraceLayers(double untraced_op_ms, double traced_op_ms) {
  std::printf("traced layer replay:\n");
  Emit("trace_overhead_frac",
       untraced_op_ms > 0.0 ? traced_op_ms / untraced_op_ms - 1.0 : 0.0,
       "ratio");

  // agent -> repo: the same tick windows the service ingested, per key.
  {
    cp::repo::MetricsRepository repo;
    std::vector<cp::agent::MonitoringAgent> agents;
    for (std::size_t i = 0; i < watches_.size(); ++i) {
      agents.emplace_back(&cluster_, cp::agent::FaultModel{},
                          config_.poll_seconds);
    }
    const std::size_t n = std::min(kReplayWindows, windows_.size());
    const std::int64_t history = 7 * 86400;  // untimed seed for each series
    for (std::size_t i = 0; n > 0 && i < watches_.size(); ++i) {
      auto seed = agents[i].Collect(
          watches_[i].instance, watches_[i].metric, windows_[0].from - history,
          static_cast<std::size_t>(history / config_.poll_seconds));
      if (seed.ok()) {
        seed->set_name(keys_[i]);
        (void)repo.Ingest(keys_[i], *seed);
      }
    }
    double collect_ms = 0.0;
    double append_ms = 0.0;
    std::uint64_t samples = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t polls = static_cast<std::size_t>(
          (windows_[w].to - windows_[w].from) / config_.poll_seconds);
      for (std::size_t i = 0; i < watches_.size(); ++i) {
        Spans::Scope collect(&spans_, "agent.collect");
        auto chunk = agents[i].Collect(watches_[i].instance,
                                       watches_[i].metric, windows_[w].from,
                                       polls);
        collect_ms += collect.End();
        if (!chunk.ok()) {
          Fail("agent replay: " + chunk.status().ToString());
          continue;
        }
        chunk->set_name(keys_[i]);
        Spans::Scope append(&spans_, "repo.append");
        const cp::Status st = repo.Append(keys_[i], *chunk);
        append_ms += append.End();
        if (!st.ok()) Fail("repo replay: " + st.ToString());
        samples += chunk->size();
      }
    }
    const double per =
        samples == 0 ? 0.0 : 1000.0 / static_cast<double>(samples);
    Emit("agent.collect_us_per_sample", collect_ms * per, "us");
    Emit("repo.append_us_per_sample", append_ms * per, "us");
  }

  // store: flush every shard's metric storage the way a snapshot does.
  {
    const std::string dir = options_.work_dir + "/flush-" + spec_.name;
    std::vector<double> flush_ms;
    for (int rep = 0; rep < kFlushes; ++rep) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      double total = 0.0;
      for (std::size_t s = 0; s < svc_->n_shards(); ++s) {
        const std::string shard_dir = dir + "/shard_" + std::to_string(s);
        std::filesystem::create_directories(shard_dir, ec);
        Spans::Scope span(&spans_, "store.flush");
        const cp::Status st = svc_->shard_metrics(s).SaveSegments(shard_dir);
        total += span.End();
        if (!st.ok()) Fail("SaveSegments: " + st.ToString());
      }
      flush_ms.push_back(total);
    }
    Emit("store.segment_bytes_per_sample",
         static_cast<double>(DirBytes(dir)) /
             static_cast<double>(svc_->telemetry().samples_ingested.value()),
         "B");
    Emit("store.flush_ms", Median(flush_ms), "ms");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  // guardrail: the hourly actuals against the view's cached forecasts.
  {
    std::vector<std::pair<double, double>> pairs;  // (actual, predicted)
    for (const auto& row : svc_->View()->instances) {
      const cp::tsa::TimeSeries* hourly = svc_->FindHourly(row.key);
      if (!row.has_forecast || hourly == nullptr) continue;
      for (std::size_t j = 0; j < hourly->size(); ++j) {
        const std::int64_t t = hourly->TimestampAt(j);
        if (t < row.forecast_start_epoch) continue;
        const std::size_t idx = static_cast<std::size_t>(
            (t - row.forecast_start_epoch) / row.forecast_step_seconds);
        if (idx >= row.forecast.mean.size() || std::isnan((*hourly)[j])) {
          continue;
        }
        pairs.emplace_back((*hourly)[j], row.forecast.mean[idx]);
      }
    }
    double ms = 0.0;
    std::uint64_t calls = 0;
    cp::quality::LiveAccuracyTracker tracker(config_.guardrail.tracker);
    while (!pairs.empty() && calls < kScoreCalls) {
      Spans::Scope span(&spans_, "guardrail.score");
      for (const auto& [actual, predicted] : pairs) {
        tracker.Score(actual, predicted);
      }
      ms += span.End();
      calls += pairs.size();
    }
    if (tracker.samples_scored() + tracker.samples_skipped() != calls) {
      Fail("guardrail replay scored a different number of points");
    }
    Emit("guardrail.score_ns", calls == 0 ? 0.0 : 1e6 * ms / calls, "ns");
  }

  // sentinel + core: each replayed key's champion window, family by family.
  // A seeded sample of keys runs the sentinel, routing and the workload's
  // own technique; the first core_keys of them also run the grid and the
  // lattice, which cost seconds per key.
  std::vector<std::string> keys = keys_;
  const std::size_t n_sample = std::min(keys.size(), kSoloKeys);
  SplitMix64 rng(options_.seed * 17 + 3);
  for (std::size_t i = 0; i < n_sample; ++i) {
    std::swap(keys[i], keys[i + rng.Next() % (keys.size() - i)]);
  }
  keys.resize(n_sample);
  std::vector<CoreSample> samples;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::string& key = keys[k];
    const bool families = spec_.core_keys == 0 || k < spec_.core_keys;
    cp::tsa::TimeSeries window;
    if (!ChampionWindow(key, &window)) {
      Fail("no champion window for " + key);
      continue;
    }
    CoreSample s;
    cp::quality::DataQualitySentinel sentinel(config_.quality);
    cp::quality::QualityReport quality;
    Spans::Scope repair_span(&spans_, "sentinel.repair");
    auto repaired = sentinel.Repair(window, &quality);
    s.repair_ms = repair_span.End();
    if (!repaired.ok()) {
      Fail("Repair " + key + ": " + repaired.status().ToString());
      continue;
    }
    // The pipeline routes on the interpolated training split.
    auto filled = cp::tsa::LinearInterpolate(*repaired);
    if (!filled.ok()) {
      Fail("interpolate " + key + ": " + filled.status().ToString());
      continue;
    }
    auto split = cp::core::ApplySplit(*filled);
    if (!split.ok()) {
      Fail("split " + key + ": " + split.status().ToString());
      continue;
    }
    {
      Spans::Scope span(&spans_, "core.route");
      const auto decision =
          cp::core::lattice::PeriodRouter(config_.pipeline.router)
              .Route(split->first.values());
      s.route_ms = span.End();
      s.multi = decision.multiple_seasonality;
    }
    const auto run = [&](Technique technique, const char* name,
                         double* ms) -> cp::Result<cp::core::PipelineReport> {
      Spans::Scope span(&spans_, name);
      auto report =
          cp::core::Pipeline(FitOptions(key, technique, quality.trainable))
              .Run(*repaired);
      *ms = span.End();
      if (!report.ok()) {
        Fail(std::string(name) + " " + key + ": " +
             report.status().ToString());
      }
      return report;
    };
    const auto hes = run(Technique::kHes, "core.hes", &s.hes_ms);
    s.families = families;
    if (families) {
      const auto grid =
          run(Technique::kSarimaxFftExog, "core.grid", &s.grid_ms);
      if (grid.ok()) {
        s.grid_candidates =
            static_cast<double>(grid->selector_profile.candidates);
        s.grid_fitted = static_cast<double>(grid->selector_profile.succeeded);
      }
      const std::uint64_t runs0 = cp::models::TbatsModel::TotalFilterRuns();
      (void)run(Technique::kTbats, "core.lattice", &s.lattice_ms);
      s.filter_runs = static_cast<double>(
          cp::models::TbatsModel::TotalFilterRuns() - runs0);
    }
    cp::Result<cp::core::PipelineReport> solo = hes;
    s.solo_ms = s.hes_ms;
    if (spec_.technique != Technique::kHes) {
      solo = run(spec_.technique, "core.refit_solo", &s.solo_ms);
    }
    SoloFit fit;
    fit.ok = solo.ok();
    if (solo.ok()) {
      fit.technique = cp::core::TechniqueName(solo->chosen_family);
      fit.spec = solo->chosen_spec;
      fit.test_rmse = solo->test_accuracy.rmse;
    } else {
      fit.error = solo.status().ToString();
    }
    solo_[key] = fit;
    samples.push_back(s);
  }

  std::vector<double> repair, route, hes, grid, lattice, solo, candidates,
      fitted, filter_runs;
  std::vector<double> hes_branch, grid_branch, lattice_branch;
  std::size_t multi = 0;
  for (const CoreSample& s : samples) {
    repair.push_back(s.repair_ms);
    route.push_back(s.route_ms);
    hes.push_back(s.hes_ms);
    solo.push_back(s.solo_ms);
    // Branch cost = the family's Run minus the routing every Run repeats.
    hes_branch.push_back(s.hes_ms - s.route_ms);
    if (!s.families) continue;
    grid.push_back(s.grid_ms);
    lattice.push_back(s.lattice_ms);
    candidates.push_back(s.grid_candidates);
    fitted.push_back(s.grid_fitted);
    filter_runs.push_back(s.filter_runs);
    const bool auto_runs = spec_.technique == Technique::kAuto;
    grid_branch.push_back(auto_runs ? s.grid_ms - s.route_ms : 0.0);
    lattice_branch.push_back(auto_runs && s.multi ? s.lattice_ms - s.route_ms
                                                  : 0.0);
    if (s.multi) ++multi;
  }
  // Core-time one refit costs in the service: fit_threads x the wall of the
  // measured refit rounds, per refit (the first-fit round of the set-up on
  // workloads without timed rounds).
  double wall_s = first_round_wall_s_;
  double refits = static_cast<double>(keys_.size());
  if (spec_.main == MainPhase::kRefitRounds && main_refits_ > 0) {
    wall_s = main_wall_s_;
    refits = static_cast<double>(main_refits_);
  }
  const double core_ms_per_refit =
      1000.0 * static_cast<double>(threads_) * wall_s / refits;
  const double solo_total = Mean(repair) + Mean(solo);
  Emit("sentinel.repair_ms", Mean(repair), "ms");
  Emit("core.route_ms", Mean(route), "ms");
  Emit("core.hes_ms", Mean(hes), "ms");
  Emit("core.grid_ms", Mean(grid), "ms");
  Emit("core.lattice_ms", Mean(lattice), "ms");
  Emit("core.refit_solo_ms", Mean(solo), "ms");
  Emit("core.grid_candidates", Mean(candidates), "count");
  double cand_sum = 0.0, fitted_sum = 0.0;
  for (double c : candidates) cand_sum += c;
  for (double f : fitted) fitted_sum += f;
  Emit("core.grid_fitted_frac", cand_sum > 0 ? fitted_sum / cand_sum : 0.0,
       "ratio");
  Emit("core.lattice_filter_runs", Mean(filter_runs), "count");
  Emit("core.parallel_efficiency", solo_total / core_ms_per_refit, "ratio");
  Emit("service.refit_residual_ms", core_ms_per_refit - solo_total, "ms");

  // Where one service refit's core time goes. The rows add up to the total
  // by construction; the two residuals name what the branches do not cover.
  const double branches =
      Mean(route) + Mean(hes_branch) + Mean(grid_branch) + Mean(lattice_branch);
  const struct {
    const char* name;
    double ms;
  } account[] = {
      {"sentinel.repair", Mean(repair)},
      {"core.route", Mean(route)},
      {"core.hes branch", Mean(hes_branch)},
      {"core.grid branch", Mean(grid_branch)},
      {"core.lattice branch", Mean(lattice_branch)},
      {"core.solo_residual", Mean(solo) - branches},
      {"service.refit_residual", core_ms_per_refit - solo_total},
  };
  std::printf("  refit account over %zu keys (%zu multi-seasonal), per refit: "
              "fit_threads %zu x %.3f s wall / %.0f refits = %.1f core-ms\n",
              samples.size(), multi, threads_, wall_s, refits,
              core_ms_per_refit);
  double sum = 0.0;
  for (const auto& row : account) {
    std::printf("    %-24s %10.2f ms  %5.1f%%\n", row.name, row.ms,
                100.0 * row.ms / core_ms_per_refit);
    sum += row.ms;
  }
  std::printf("    %-24s %10.2f ms  %5.1f%%\n", "total", sum,
              100.0 * sum / core_ms_per_refit);

  // service: queue, journal, snapshot, checkpoint.
  const std::string journal = state_dir_ + "/journal.log";
  Emit("service.refit_queue_depth_max", static_cast<double>(queue_depth_max_),
       "count");
  Emit("service.journal_bytes_per_tick",
       main_ticks_ == 0 ? 0.0
                        : static_cast<double>(main_journal_bytes_) /
                              static_cast<double>(main_ticks_),
       "B");
  Emit("service.snapshot_bytes",
       static_cast<double>(DirBytes(state_dir_) - DirBytes(journal)), "B");
  {
    std::vector<double> ms;
    for (int i = 0; i < kCheckpoints; ++i) {
      Spans::Scope span(&spans_, "service.checkpoint");
      const cp::Status st = svc_->Checkpoint();
      ms.push_back(span.End());
      if (!st.ok()) Fail("Checkpoint: " + st.ToString());
    }
    Emit("service.checkpoint_ms", Median(ms), "ms");
  }

  // serve: render cost per endpoint with the answer cache off, then a hit.
  {
    cp::serve::EstateQueryHandler::Options no_cache;
    no_cache.cache.capacity = 0;
    cp::serve::EstateQueryHandler render(svc_->view_channel(), nullptr,
                                         no_cache);
    ZipfKeys zipf(queries_.keys.size(), 1.0, kHotKeysSeed,
                  options_.seed + 99);
    static const char* const kSpanNames[kEndpoints] = {
        "serve.render.forecast", "serve.render.breach",
        "serve.render.headroom", "serve.render.decompose",
        "serve.render.estate"};
    for (int e = 0; e < kEndpoints; ++e) {
      std::vector<double> us;
      const auto t0 = Clock::now();
      while (static_cast<int>(us.size()) < kRenderRequests &&
             SecondsSince(t0) < kRenderBudgetS) {
        const std::size_t key = zipf.Next();
        if (e == kDecompose && !queries_.decomposable[key]) continue;
        const cp::serve::HttpRequest request = ParseGet(
            e == kEstate ? queries_.estate_target : queries_.targets[key][e]);
        Spans::Scope span(&spans_, kSpanNames[e]);
        const int status = render.Handle(request).status;
        us.push_back(1000.0 * span.End());
        if (status != 200) {
          Fail(std::string("render ") + kEndpointNames[e] + " answered " +
               std::to_string(status));
        }
      }
      Emit(std::string("serve.render_us.") + kEndpointNames[e], Median(us),
           "us");
    }

    cp::serve::EstateQueryHandler cached(svc_->view_channel());
    const cp::serve::HttpRequest hot =
        ParseGet(queries_.targets[zipf.Hottest()][kForecast]);
    (void)cached.Handle(hot);
    std::vector<double> us;
    for (int i = 0; i < kCacheHits; ++i) {
      Spans::Scope span(&spans_, "serve.cache_hit");
      (void)cached.Handle(hot);
      us.push_back(1000.0 * span.End());
    }
    if (cached.cache().hits() != static_cast<std::uint64_t>(kCacheHits)) {
      Fail("cache-hit replay missed the answer cache");
    }
    Emit("serve.cache_hit_us", Median(us), "us");
  }
  Emit("serve.http_overhead_us",
       1000.0 * (Median(serve_.latency_ms) - Median(serve_.handle_ms)), "us");
  const double lookups =
      static_cast<double>(serve_.cache_hits + serve_.cache_misses);
  Emit("serve.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(serve_.cache_hits) / lookups : 0.0,
       "ratio");
  Emit("serve.cache_evictions", static_cast<double>(serve_.cache_evictions),
       "count");
  Emit("serve.throttled", static_cast<double>(serve_.throttled), "count");

  std::printf("  spans (name, count, total ms, self ms):\n");
  for (const auto& [name, s] : spans_.Summarize()) {
    std::printf("    %-26s %8zu %12.2f %12.2f\n", name.c_str(), s.count,
                s.total_ms, s.self_ms);
  }
}

}  // namespace capbench
