// Estate planning service demo: the paper's production operating mode
// (Sections 5.1, 8) run end to end as a simulated-clock daemon.
//
// A 20-instance OLAP estate is watched on all three metrics (60 series).
// Agents poll every 15 minutes, the repository aggregates hourly, and each
// series' model lives one week or until its RMSE degrades. The run covers
// three simulated weeks, is killed mid-way (scope exit, no checkpoint), and
// recovered from the append-only journal + latest snapshot — the schedule,
// registry, cached forecasts and alert state all survive. Exits non-zero if
// any invariant is violated.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/handlers.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

using namespace capplan;

namespace {

constexpr std::int64_t kHour = 3600;
constexpr std::int64_t kDay = 24 * kHour;

int Fail(const std::string& what) {
  std::printf("FAILED: %s\n", what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --serve: after the simulated run, stand up the HTTP query server over
  // the service's published view and exercise it with a live client.
  bool serve_demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--serve") serve_demo = true;
  }

  // Tracing stays on for the whole run: every tick, ingest, refit and alert
  // scan lands in the per-thread ring buffers, dumped to a Chrome-trace file
  // at the end (open it in chrome://tracing or https://ui.perfetto.dev).
  obs::Tracer::Instance().Enable();

  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 20;
  workload::ClusterSimulator cluster(scenario, 7);

  // Every (instance, metric) pair in the estate. Generous thresholds so the
  // alert feed stays quiet except where the workload genuinely trends up.
  std::vector<service::WatchConfig> watches;
  for (int instance = 0; instance < scenario.n_instances; ++instance) {
    watches.push_back({instance, workload::Metric::kCpu, 90.0});
    watches.push_back({instance, workload::Metric::kMemory, 16384.0});
    watches.push_back({instance, workload::Metric::kLogicalIops, 5e9});
  }

  service::EstateServiceConfig config;
  config.tick_seconds = 6 * kHour;  // four scheduler cycles per day
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 4;
  config.warmup_days = 42;  // Table-1 hourly window available immediately
  config.snapshot_every_ticks = 16;
  config.n_shards = 4;        // consistent-hash partition, batched refits
  config.refit_batch_size = 8;
  config.state_dir = (std::filesystem::temp_directory_path() /
                      "capplan_estate_service").string();
  std::filesystem::remove_all(config.state_dir);

  const int ticks_per_week = static_cast<int>(7 * kDay / config.tick_seconds);
  const int first_leg = 2 * ticks_per_week;   // weeks 1-2, then "crash"
  const int second_leg = ticks_per_week;      // week 3 after recovery

  std::printf("estate: %d instances x 3 metrics = %zu series on %zu shards\n",
              scenario.n_instances, watches.size(), config.n_shards);
  std::printf("cadence: poll %llds, tick %lldh, model max age %lldd\n\n",
              static_cast<long long>(config.poll_seconds),
              static_cast<long long>(config.tick_seconds / kHour),
              static_cast<long long>(
                  config.staleness.max_age_seconds / kDay));

  std::int64_t crash_now = 0;
  std::uint64_t crash_ticks = 0;
  {
    service::EstateService svc(&cluster, watches, config);
    if (auto s = svc.Start(); !s.ok()) return Fail(s.ToString());
    std::printf("[leg 1] warmup backfilled %zu series, first fits due now\n",
                svc.series_count());
    for (int tick = 1; tick <= first_leg; ++tick) {
      auto report = svc.Tick();
      if (!report.ok()) return Fail(report.status().ToString());
      if (report->refits_dispatched > 0 || report->alerts_raised > 0) {
        std::printf(
            "  day %3lld  %2zu refits dispatched, %zu alerts raised\n",
            static_cast<long long>((report->now_epoch -
                                    cluster.start_epoch()) / kDay),
            report->refits_dispatched, report->alerts_raised);
      }
    }
    if (auto s = svc.DrainRefits(); !s.ok()) return Fail(s.ToString());

    const auto& t = svc.telemetry();
    std::printf("[leg 1] %llu ticks, %llu fits ok / %llu failed, "
                "%llu alerts; fit ms min %.0f / p50 %.0f / mean %.0f / "
                "p99 %.0f\n",
                static_cast<unsigned long long>(t.ticks),
                static_cast<unsigned long long>(t.refits_succeeded),
                static_cast<unsigned long long>(t.refits_failed),
                static_cast<unsigned long long>(t.alerts_raised),
                t.fit_stage.min(), t.fit_stage.quantile(0.50),
                t.fit_stage.mean(), t.fit_stage.quantile(0.99));

    // Refits only per staleness policy: two weeks = the initial fit plus at
    // most two age-driven rounds (degradation may add a handful, never a
    // refit-per-tick storm).
    if (t.refits_dispatched < watches.size()) {
      return Fail("not every series got its initial fit");
    }
    if (t.refits_dispatched > 4 * watches.size()) {
      return Fail("refit storm: staleness policy not limiting refits");
    }
    if (svc.registry().size() != watches.size()) {
      return Fail("registry incomplete before crash");
    }
    crash_now = svc.now();
    crash_ticks = svc.tick_count();
    std::printf("[crash] killing the service at day %lld "
                "(no checkpoint)\n\n",
                static_cast<long long>((crash_now - cluster.start_epoch()) /
                                       kDay));
    // Scope exit without Checkpoint(): only journal + periodic snapshots
    // survive, exactly like a process kill.
  }

  service::EstateService svc(&cluster, watches, config);
  if (auto s = svc.Recover(); !s.ok()) return Fail(s.ToString());
  std::printf("[recover] clock=%lld ticks=%llu registry=%zu schedule=%zu\n",
              static_cast<long long>(svc.now()),
              static_cast<unsigned long long>(svc.tick_count()),
              svc.registry().size(), svc.schedule_size());
  if (svc.now() != crash_now) return Fail("recovered clock drifted");
  if (svc.tick_count() != crash_ticks) return Fail("recovered tick count");
  if (svc.registry().size() != watches.size()) {
    return Fail("registry lost models in recovery");
  }
  if (svc.schedule_size() != watches.size()) {
    return Fail("schedule lost entries in recovery");
  }

  for (int tick = 1; tick <= second_leg; ++tick) {
    auto report = svc.Tick();
    if (!report.ok()) return Fail(report.status().ToString());
    if (tick == 1) {
      // Every model crossed its age limit during the outage, so this tick
      // redispatched the whole estate. Let those fits land before advancing
      // the clock further, or the simulated week outruns real fit latency
      // and the cached-forecast feed is never exercised.
      if (auto s = svc.DrainRefits(); !s.ok()) return Fail(s.ToString());
    }
  }
  if (auto s = svc.DrainRefits(); !s.ok()) return Fail(s.ToString());
  if (auto s = svc.Checkpoint(); !s.ok()) return Fail(s.ToString());

  const auto& t = svc.telemetry();
  const std::int64_t days =
      (svc.now() - cluster.start_epoch() - 42 * kDay) / kDay;
  std::printf("[leg 2] ran to day %lld of service time\n",
              static_cast<long long>(days + 14));
  if (days < 7) return Fail("second leg too short");
  // Week 3 crosses every model's one-week age limit exactly once.
  if (t.refits_succeeded < watches.size()) {
    return Fail("age-driven refits missing after recovery");
  }
  if (t.refits_succeeded > 3 * watches.size()) {
    return Fail("refit storm after recovery");
  }
  if (t.forecast_cache_hits == 0) {
    return Fail("alert feed never used a cached forecast");
  }

  std::printf("\ntelemetry (post-recovery service):\n%s\n",
              service::TelemetryToJson(t, /*pretty=*/true).c_str());
  std::printf("\nactive alerts: %zu\n", svc.ActiveAlerts().size());
  for (const auto& alert : svc.ActiveAlerts()) {
    std::printf("  %-28s breach predicted %+lld h (%s bound)\n",
                alert.key.c_str(),
                static_cast<long long>(
                    (alert.predicted_breach_epoch - svc.now()) / kHour),
                alert.upper_only ? "upper" : "mean");
  }

  if (serve_demo) {
    // The serving layer reads the same snapshot the alert feed was built
    // from: an ephemeral-port server (no fixed-port collisions) plus one
    // real client round trip per endpoint family.
    serve::EstateQueryHandler handler(svc.view_channel());
    serve::HttpServer server([&handler](const serve::HttpRequest& request) {
      return handler.Handle(request);
    });
    if (auto s = server.Start(); !s.ok()) return Fail(s.ToString());
    std::printf("\n[serve] capacity query server on 127.0.0.1:%d\n",
                server.port());
    serve::HttpClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      return Fail("serve: client connect failed");
    }
    auto estate = client.Get("/v1/estate");
    if (!estate.ok() || estate->status != 200) {
      return Fail("serve: GET /v1/estate failed");
    }
    std::printf("[serve] GET /v1/estate -> 200 (%zu bytes, %zu instances)\n",
                estate->body.size(), watches.size());
    const std::string& key = svc.keys().front();
    const std::size_t slash = key.find('/');
    const std::string breach_target = "/v1/breach?instance=" +
                                      key.substr(0, slash) +
                                      "&metric=" + key.substr(slash + 1);
    auto breach = client.Get(breach_target);
    if (!breach.ok() || breach->status != 200) {
      return Fail("serve: GET " + breach_target + " failed");
    }
    std::printf("[serve] GET %s ->\n  %s\n", breach_target.c_str(),
                breach->body.c_str());
    // Interpretable decomposition of the same series: trend + one component
    // per routed (or live-detected) seasonal period + residual.
    const std::string decompose_target = "/v1/decompose?key=" + key;
    auto decompose = client.Get(decompose_target);
    if (!decompose.ok() || decompose->status != 200) {
      return Fail("serve: GET " + decompose_target + " failed");
    }
    const std::size_t source = decompose->body.find("\"periods_source\"");
    std::printf("[serve] GET %s -> 200 (%zu bytes, %s)\n",
                decompose_target.c_str(), decompose->body.size(),
                source == std::string::npos
                    ? "?"
                    : decompose->body.substr(source, 28).c_str());
    server.Stop();
  }

  // Observability artifacts: a Prometheus scrape file of the telemetry
  // registry and the full Chrome-trace timeline of the run.
  const std::string scrape = config.state_dir + "/metrics.prom";
  const std::string trace = config.state_dir + "/trace.json";
  if (auto s = svc.WritePrometheus(scrape); !s.ok()) return Fail(s.ToString());
  if (auto s = svc.DumpTrace(trace); !s.ok()) return Fail(s.ToString());
  std::printf("\nwrote %s (%ju bytes) and %s (%ju bytes)\n", scrape.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(scrape)),
              trace.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(trace)));

  std::printf("\nestate service demo OK\n");
  std::filesystem::remove_all(config.state_dir);
  return 0;
}
