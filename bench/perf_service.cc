// Estate service throughput (google-benchmark): steady-state scheduler
// ticks/sec at varying estate sizes, with refits running on the shared pool.
// The fit_threads sweep shows the concurrency win of dispatching refits onto
// the pool instead of fitting inline: with one worker the drain serialises
// every fit, with many workers they overlap (on multi-core hosts).
//
// Each iteration runs a day of 6-hour ticks against a short staleness policy
// (12 h) so every key is refit twice per simulated day — a deliberately
// refit-heavy steady state.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "service/estate_service.h"
#include "workload/scenario.h"

namespace {

using namespace capplan;

constexpr std::int64_t kHour = 3600;

void BM_EstateServiceSteadyState(benchmark::State& state) {
  const int n_instances = static_cast<int>(state.range(0));
  const std::size_t fit_threads = static_cast<std::size_t>(state.range(1));
  constexpr int kTicksPerIteration = 4;  // one simulated day

  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = n_instances;
  workload::ClusterSimulator cluster(scenario, 11);
  std::vector<service::WatchConfig> watches;
  for (int instance = 0; instance < n_instances; ++instance) {
    watches.push_back({instance, workload::Metric::kCpu, 1e9});
  }

  service::EstateServiceConfig config;
  config.tick_seconds = 6 * kHour;
  config.fit_threads = fit_threads;
  config.pipeline.technique = core::Technique::kHes;
  config.staleness.max_age_seconds = 12 * kHour;     // refit twice a day
  config.staleness.rmse_degradation_factor = 1e9;    // age-driven only
  config.warmup_days = 42;

  service::EstateService svc(&cluster, watches, config);
  if (!svc.Start().ok()) {
    state.SkipWithError("service failed to start");
    return;
  }

  std::int64_t ticks = 0;
  for (auto _ : state) {
    for (int i = 0; i < kTicksPerIteration; ++i) {
      auto report = svc.Tick();
      if (!report.ok()) {
        state.SkipWithError(report.status().ToString().c_str());
        return;
      }
      ++ticks;
    }
    // Drain inside the timed region: ticks/sec includes the refit work the
    // iteration generated, so the fit_threads sweep is honest.
    if (!svc.DrainRefits().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
  }

  state.counters["ticks/s"] =
      benchmark::Counter(static_cast<double>(ticks), benchmark::Counter::kIsRate);
  state.counters["refits"] =
      static_cast<double>(svc.telemetry().refits_succeeded);
  const obs::Histogram& fit = svc.telemetry().fit_stage;
  state.counters["fit_ms_mean"] = fit.mean();
  state.counters["fit_ms_p50"] = fit.quantile(0.50);
  state.counters["fit_ms_p99"] = fit.quantile(0.99);
}

BENCHMARK(BM_EstateServiceSteadyState)
    ->ArgNames({"instances", "fit_threads"})
    ->Args({10, 1})
    ->Args({10, 8})
    ->Args({50, 1})
    ->Args({50, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
