#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/trace.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// Chaos scenarios: deterministic faults injected into the estate daemon's
// I/O and fit paths, with assertions on the recovery invariants — the clock
// keeps ticking, journals replay cleanly, alerts are not duplicated, and
// degraded forecasts are flagged as such.

namespace capplan::service {
namespace {

constexpr std::int64_t kHour = 3600;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

workload::WorkloadScenario TestScenario() {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 2;
  return scenario;
}

EstateServiceConfig FastConfig() {
  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 2;
  config.warmup_days = 42;
  return config;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/chaos_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST_F(ChaosTest, AgentOutageMidWindowThenCatchUp) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());

  // The whole monitoring plane goes dark for one poll cycle.
  FaultInjector::Global().Arm("agent.collect", FaultPlan::FailN(1));
  EXPECT_FALSE(service.Tick().ok());

  // The outage tick served nothing, but the next tick backfills the whole
  // un-ingested window: no sample is lost.
  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->samples_ingested, 8u);  // two hours of 15-min polls
  ASSERT_TRUE(service.DrainRefits().ok());
  const std::string& key = service.keys()[0];
  EXPECT_EQ(service.FindHourly(key)->size(), 1010u);
  EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
}

TEST_F(ChaosTest, DiskErrorDuringSnapshotIsAbsorbed) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("snapshot_disk");
  config.snapshot_every_ticks = 1;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());

  FaultInjector::Global().Arm("csv.write", FaultPlan::FailN(1));
  auto report = service.Tick();  // snapshot write dies; the tick does not
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(service.telemetry().snapshot_failures, 1u);
  EXPECT_GE(service.telemetry().io_errors, 1u);
  EXPECT_EQ(service.telemetry().snapshots_written, 0u);

  // The disk heals; the next snapshot lands and recovery works off it.
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().snapshots_written, 1u);
  ASSERT_TRUE(service.Checkpoint().ok());

  EstateService recovered(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                          config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), service.now());
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, ExplicitCheckpointPropagatesDiskError) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("checkpoint_disk");
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());

  FaultInjector::Global().Arm("csv.write", FaultPlan::FailN(1));
  EXPECT_FALSE(service.Checkpoint().ok());  // the caller asked for durability
  EXPECT_EQ(service.telemetry().snapshot_failures, 1u);
  ASSERT_TRUE(service.Checkpoint().ok());  // site exhausted: disk healed
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, PoisonedMetricStillYieldsFiniteForecast) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 0.01}},
                        FastConfig());
  // A handful of corrupted readings (1e12 "CPU%") land in the warmup data.
  FaultInjector::Global().Arm("agent.poison",
                              FaultPlan::FailAfter(100, 3));
  ASSERT_TRUE(service.Start().ok());
  FaultInjector::Global().Disarm("agent.poison");
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());

  // The refit completed (full rung or a ladder rung — never a hole) and the
  // cached forecast is finite despite the garbage in the window.
  const std::string& key = service.keys()[0];
  EXPECT_EQ(service.telemetry().refits_succeeded +
                service.telemetry().refits_failed,
            1u);
  EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
  ASSERT_TRUE(service.quality_reports().count(key) > 0);
  auto tick2 = service.Tick();  // alert scan over the cached forecast
  ASSERT_TRUE(tick2.ok());
  EXPECT_GE(service.telemetry().forecast_cache_hits, 1u);
}

TEST_F(ChaosTest, QuarantineStormAndRecovery) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.always_forecast = false;  // no ladder: every fit failure is real
  config.retry.initial_backoff_seconds = kHour;
  config.retry.backoff_multiplier = 1.0;
  config.retry.quarantine_after_failures = 2;
  EstateService service(
      &cluster,
      {{0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kCpu, 95.0}},
      config);
  ASSERT_TRUE(service.Start().ok());

  // Every refit worker dies on arrival: an estate-wide fitter outage.
  FaultInjector::Global().Arm("pipeline.run", FaultPlan::FailForever());
  for (int tick = 1; tick <= 3; ++tick) {
    ASSERT_TRUE(service.Tick().ok());  // the clock never stops
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().refits_failed, 4u);  // 2 keys x 2 attempts
  EXPECT_EQ(service.telemetry().quarantines, 2u);
  for (const auto& key : service.keys()) {
    EXPECT_TRUE(service.IsQuarantined(key));
  }

  // Fitters come back; released keys refit on the next tick.
  FaultInjector::Global().Reset();
  for (const auto& key : service.keys()) {
    ASSERT_TRUE(service.ReleaseQuarantine(key).ok());
  }
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_succeeded, 2u);
  for (const auto& key : service.keys()) {
    EXPECT_TRUE(service.registry().Contains(key));
  }
}

// A key whose age-due refit failed is still past max_age, and stays so until
// a refit succeeds. The staleness check must leave it on the retry ladder:
// pulling it forward every tick would turn the 6-hour backoff into a retry
// per tick.
TEST_F(ChaosTest, AgeDueRetryKeepsItsBackoff) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("age_due_retry");
  config.always_forecast = false;  // no ladder: every fit failure is real
  config.guardrail.enabled = false;
  config.staleness.max_age_seconds = 2 * kHour;
  config.retry.initial_backoff_seconds = 6 * kHour;
  config.retry.backoff_multiplier = 1.0;
  config.retry.quarantine_after_failures = 100;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};
  EstateService service(&cluster, watches, config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  ASSERT_EQ(service.telemetry().refits_succeeded, 1u);
  const std::string& key = service.keys()[0];

  FaultInjector::Global().Arm("pipeline.run", FaultPlan::FailForever());
  std::vector<int> failed_at;
  for (int tick = 1; tick <= 20; ++tick) {
    const std::size_t failed_before = service.telemetry().refits_failed;
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    if (service.telemetry().refits_failed == failed_before) continue;
    failed_at.push_back(tick);
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->consecutive_failures,
              static_cast<int>(failed_at.size()));
    EXPECT_EQ(entry->due_epoch, service.now() + 6 * kHour);
  }
  // The first retry falls due two hours after the fit; after that, one
  // attempt per six-hour backoff.
  EXPECT_EQ(failed_at, (std::vector<int>{2, 8, 14, 20}));

  // The schedule the live service keeps is the one its journal recovers.
  auto live = service.ScheduleFor(key);
  ASSERT_TRUE(live.ok());
  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  auto replayed = recovered.ScheduleFor(key);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->due_epoch, live->due_epoch);
  EXPECT_EQ(replayed->consecutive_failures, live->consecutive_failures);
  EXPECT_EQ(replayed->quarantined, live->quarantined);
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, JournalWriteFailuresCountedNotFatal) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("journal_fail");
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());

  FaultInjector::Global().Arm("journal.append", FaultPlan::FailN(2));
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  ASSERT_TRUE(service.Tick().ok());
  EXPECT_EQ(service.telemetry().journal_write_failures, 2u);
  EXPECT_GE(service.telemetry().io_errors, 2u);
  EXPECT_GT(service.telemetry().journal_events, 0u);  // later appends landed
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, TornJournalTailReplaysCleanlyWithoutDuplicateAlerts) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("torn");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 0.01}};

  std::int64_t healthy_now = 0;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    ASSERT_TRUE(service.Tick().ok());  // raises the breach alert
    ASSERT_EQ(service.ActiveAlerts().size(), 1u);
    healthy_now = service.now();

    // From here on every append tears mid-line (a dying disk before the
    // crash): the tick is still served, and the torn bytes must read back
    // as an absent tail, not as corruption.
    FaultInjector::Global().Arm("journal.torn", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    EXPECT_GE(service.telemetry().journal_write_failures, 1u);
    // Crash: scope exit, no checkpoint.
  }
  FaultInjector::Global().Reset();

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  // State is exactly the last healthy tick: the torn suffix replayed as
  // nothing, and the alert raised before the crash exists exactly once.
  EXPECT_EQ(recovered.now(), healthy_now);
  EXPECT_EQ(recovered.tick_count(), 2u);
  ASSERT_EQ(recovered.ActiveAlerts().size(), 1u);
  EXPECT_TRUE(recovered.registry().Contains(recovered.keys()[0]));
  // Resuming does not re-raise the surviving alert.
  ASSERT_TRUE(recovered.Tick().ok());
  EXPECT_EQ(recovered.telemetry().alerts_raised, 0u);
  EXPECT_EQ(recovered.ActiveAlerts().size(), 1u);
  std::filesystem::remove_all(config.state_dir);
}

// One torn append and the journal keeps going: the appender cuts the torn
// bytes off before its next line, so recovery reads every later event and
// loses only the torn one (here a tick line).
TEST_F(ChaosTest, TornAppendDoesNotBreakLaterRecovery) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("torn_once");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  std::int64_t live_now = 0;
  std::uint64_t live_ticks = 0;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    FaultInjector::Global().Arm("journal.torn", FaultPlan::FailN(1));
    ASSERT_TRUE(service.Tick().ok());  // its tick line tears
    ASSERT_TRUE(service.Tick().ok());
    EXPECT_EQ(service.telemetry().journal_write_failures, 1u);
    live_now = service.now();
    live_ticks = service.tick_count();
  }
  FaultInjector::Global().Reset();

  EstateService recovered(&cluster, watches, config);
  const Status st = recovered.Recover();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(recovered.now(), live_now);
  EXPECT_EQ(recovered.tick_count(), live_ticks - 1);
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, DegradedForecastFlaggedAndSurvivesRecovery) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("degraded");
  config.snapshot_every_ticks = 0;
  config.pipeline.technique = core::Technique::kSarimax;
  config.pipeline.max_lag = 4;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    // The SARIMAX grid stage is down; always_forecast walks the ladder.
    FaultInjector::Global().Arm("selector.grid", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
    EXPECT_EQ(service.telemetry().refits_degraded, 1u);
    EXPECT_EQ(service.ForecastDegradation(service.keys()[0]),
              core::DegradationLevel::kHesOnly);
    // Crash without checkpoint.
  }
  FaultInjector::Global().Reset();

  // The degradation tag is part of the durable record: recovery restores
  // the forecast still flagged as provisional.
  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.ForecastDegradation(recovered.keys()[0]),
            core::DegradationLevel::kHesOnly);
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, JournalSpanCorrelationSurvivesRecovery) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("span_corr");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};

  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.Disable();
  tracer.Clear();
  tracer.Enable();
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
    // Crash without checkpoint.
  }
  tracer.Disable();
  std::set<std::uint64_t> refit_spans;
  for (const auto& e : tracer.Drain()) {
    if (std::string(e.name) == "service.refit") refit_spans.insert(e.span_id);
  }
  ASSERT_FALSE(refit_spans.empty());

  // The on-disk fit_ok line is stamped with the worker's refit span, so the
  // logged outcome can be located in the trace timeline.
  auto journal = ReadJournal(config.state_dir + "/journal.log");
  ASSERT_TRUE(journal.ok());
  std::uint64_t fit_ok_span = 0;
  for (const auto& event : *journal) {
    if (event.kind == EventKind::kFitOk) fit_ok_span = event.span_id;
  }
  ASSERT_NE(fit_ok_span, 0u);
  EXPECT_TRUE(refit_spans.count(fit_ok_span) > 0);

  // Recovery replays the span-stamped (v2) lines cleanly and appends more
  // events on top of them without disturbing the correlation already on
  // disk.
  FaultInjector::Global().Reset();
  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.registry().Contains(recovered.keys()[0]));
  ASSERT_TRUE(recovered.Tick().ok());
  ASSERT_TRUE(recovered.DrainRefits().ok());
  auto replayed = ReadJournal(config.state_dir + "/journal.log");
  ASSERT_TRUE(replayed.ok());
  std::uint64_t surviving_span = 0;
  for (const auto& event : *replayed) {
    if (event.kind == EventKind::kFitOk && event.span_id == fit_ok_span) {
      surviving_span = event.span_id;
    }
  }
  EXPECT_EQ(surviving_span, fit_ok_span);
  tracer.Clear();
  std::filesystem::remove_all(config.state_dir);
}

TEST_F(ChaosTest, MaintenanceWindowRepairedAndReported) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  // A 3-hour weekly maintenance window: the agent reports nothing while the
  // host reboots. Short enough for the sentinel to interpolate (paper §5.1).
  agent::FaultModel maintenance;
  maintenance.maintenance_period_seconds = 7 * 24 * kHour;
  maintenance.maintenance_start_epoch = cluster.start_epoch() + 24 * kHour;
  maintenance.maintenance_duration_seconds = 3 * kHour;
  EstateService service(&cluster,
                        {{0, workload::Metric::kCpu, 95.0, maintenance}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_succeeded, 1u);

  const std::string& key = service.keys()[0];
  ASSERT_TRUE(service.quality_reports().count(key) > 0);
  const auto& quality = service.quality_reports().at(key);
  EXPECT_GT(quality.missing, 0u);            // the reboot holes were seen
  EXPECT_GT(quality.short_gaps_filled, 0u);  // and bridged, not fatal
  EXPECT_TRUE(quality.trainable);
  EXPECT_EQ(service.ForecastDegradation(key), core::DegradationLevel::kFull);
}

}  // namespace
}  // namespace capplan::service
