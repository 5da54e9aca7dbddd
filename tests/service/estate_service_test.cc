#include "service/estate_service.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "workload/scenario.h"

namespace capplan::service {
namespace {

constexpr std::int64_t kHour = 3600;
constexpr std::int64_t kDay = 24 * kHour;

workload::WorkloadScenario TestScenario() {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = 2;
  return scenario;
}

// Fast config: HES branch only, small pool, hourly ticks.
EstateServiceConfig FastConfig() {
  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 2;
  config.warmup_days = 42;  // exactly the 1008-hour Table-1 window
  return config;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/estate_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(EstateServiceTest, StartBackfillsWarmupAndSchedulesEveryWatch) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(
      &cluster,
      {{0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kCpu, 95.0}},
      FastConfig());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.now(), cluster.start_epoch() + 42 * kDay);
  ASSERT_EQ(service.keys().size(), 2u);
  for (const auto& key : service.keys()) {
    const auto* hourly = service.FindHourly(key);
    ASSERT_NE(hourly, nullptr);
    EXPECT_EQ(hourly->size(), 1008u);
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->due_epoch, service.now());
  }
  EXPECT_FALSE(service.Start().ok());  // double start rejected
}

TEST(EstateServiceTest, TickRequiresStart) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        FastConfig());
  EXPECT_FALSE(service.Tick().ok());
}

TEST(EstateServiceTest, BadTickCadenceRejected) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.tick_seconds = 1800;  // not a whole hour
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  EXPECT_FALSE(service.Start().ok());
}

TEST(EstateServiceTest, FirstTickIngestsAndFitsEveryWatch) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(
      &cluster,
      {{0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kLogicalIops, 1e12}},
      FastConfig());
  ASSERT_TRUE(service.Start().ok());

  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  // One hour of 15-minute polls for two watches.
  EXPECT_EQ(report->samples_ingested, 8u);
  EXPECT_EQ(report->refits_dispatched, 2u);
  ASSERT_TRUE(service.DrainRefits().ok());

  EXPECT_EQ(service.telemetry().refits_succeeded, 2u);
  EXPECT_EQ(service.telemetry().refits_failed, 0u);
  for (const auto& key : service.keys()) {
    EXPECT_EQ(service.FindHourly(key)->size(), 1009u);
    ASSERT_TRUE(service.registry().Contains(key));
    auto model = service.registry().Get(key);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(model->fitted_at_epoch, service.now());
    // Next refit is due one staleness period after the fit.
    auto entry = service.ScheduleFor(key);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->due_epoch,
              model->fitted_at_epoch +
                  service.registry().policy().max_age_seconds);
  }
}

TEST(EstateServiceTest, RefitsFollowTheAgePolicy) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 2 * kHour;
  config.staleness.rmse_degradation_factor = 1e9;  // age only
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  // Fits at ticks 1 (initial), 3 and 5 (age expiry): never in between.
  for (int tick = 1; tick <= 6; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().refits_dispatched, 3u);
  EXPECT_EQ(service.telemetry().refits_succeeded, 3u);
}

TEST(EstateServiceTest, DegradationPullsTheRefitForward) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 30 * kDay;  // age never expires here
  // Any nonzero live RMSE counts as degraded.
  config.staleness.rmse_degradation_factor = 1e-12;
  config.degradation_min_points = 4;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_dispatched, 1u);
  // The degradation check waits for enough forecast-vs-actual overlap, then
  // pulls the (age-wise distant) refit forward.
  for (int tick = 2; tick <= 7; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_GE(service.telemetry().refits_dispatched, 2u);
}

TEST(EstateServiceTest, FailingSeriesBacksOffThenQuarantines) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.retry.initial_backoff_seconds = kHour;
  config.retry.backoff_multiplier = 1.0;
  config.retry.quarantine_after_failures = 2;
  // Watch 1's agent drops every poll: an all-NaN series the pipeline cannot
  // interpolate, so every refit fails while watch 0 stays healthy.
  agent::FaultModel dead;
  dead.drop_probability = 1.0;
  EstateService service(&cluster,
                        {{0, workload::Metric::kCpu, 95.0},
                         {1, workload::Metric::kCpu, 95.0, dead}},
                        config);
  const std::string bad_key = service.keys()[1];
  ASSERT_TRUE(service.Start().ok());

  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 1u);
  EXPECT_FALSE(service.IsQuarantined(bad_key));
  auto entry = service.ScheduleFor(bad_key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->consecutive_failures, 1);
  EXPECT_EQ(entry->due_epoch, service.now() + kHour);  // backed off

  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 2u);
  EXPECT_TRUE(service.IsQuarantined(bad_key));
  EXPECT_EQ(service.telemetry().quarantines, 1u);

  // The healthy watch was unaffected throughout.
  EXPECT_EQ(service.telemetry().refits_succeeded, 1u);
  EXPECT_TRUE(service.registry().Contains(service.keys()[0]));

  // Quarantined keys are out of the rotation until released; only they
  // can be released.
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 2u);
  EXPECT_FALSE(service.ReleaseQuarantine(service.keys()[0]).ok());
  EXPECT_FALSE(service.ReleaseQuarantine("no/such_key").ok());
  ASSERT_TRUE(service.ReleaseQuarantine(bad_key).ok());
  EXPECT_FALSE(service.IsQuarantined(bad_key));
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  EXPECT_EQ(service.telemetry().refits_failed, 3u);
}

TEST(EstateServiceTest, BreachAlertRaisedFromCachedForecast) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  // Threshold far below any CPU value: the first cached forecast breaches.
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 0.01}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  auto report = service.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->alerts_raised, 1u);
  auto alerts = service.ActiveAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].key, service.keys()[0]);
  EXPECT_FALSE(alerts[0].upper_only);
  EXPECT_GE(alerts[0].predicted_breach_epoch, service.now());
  // Subsequent ticks keep the alert active without re-raising it.
  ASSERT_TRUE(service.Tick().ok());
  EXPECT_EQ(service.telemetry().alerts_raised, 1u);
  EXPECT_GE(service.telemetry().forecast_cache_hits, 2u);
  // No refit happened besides the initial one: the cache carried the feed.
  EXPECT_EQ(service.telemetry().refits_dispatched, 1u);
}

TEST(EstateServiceTest, RecoversFromJournalAfterCrash) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("journal_only");
  config.snapshot_every_ticks = 0;  // journal-only recovery
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 0.01}};

  std::int64_t now = 0;
  std::int64_t fitted_at = 0;
  std::string spec;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
    ASSERT_TRUE(service.Tick().ok());  // raises the breach alert
    ASSERT_EQ(service.ActiveAlerts().size(), 1u);
    now = service.now();
    auto model = service.registry().Get(service.keys()[0]);
    ASSERT_TRUE(model.ok());
    fitted_at = model->fitted_at_epoch;
    spec = model->spec;
    // Crash: scope exit with no checkpoint — only the journal survives.
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), now);
  EXPECT_EQ(recovered.tick_count(), 2u);
  const std::string key = recovered.keys()[0];
  ASSERT_TRUE(recovered.registry().Contains(key));
  auto model = recovered.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->fitted_at_epoch, fitted_at);
  EXPECT_EQ(model->spec, spec);
  auto entry = recovered.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch,
            fitted_at + config.staleness.max_age_seconds);
  ASSERT_EQ(recovered.ActiveAlerts().size(), 1u);
  // The metric history was rebuilt up to the recovered cursor.
  EXPECT_EQ(recovered.FindHourly(key)->size(), 1010u);
  // The cached forecast survived: the next tick serves alerts from it
  // without dispatching a refit.
  ASSERT_TRUE(recovered.Tick().ok());
  EXPECT_EQ(recovered.telemetry().refits_dispatched, 0u);
  EXPECT_GE(recovered.telemetry().forecast_cache_hits, 1u);
  std::filesystem::remove_all(config.state_dir);
}

TEST(EstateServiceTest, RecoversFromSnapshotPlusJournalSuffix) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("snapshot");
  config.snapshot_every_ticks = 2;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 0.01}};

  std::int64_t now = 0;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    // Three ticks: the snapshot lands at tick 2, tick 3 is journal suffix.
    for (int tick = 1; tick <= 3; ++tick) {
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    EXPECT_EQ(service.telemetry().snapshots_written, 1u);
    now = service.now();
  }

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.now(), now);
  EXPECT_EQ(recovered.tick_count(), 3u);
  EXPECT_TRUE(recovered.registry().Contains(recovered.keys()[0]));
  ASSERT_EQ(recovered.ActiveAlerts().size(), 1u);
  EXPECT_EQ(recovered.FindHourly(recovered.keys()[0])->size(),
            1011u);
  std::filesystem::remove_all(config.state_dir);
}

// The journal and the snapshot write doubles as "%.17g". The fit_ok line
// below is what the service journals for these values, and the forecast
// row is what its snapshot writes after replaying that line; both were
// captured from the printf-based writers and must not change by a byte.
TEST(EstateServiceTest, FitOkLineAndSnapshotRowBytesArePinned) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("pinned_bytes");
  config.snapshot_every_ticks = 0;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 80.0}};
  const std::string key = EstateService::KeyFor(cluster, watches[0]);
  const std::int64_t now =
      cluster.start_epoch() + config.warmup_days * kDay + kHour;

  const std::string fit_ok_fields =
      "HES|ETS(A,A,A)[24]|0.30000000000000004|12.345000000000001|" +
      std::to_string(now) + "|" + std::to_string(now + kHour) +
      "|3600|0.94999999999999996|"
      "0.0001;0.33333333333333331;123456.7;"
      "-2.4999999999999999e-07;15000000000000000|"
      "0.30000000000000004;2.5;100.5;1000000000000000;-0|"
      "0.125;10000000000000000;52879.489999999998;6.0221407599999999e+23;"
      "1.0000000000000001e-05|0|0.875|1|" +
      std::to_string(now);
  const std::string fit_ok_line = "v2|" + std::to_string(now) + "|fit_ok|42|" +
                                  key + "|" + fit_ok_fields;
  auto parsed = JournalEvent::Parse(fit_ok_line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Serialize(), fit_ok_line);
  {
    std::filesystem::create_directories(config.state_dir);
    std::ofstream journal(config.state_dir + "/journal.log");
    journal << "v2|" << std::to_string(now) << "|tick|0|\n"
            << fit_ok_line << "\n";
  }

  EstateService recovered(&cluster, watches, config);
  const Status recover = recovered.Recover();
  ASSERT_TRUE(recover.ok()) << recover.ToString();
  ASSERT_TRUE(recovered.Checkpoint().ok());
  std::ifstream in(config.state_dir + "/snapshot.forecasts.csv");
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row, key + ",\"HES ETS(A,A,A)[24]\"," + std::to_string(now + kHour) +
                     ",3600,0.94999999999999996,"
                     "0.0001;0.33333333333333331;123456.7;"
                     "-2.4999999999999999e-07;15000000000000000,"
                     "0.30000000000000004;2.5;100.5;1000000000000000;-0,"
                     "0.125;10000000000000000;52879.489999999998;"
                     "6.0221407599999999e+23;1.0000000000000001e-05,0");
  std::filesystem::remove_all(config.state_dir);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// std::stod rejects subnormals (glibc reports ERANGE), so one subnormal
// forecast value used to make Recover() fail with "bad double". The strict
// parser reads it back bit for bit, from the journal and from the snapshot
// row the next checkpoint writes.
TEST(EstateServiceTest, SubnormalForecastValuesRecoverBitExactly) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("subnormal");
  config.snapshot_every_ticks = 0;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 80.0}};
  const std::string key = EstateService::KeyFor(cluster, watches[0]);
  const std::int64_t now =
      cluster.start_epoch() + config.warmup_days * kDay + kHour;
  {
    std::filesystem::create_directories(config.state_dir);
    std::ofstream journal(config.state_dir + "/journal.log");
    journal << "v2|" << now << "|tick|0|\n"
            << "v2|" << now << "|fit_ok|0|" << key
            << "|HES|ETS(A,A,A)[24]|0.5|1.5|" << now << "|" << now + kHour
            << "|3600|0.95|1;4.9406564584124654e-324;2"
               "|0;-4.9406564584124654e-324;1|2;3;4|0|1|1|"
            << now << "\n";
  }
  const auto expect_subnormals = [&](const EstateService& service) {
    const auto view = service.View();
    const auto* row = view->Find(key);
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(row->has_forecast);
    ASSERT_EQ(row->forecast.mean.size(), 3u);
    EXPECT_EQ(Bits(row->forecast.mean[1]), 1u);
    EXPECT_EQ(Bits(row->forecast.lower[1]), 0x8000000000000001u);
  };
  {
    EstateService recovered(&cluster, watches, config);
    const Status st = recovered.Recover();
    ASSERT_TRUE(st.ok()) << st.ToString();
    expect_subnormals(recovered);
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
  std::ifstream in(config.state_dir + "/snapshot.forecasts.csv");
  const std::string rows((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(rows.find(";-4.9406564584124654e-324;"), std::string::npos);

  EstateService from_snapshot(&cluster, watches, config);
  const Status st = from_snapshot.Recover();
  ASSERT_TRUE(st.ok()) << st.ToString();
  expect_subnormals(from_snapshot);
  std::filesystem::remove_all(config.state_dir);
}

// Journal-only recovery after two promotions restores what the next refit's
// warm start, a rollback's accuracy bar and /v1/decompose read from the
// registry: the AR/MA coefficients and periods of both generations, and the
// live MAPE the demoted champion was stamped with.
TEST(EstateServiceTest, RecoveryRestoresCoefficientsPeriodsAndDemotedMape) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.pipeline.technique = core::Technique::kSarimax;
  config.pipeline.max_lag = 3;
  config.state_dir = FreshStateDir("lineage_fields");
  config.snapshot_every_ticks = 0;
  config.staleness.max_age_seconds = 2 * kHour;  // refit due at tick 3
  config.staleness.rmse_degradation_factor = 1e9;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};
  const std::string key = EstateService::KeyFor(cluster, watches[0]);

  repo::StoredModel champion;
  repo::StoredModel demoted;
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    for (int tick = 1; tick <= 3; ++tick) {
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    ASSERT_EQ(service.telemetry().promotions, 2u);
    champion = *service.registry().Get(key);
    demoted = *service.registry().GetPrevious(key);
  }
  ASSERT_FALSE(champion.ar_coef.empty() && champion.ma_coef.empty());
  ASSERT_FALSE(champion.periods.empty());
  ASSERT_GE(demoted.live_mape, 0.0);

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  const auto back = recovered.registry().Get(key);
  const auto back_demoted = recovered.registry().GetPrevious(key);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back_demoted.ok());
  EXPECT_EQ(back->generation, champion.generation);
  EXPECT_EQ(back->ar_coef, champion.ar_coef);
  EXPECT_EQ(back->ma_coef, champion.ma_coef);
  EXPECT_EQ(back->periods, champion.periods);
  EXPECT_EQ(back_demoted->ar_coef, demoted.ar_coef);
  EXPECT_EQ(back_demoted->ma_coef, demoted.ma_coef);
  EXPECT_EQ(back_demoted->periods, demoted.periods);
  EXPECT_EQ(back_demoted->live_mape, demoted.live_mape);
  std::filesystem::remove_all(config.state_dir);
}

TEST(EstateServiceTest, RecoverWithoutStateFails) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.state_dir = FreshStateDir("empty");
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  EXPECT_FALSE(service.Recover().ok());  // nothing journalled yet
  std::filesystem::remove_all(config.state_dir);

  auto ephemeral = FastConfig();
  EstateService no_dir(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                       ephemeral);
  EXPECT_FALSE(no_dir.Recover().ok());  // no state_dir configured
}

TEST(EstateServiceTest, TelemetryJsonIsWellFormed) {
  ServiceTelemetry telemetry;
  telemetry.ticks = 3;
  telemetry.refits_succeeded = 2;
  telemetry.fit_stage.Observe(12.5);
  telemetry.fit_stage.Observe(7.5);
  const std::string json = TelemetryToJson(telemetry);
  EXPECT_NE(json.find("\"ticks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"refits_succeeded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"fit\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_ms\":10"), std::string::npos);
}

TEST(EstateServiceTest, TelemetryJsonGoldenFieldsAreByteStable) {
  // The registry migration must be invisible to anything parsing the
  // telemetry JSON: the counter block is pinned byte for byte, and the
  // pre-migration stage fields keep their exact order with the new
  // histogram-derived fields (min/p50/p99) strictly appended.
  ServiceTelemetry telemetry;
  telemetry.ticks = 3;
  telemetry.refits_succeeded = 2;
  telemetry.fit_stage.Observe(12.5);
  telemetry.fit_stage.Observe(7.5);
  const std::string json = TelemetryToJson(telemetry);
  const std::string golden_counters =
      "{\"ticks\":3,\"polls\":0,\"samples_ingested\":0,\"hourly_points\":0,"
      "\"refits_dispatched\":0,\"refits_succeeded\":2,\"refits_failed\":0,"
      "\"refits_deferred\":0,\"refits_degraded\":0,\"quality_gated\":0,"
      "\"quarantines\":0,\"alerts_raised\":0,\"alerts_cleared\":0,"
      "\"forecast_cache_hits\":0,\"forecast_exhausted_ticks\":0,"
      "\"journal_events\":0,\"snapshots_written\":0,\"io_errors\":0,"
      "\"journal_write_failures\":0,\"snapshot_failures\":0,\"stages\":{";
  EXPECT_EQ(json.substr(0, golden_counters.size()), golden_counters);
  EXPECT_NE(
      json.find("\"fit\":{\"count\":2,\"total_ms\":20,\"mean_ms\":10,"
                "\"max_ms\":12.5,\"min_ms\":7.5,\"p50_ms\":10,"
                "\"p99_ms\":12.45}"),
      std::string::npos)
      << json;
}

TEST(EstateServiceTest, TelemetryJsonAppendsGuardrailAndHealthAfterShards) {
  // The guardrail and health summaries ride strictly after the shards array
  // so the frozen counter prefix (tested above) is untouched.
  ServiceTelemetry telemetry;
  const std::string json = TelemetryToJson(telemetry);
  const auto shards_pos = json.find("\"shards\":[");
  const auto guardrail_pos = json.find("\"guardrail\":{");
  const auto health_pos = json.find("\"health\":{");
  ASSERT_NE(shards_pos, std::string::npos) << json;
  ASSERT_NE(guardrail_pos, std::string::npos) << json;
  ASSERT_NE(health_pos, std::string::npos) << json;
  EXPECT_LT(shards_pos, guardrail_pos);
  EXPECT_LT(guardrail_pos, health_pos);
  EXPECT_NE(json.find("\"promotions\":0"), std::string::npos);
  EXPECT_NE(json.find("\"promotions_rejected\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rollbacks\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tick_overruns\":0"), std::string::npos);
}

TEST(EstateServiceTest, LiveScoringTracksForecastAccuracy) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        FastConfig());
  ASSERT_TRUE(service.Start().ok());
  const std::string key = service.keys()[0];
  EXPECT_LT(service.LiveMapeFor(key), 0.0);  // nothing scored before a fit
  EXPECT_LT(service.LiveMapeFor("no/such/key"), 0.0);

  for (int tick = 1; tick <= 5; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  // Hours arriving after the initial fit were scored against the cached
  // forecast: the rolling live MAPE (percent) is populated and finite.
  const double live = service.LiveMapeFor(key);
  EXPECT_GE(live, 0.0);
  EXPECT_TRUE(std::isfinite(live));
  ASSERT_EQ(service.telemetry().shards.size(), 1u);
  EXPECT_GE(service.telemetry().shards[0].guardrail_scored.value(), 3u);
  // The initial fit was a promotion (generation 1, no gate to clear).
  EXPECT_EQ(service.telemetry().promotions, 1u);
  auto model = service.registry().Get(key);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->generation, 1);
  EXPECT_GT(model->promoted_at_epoch, 0);
  // An accurate steady-state stream keeps the estate healthy.
  EXPECT_EQ(service.ShardHealthState(0), HealthState::kHealthy);
  EXPECT_EQ(service.OverallHealth(), HealthState::kHealthy);
}

TEST(EstateServiceTest, PromotionGateRejectsRegressedChallenger) {
  const auto scenario = TestScenario();
  workload::ClusterSimulator cluster(scenario, 7);
  auto config = FastConfig();
  config.staleness.max_age_seconds = 4 * kHour;     // refit due at tick 5
  config.staleness.rmse_degradation_factor = 1e9;   // age-only refits
  config.guardrail.promotion_min_scored = 2;
  EstateService service(&cluster, {{0, workload::Metric::kCpu, 95.0}},
                        config);
  const std::string key = service.keys()[0];
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Tick().ok());
  ASSERT_TRUE(service.DrainRefits().ok());
  auto champion = service.registry().Get(key);
  ASSERT_TRUE(champion.ok());
  const std::int64_t champion_fitted_at = champion->fitted_at_epoch;

  // Ticks 2-4 accumulate scored hours against the champion's forecast; the
  // age policy refits at tick 5, but the challenger's held-out MAPE is
  // poisoned sky-high, so the gate holds.
  for (int tick = 2; tick <= 4; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  ASSERT_GE(service.LiveMapeFor(key), 0.0);
  {
    ScopedFault poison("pipeline.poison_fit", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().promotions_rejected, 1u);
  EXPECT_EQ(service.telemetry().promotions, 1u);  // only the initial fit
  EXPECT_EQ(service.telemetry().rollbacks, 0u);
  auto kept = service.registry().Get(key);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->fitted_at_epoch, champion_fitted_at);  // champion retained
  EXPECT_EQ(kept->generation, 1);
  // The rejection still reschedules the key: it is not stuck.
  auto entry = service.ScheduleFor(key);
  ASSERT_TRUE(entry.ok());
  EXPECT_GT(entry->due_epoch, service.now());
}

}  // namespace
}  // namespace capplan::service
