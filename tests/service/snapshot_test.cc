#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "repo/csv.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// A snapshot re-encodes only the forecasts that changed since the last one
// and reuses every other key's encoded row; recovery keeps only the journal
// suffix after the last snapshot. These tests pin both against what the
// full re-encode and the whole-journal replay produce.

namespace capplan::service {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kHour = 3600;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

workload::WorkloadScenario TestScenario(int instances) {
  auto scenario = workload::WorkloadScenario::Olap();
  scenario.n_instances = instances;
  return scenario;
}

EstateServiceConfig FastConfig(const std::string& name) {
  EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.fit_threads = 1;
  config.warmup_days = 42;
  config.snapshot_every_ticks = 0;  // explicit checkpoints only
  config.staleness.rmse_degradation_factor = 1e9;  // age-only refits
  config.state_dir = ::testing::TempDir() + "/snapshot_" + name;
  fs::remove_all(config.state_dir);
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// What a full re-encode writes: WriteCsv over EncodeForecastRow of every
// forecast the service serves.
std::string ReferenceForecasts(const EstateService& service,
                               const std::string& path) {
  std::map<std::string, CachedForecast> served;
  for (const serve::InstanceStatus& row : service.View()->instances) {
    if (!row.has_forecast) continue;
    served[row.key] = {row.forecast, row.forecast_start_epoch,
                       row.forecast_step_seconds, row.spec, row.degradation};
  }
  repo::CsvTable table;
  table.header = {"key",   "spec",  "start_epoch", "step_seconds",
                  "level", "mean",  "lower",       "upper",
                  "degradation"};
  for (const auto& [key, fc] : served) {
    table.rows.push_back(EncodeForecastRow(key, fc));
  }
  EXPECT_TRUE(repo::WriteCsv(path, table).ok());
  return ReadFile(path);
}

// Checkpoints and compares the snapshot's forecast file with the reference.
void ExpectSnapshotForecastsMatch(EstateService* service,
                                  const std::string& state_dir,
                                  const std::string& where) {
  ASSERT_TRUE(service->Checkpoint().ok()) << where;
  const std::string written = ReadFile(state_dir + "/snapshot.forecasts.csv");
  const std::string reference =
      ReferenceForecasts(*service, state_dir + "_reference.csv");
  ASSERT_FALSE(written.empty()) << where;
  EXPECT_TRUE(written == reference)
      << where << ": snapshot.forecasts.csv differs from a full re-encode";
}

// First fit, a promotion, a rollback of it, and a snapshot-led recovery:
// after each, the snapshot holds exactly the forecasts being served.
TEST_F(SnapshotTest, ForecastFileFollowsPromotionRollbackAndRecovery) {
  workload::ClusterSimulator cluster(TestScenario(2), 7);
  auto config = FastConfig("promote_rollback");
  config.staleness.max_age_seconds = 2 * kHour;  // refits due at tick 3
  config.guardrail.rollback_min_scored = 1;      // one bad hour suffices
  const std::vector<WatchConfig> watches = {
      {0, workload::Metric::kCpu, 95.0}, {1, workload::Metric::kCpu, 95.0}};
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_NO_FATAL_FAILURE(
        ExpectSnapshotForecastsMatch(&service, config.state_dir, "first fit"));
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSnapshotForecastsMatch(
        &service, config.state_dir, "unchanged forecasts"));
    {
      // The challengers report clean accuracy but serve ruined forecasts.
      ScopedFault poison("pipeline.poison_forecast", FaultPlan::FailForever());
      ASSERT_TRUE(service.Tick().ok());
      ASSERT_TRUE(service.DrainRefits().ok());
    }
    EXPECT_GE(service.telemetry().promotions, 3u);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSnapshotForecastsMatch(&service, config.state_dir, "promotion"));
    auto report = service.Tick();  // live scoring rolls them back
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->rollbacks, 1u);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSnapshotForecastsMatch(&service, config.state_dir, "rollback"));
  }
  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotForecastsMatch(
      &recovered, config.state_dir, "snapshot-led recovery"));
  ASSERT_TRUE(recovered.Tick().ok());
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotForecastsMatch(
      &recovered, config.state_dir, "tick after recovery"));
  fs::remove_all(config.state_dir);
}

// A challenger the promotion gate keeps out leaves the served forecast,
// and with it the snapshot row, as it was.
TEST_F(SnapshotTest, ForecastFileUnchangedByRejectedChallenger) {
  workload::ClusterSimulator cluster(TestScenario(1), 7);
  auto config = FastConfig("reject");
  config.staleness.max_age_seconds = 4 * kHour;  // refit due at tick 5
  config.guardrail.promotion_min_scored = 2;
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};
  EstateService service(&cluster, watches, config);
  ASSERT_TRUE(service.Start().ok());
  for (int tick = 1; tick <= 4; ++tick) {
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectSnapshotForecastsMatch(&service, config.state_dir, "champion"));
  const std::string before =
      ReadFile(config.state_dir + "/snapshot.forecasts.csv");
  {
    ScopedFault poison("pipeline.poison_fit", FaultPlan::FailForever());
    ASSERT_TRUE(service.Tick().ok());  // tick 5: the gate rejects
    ASSERT_TRUE(service.DrainRefits().ok());
  }
  EXPECT_EQ(service.telemetry().promotions_rejected, 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotForecastsMatch(
      &service, config.state_dir, "rejected challenger"));
  EXPECT_EQ(ReadFile(config.state_dir + "/snapshot.forecasts.csv"), before);
  fs::remove_all(config.state_dir);
}

// A recovered service re-encodes what it loaded instead of writing back the
// text it read: a pre-ladder 8-column row comes back with 9 columns.
TEST_F(SnapshotTest, LegacyRowIsWrittenBackInTodaysLayout) {
  workload::ClusterSimulator cluster(TestScenario(1), 7);
  auto config = FastConfig("legacy");
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 95.0}};
  const std::string path = config.state_dir + "/snapshot.forecasts.csv";
  {
    EstateService service(&cluster, watches, config);
    ASSERT_TRUE(service.Start().ok());
    ASSERT_TRUE(service.Tick().ok());
    ASSERT_TRUE(service.Checkpoint().ok());
  }
  const std::string today = ReadFile(path);
  // Drop the degradation column: the layout from before the ladder.
  auto read = repo::ReadCsv(path);
  ASSERT_TRUE(read.ok());
  repo::CsvTable table = *read;
  table.header.pop_back();
  for (auto& row : table.rows) row.pop_back();
  ASSERT_TRUE(repo::WriteCsv(path, table).ok());
  ASSERT_NE(ReadFile(path), today);

  EstateService recovered(&cluster, watches, config);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Checkpoint().ok());
  EXPECT_EQ(ReadFile(path), today);
  fs::remove_all(config.state_dir);
}

// Everything recovery restores that the journal or a snapshot carries.
std::string State(const EstateService& service) {
  std::string out = "clock " + std::to_string(service.now()) + " " +
                    std::to_string(service.tick_count()) + " seq " +
                    std::to_string(service.journal_seq()) + "\n";
  for (const ScheduleEntry& e : service.ScheduleEntries()) {
    out += "schedule " + e.key + " " + std::to_string(e.due_epoch) + " " +
           std::to_string(e.consecutive_failures) + "\n";
  }
  for (const std::string& key : service.registry().Keys()) {
    const auto model = service.registry().Get(key);
    out += "champion " + key + " " + model->technique + " " + model->spec +
           " " + std::to_string(model->fitted_at_epoch) + "\n";
  }
  for (const serve::InstanceStatus& row : service.View()->instances) {
    if (!row.has_forecast) continue;
    repo::AppendCsvRecord(
        &out, EncodeForecastRow(row.key, {row.forecast,
                                          row.forecast_start_epoch,
                                          row.forecast_step_seconds, row.spec,
                                          row.degradation}));
  }
  for (const ServiceAlert& a : service.ActiveAlerts()) {
    out += "alert " + a.key + " " + std::to_string(a.predicted_breach_epoch) +
           "\n";
  }
  return out;
}

std::size_t CountLines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n';
  return n;
}

// Several snapshots in one journal: recovery starts from the last one,
// restores the live state, and resumes the sequence at the journal's full
// line count; a malformed line anywhere before the tail still fails it.
TEST_F(SnapshotTest, RecoveryFromTheLastOfSeveralSnapshots) {
  workload::ClusterSimulator cluster(TestScenario(3), 7);
  auto config = FastConfig("several");
  config.snapshot_every_ticks = 3;
  config.staleness.max_age_seconds = 4 * kHour;  // refits between snapshots
  // A low threshold on one key so alerts raise and travel in snapshots.
  const std::vector<WatchConfig> watches = {{0, workload::Metric::kCpu, 20.0},
                                            {1, workload::Metric::kCpu, 95.0},
                                            {2, workload::Metric::kCpu, 95.0}};
  EstateService live(&cluster, watches, config);
  ASSERT_TRUE(live.Start().ok());
  for (int tick = 1; tick <= 11; ++tick) {
    ASSERT_TRUE(live.Tick().ok());
    ASSERT_TRUE(live.DrainRefits().ok());
  }
  const std::string journal = ReadFile(config.state_dir + "/journal.log");
  auto events = ReadJournal(config.state_dir + "/journal.log");
  ASSERT_TRUE(events.ok());
  std::vector<std::size_t> snapshots;  // line index of each marker
  for (std::size_t i = 0; i < events->size(); ++i) {
    if ((*events)[i].kind == EventKind::kSnapshot) snapshots.push_back(i);
  }
  ASSERT_EQ(snapshots.size(), 3u);
  ASSERT_LT(snapshots.back() + 1, events->size());  // a suffix to replay
  EXPECT_EQ(live.journal_seq(), CountLines(journal));

  const std::string copy = config.state_dir + "_copy";
  auto recover_copy = [&](const std::string& journal_text) {
    fs::remove_all(copy);
    fs::copy(config.state_dir, copy, fs::copy_options::recursive);
    std::ofstream(copy + "/journal.log", std::ios::binary | std::ios::trunc)
        << journal_text;
    EstateServiceConfig copy_config = config;
    copy_config.state_dir = copy;
    auto service =
        std::make_unique<EstateService>(&cluster, watches, copy_config);
    return std::make_pair(service->Recover(), std::move(service));
  };

  auto recovered = recover_copy(journal);
  ASSERT_TRUE(recovered.first.ok()) << recovered.first.ToString();
  EXPECT_EQ(recovered.second->journal_seq(), events->size());
  EXPECT_EQ(State(*recovered.second), State(live));

  // Garbage before the last snapshot marker: the lines before it are not
  // replayed, but every line is still validated.
  std::size_t at = 0;
  for (std::size_t line = 0; line < snapshots.back(); ++line) {
    at = journal.find('\n', at) + 1;
  }
  EXPECT_FALSE(recover_copy(journal.substr(0, at) + "not a journal line\n" +
                            journal.substr(at))
                   .first.ok());
  EXPECT_FALSE(recover_copy("not a journal line\n" + journal).first.ok());
  fs::remove_all(copy);
  fs::remove_all(config.state_dir);
}

}  // namespace
}  // namespace capplan::service
