#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/number_format.h"
#include "service/estate_service.h"
#include "workload/scenario.h"

// Recovered state == live state at every tick, under seeded random fault
// schedules. Each seed arms the refit fault sites with seeded probabilities
// and runs a 2-shard estate whose guardrails promote, reject, roll back,
// fail, quarantine and alert readily. After every tick the state directory
// is copied, a fresh service recovers from the copy, and the two digests
// must agree on everything the journal carries. The last tick's journal is
// then cut at each line boundary and mid-line.

namespace capplan::service {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kHour = 3600;
constexpr int kSeeds = 4;
constexpr int kTicks = 16;
constexpr int kReleaseEvery = 5;

class ReplayEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::string Num(double v) {
  std::string out;
  AppendDouble17(&out, v);
  return out;
}

std::string Model(const repo::StoredModel& m) {
  return m.key + "|" + m.technique + "|" + m.spec + "|" + Num(m.test_rmse) +
         "|" + Num(m.test_mape) + "|" + std::to_string(m.fitted_at_epoch) +
         "|" + repo::EncodeCoefficients(m.ar_coef) + "|" +
         repo::EncodeCoefficients(m.ma_coef) + "|" +
         repo::EncodeCoefficients(m.periods) + "|" +
         std::to_string(m.generation) + "|" +
         std::to_string(m.promoted_at_epoch) + "|" + Num(m.live_mape) + "\n";
}

std::string Forecasts(const std::map<std::string, CachedForecast>& cached) {
  std::string out;
  for (const auto& [key, fc] : cached) {
    out += key + "|" + fc.spec + "|" + std::to_string(fc.start_epoch) + "|" +
           std::to_string(fc.step_seconds) + "|" + Num(fc.forecast.level) +
           "|" + repo::EncodeCoefficients(fc.forecast.mean) + "|" +
           repo::EncodeCoefficients(fc.forecast.lower) + "|" +
           repo::EncodeCoefficients(fc.forecast.upper) + "|" +
           std::to_string(static_cast<int>(fc.degradation)) + "\n";
  }
  return out;
}

struct DigestScope {
  // Keys whose schedule entry is left out: queued or in flight on the live
  // service, whose urgency the journal does not carry.
  std::set<std::string> in_flight;
  // Snapshots hold neither the rollback slot nor the quality verdicts.
  bool rollback_slot = true;
  bool quality = true;
};

std::string Digest(const EstateService& service, const DigestScope& scope) {
  std::string out = "clock " + std::to_string(service.now()) + " " +
                    std::to_string(service.tick_count()) + "\n";
  for (const ScheduleEntry& e : service.ScheduleEntries()) {
    if (scope.in_flight.count(e.key) > 0) continue;
    out += "schedule " + e.key + " " + std::to_string(e.due_epoch) + " " +
           std::to_string(e.consecutive_failures) + " " +
           (e.quarantined ? "q" : "-") + "\n";
  }
  for (const std::string& key : service.registry().Keys()) {
    out += "champion " + Model(*service.registry().Get(key));
    if (!scope.rollback_slot) continue;
    if (const auto prev = service.registry().GetPrevious(key); prev.ok()) {
      out += "slot " + Model(*prev);
    }
  }
  for (const serve::InstanceStatus& row : service.View()->instances) {
    if (!row.has_forecast) continue;
    out += Forecasts({{row.key, {row.forecast, row.forecast_start_epoch,
                                 row.forecast_step_seconds, row.spec,
                                 row.degradation}}});
  }
  if (scope.rollback_slot) {
    out += "slot forecasts\n" + Forecasts(service.rollback_forecasts());
  }
  for (const ServiceAlert& a : service.ActiveAlerts()) {
    out += "alert " + a.key + " " + (a.upper_only ? "upper" : "mean") + " " +
           std::to_string(a.predicted_breach_epoch) + " " +
           std::to_string(a.raised_at_epoch) + "\n";
  }
  if (scope.quality) {
    for (const auto& [key, q] : service.quality_reports()) {
      out += "quality " + key + " " + Num(q.score) + " " +
             (q.trainable ? "1" : "0") + " " + q.verdict + "\n";
    }
  }
  return out;
}

DigestScope LiveScope(const EstateService& live) {
  DigestScope scope;
  for (const ScheduleEntry& e : live.ScheduleEntries()) {
    if (e.in_flight) scope.in_flight.insert(e.key);
  }
  return scope;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The first line where two digests differ, for a readable failure.
std::string FirstDifference(const std::string& recovered,
                            const std::string& live) {
  std::size_t at = 0;
  while (at < recovered.size() && at < live.size() &&
         recovered[at] == live[at]) {
    ++at;
  }
  const auto line = [at](const std::string& s) {
    const std::size_t begin = s.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
    return s.substr(from, s.find('\n', from) - from).substr(0, 160);
  };
  return "\n recovered: " + line(recovered) + "\n live:      " + line(live);
}

class Estate {
 public:
  explicit Estate(const std::string& name) : cluster_(Scenario(), 7) {
    config_.pipeline.technique = core::Technique::kHes;
    config_.fit_threads = 1;
    config_.n_shards = 2;
    config_.warmup_days = 42;
    config_.always_forecast = false;  // a dead refit worker is a failure
    config_.staleness.max_age_seconds = 3 * kHour;
    config_.guardrail.promotion_min_scored = 2;
    config_.guardrail.rollback_min_scored = 1;
    config_.retry.initial_backoff_seconds = kHour;
    config_.retry.backoff_multiplier = 1.0;
    config_.retry.quarantine_after_failures = 2;
    config_.snapshot_every_ticks = 0;  // the digest covers the rollback slot
    config_.state_dir = ::testing::TempDir() + "/replay_eq_" + name;
    copy_dir_ = config_.state_dir + "_copy";
    fs::remove_all(config_.state_dir);
    fs::remove_all(copy_dir_);
    // Thresholds a poisoned forecast (x10 + 1000) crosses and a clean one
    // mostly does not, so alerts both raise and clear.
    for (int i = 0; i < Scenario().n_instances; ++i) {
      watches_.push_back({i, workload::Metric::kCpu, i == 0 ? 20.0 : 95.0});
    }
  }
  ~Estate() {
    fs::remove_all(config_.state_dir);
    fs::remove_all(copy_dir_);
  }

  static workload::WorkloadScenario Scenario() {
    auto scenario = workload::WorkloadScenario::Olap();
    scenario.n_instances = 5;
    return scenario;
  }

  EstateServiceConfig& config() { return config_; }  // before Start
  EstateService& live() { return *live_; }
  std::string journal_path() const { return config_.state_dir + "/journal.log"; }

  void Start() {
    live_ = std::make_unique<EstateService>(&cluster_, watches_, config_);
    ASSERT_TRUE(live_->Start().ok());
  }

  void Tick(bool drain) {
    ASSERT_TRUE(live_->Tick().ok());
    if (drain) {
      ASSERT_TRUE(live_->DrainRefits().ok());
    }
  }

  // Recovers a fresh service from a copy of the state directory whose
  // journal is `journal` (the live journal when empty).
  std::unique_ptr<EstateService> Recover(const std::string& journal = "") {
    fs::remove_all(copy_dir_);
    fs::copy(config_.state_dir, copy_dir_, fs::copy_options::recursive);
    if (!journal.empty()) {
      std::ofstream(copy_dir_ + "/journal.log",
                    std::ios::binary | std::ios::trunc)
          << journal;
    }
    EstateServiceConfig config = config_;
    config.state_dir = copy_dir_;
    auto recovered =
        std::make_unique<EstateService>(&cluster_, watches_, config);
    const Status st = recovered->Recover();
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return nullptr;
    return recovered;
  }

  // Recovers from the live state directory and compares the digests.
  void ExpectRecoveredEqualsLive(const std::string& where) {
    auto recovered = Recover();
    ASSERT_NE(recovered, nullptr) << where;
    const DigestScope scope = LiveScope(*live_);
    const std::string back = Digest(*recovered, scope);
    const std::string live = Digest(*live_, scope);
    ASSERT_TRUE(back == live) << where << FirstDifference(back, live);
  }

 private:
  workload::ClusterSimulator cluster_;
  EstateServiceConfig config_;
  std::string copy_dir_;
  std::vector<WatchConfig> watches_;
  std::unique_ptr<EstateService> live_;
};

void ArmSeededFaults(int seed) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  faults.set_seed(static_cast<std::uint64_t>(seed));
  faults.Arm("pipeline.run", FaultPlan::WithProbability(0.25));
  faults.Arm("pipeline.poison_fit", FaultPlan::WithProbability(0.2));
  faults.Arm("pipeline.poison_forecast", FaultPlan::WithProbability(0.2));
}

// Cuts the journal at every line boundary of the last tick and halfway
// into each of its lines: recovery succeeds, keeps one alert per key, and a
// mid-line cut recovers exactly what the boundary before it does.
void CheckTornTails(Estate* estate, int seed) {
  const std::string journal = ReadFile(estate->journal_path());
  ASSERT_FALSE(journal.empty());
  // Line starts; the last tick's lines follow the tick line before it.
  std::vector<std::size_t> starts = {0};
  std::vector<std::size_t> tick_lines;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i] != '\n') continue;
    const std::size_t begin = starts.back();
    const auto line = JournalEvent::Parse(journal.substr(begin, i - begin));
    ASSERT_TRUE(line.ok());
    if (line->kind == EventKind::kTick) tick_lines.push_back(starts.size());
    starts.push_back(i + 1);
  }
  ASSERT_GE(tick_lines.size(), 2u);
  const std::size_t first = tick_lines[tick_lines.size() - 2];
  for (std::size_t i = first; i + 1 < starts.size(); ++i) {
    const std::size_t boundary = starts[i];
    const std::size_t mid = boundary + (starts[i + 1] - boundary) / 2;
    auto at_boundary = estate->Recover(journal.substr(0, boundary));
    auto torn = estate->Recover(journal.substr(0, mid));
    ASSERT_NE(at_boundary, nullptr) << "seed " << seed << " cut " << boundary;
    ASSERT_NE(torn, nullptr) << "seed " << seed << " cut " << mid;
    std::set<std::string> alerted;
    for (const ServiceAlert& a : torn->ActiveAlerts()) {
      EXPECT_TRUE(alerted.insert(a.key).second) << "two alerts for " << a.key;
    }
    const std::string cut = Digest(*torn, {});
    const std::string line_end = Digest(*at_boundary, {});
    EXPECT_TRUE(cut == line_end)
        << "seed " << seed << ": a cut at byte " << mid
        << " differs from the line boundary at " << boundary
        << FirstDifference(cut, line_end);
  }
}

void RunSeeds(bool drain) {
  std::set<EventKind> kinds;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ArmSeededFaults(seed);
    Estate estate(std::to_string(seed) + (drain ? "_drain" : "_overlap"));
    ASSERT_NO_FATAL_FAILURE(estate.Start());
    for (int tick = 1; tick <= kTicks; ++tick) {
      if (tick % kReleaseEvery == 0) {
        for (const std::string& key : estate.live().QuarantinedKeys()) {
          ASSERT_TRUE(estate.live().ReleaseQuarantine(key).ok());
        }
      }
      // Without the per-tick drain, outcomes land on whichever later tick
      // finds them finished; a drain every third tick keeps the estate busy.
      ASSERT_NO_FATAL_FAILURE(estate.Tick(drain || tick % 3 == 0));
      ASSERT_NO_FATAL_FAILURE(estate.ExpectRecoveredEqualsLive(
          "seed " + std::to_string(seed) + " tick " + std::to_string(tick)));
    }
    ASSERT_NO_FATAL_FAILURE(CheckTornTails(&estate, seed));

    // A checkpoint after the run: snapshot-led recovery with an empty
    // suffix restores everything a snapshot holds.
    FaultInjector::Global().Reset();
    ASSERT_TRUE(estate.live().Checkpoint().ok());
    auto recovered = estate.Recover();
    ASSERT_NE(recovered, nullptr);
    DigestScope snapshot_scope;
    snapshot_scope.rollback_slot = false;
    snapshot_scope.quality = false;
    const std::string back = Digest(*recovered, snapshot_scope);
    const std::string live = Digest(estate.live(), snapshot_scope);
    EXPECT_TRUE(back == live) << "seed " << seed << FirstDifference(back, live);

    auto journal = ReadJournal(estate.journal_path());
    ASSERT_TRUE(journal.ok());
    for (const JournalEvent& event : *journal) kinds.insert(event.kind);
  }
  for (EventKind kind :
       {EventKind::kTick, EventKind::kFitOk, EventKind::kFitFail,
        EventKind::kQuarantine, EventKind::kRelease, EventKind::kAlert,
        EventKind::kAlertClear, EventKind::kSnapshot, EventKind::kQuality,
        EventKind::kPromotion, EventKind::kRollback}) {
    EXPECT_TRUE(kinds.count(kind) > 0)
        << EventKindName(kind) << " never occurred across the seeds";
  }
}

TEST_F(ReplayEquivalenceTest, RecoveredEqualsLiveWithRefitsDrainedEachTick) {
  RunSeeds(/*drain=*/true);
}

TEST_F(ReplayEquivalenceTest, RecoveredEqualsLiveWithOutcomesLandingLater) {
  RunSeeds(/*drain=*/false);
}

// A scripted fault schedule for a transition that random schedules reach
// only by chance: a rollback of a quarantined key. Every key's champion is
// replaced by a poisoned one at tick 3; its refits at ticks 5 and 6 fail
// and quarantine it; the rollback at tick 7 restores the old champion and
// moves only the due time, leaving the failures and the quarantine (the
// journalled rollback used to reset both on replay).
TEST_F(ReplayEquivalenceTest, RollbackOfAQuarantinedKey) {
  Estate estate("scripted");
  EstateServiceConfig& config = estate.config();
  config.staleness.max_age_seconds = 2 * kHour;    // refits at ticks 3, 5
  config.staleness.rmse_degradation_factor = 1e9;  // age-only refits
  config.guardrail.promotion_min_scored = 1000;    // every challenger wins
  config.guardrail.rollback_min_scored = 4;        // hours 4 to 7
  ASSERT_NO_FATAL_FAILURE(estate.Start());
  FaultInjector& faults = FaultInjector::Global();
  for (int tick = 1; tick <= 8; ++tick) {
    if (tick == 3) {
      faults.Arm("pipeline.poison_forecast", FaultPlan::FailForever());
    }
    if (tick == 4) faults.Disarm("pipeline.poison_forecast");
    if (tick == 5) faults.Arm("pipeline.run", FaultPlan::FailForever());
    ASSERT_NO_FATAL_FAILURE(estate.Tick(/*drain=*/true));
    ASSERT_NO_FATAL_FAILURE(
        estate.ExpectRecoveredEqualsLive("tick " + std::to_string(tick)));
  }
  const auto& telemetry = estate.live().telemetry();
  EXPECT_EQ(telemetry.quarantines.value(), telemetry.rollbacks.value());
  EXPECT_GT(telemetry.rollbacks.value(), 0u);
  for (const ScheduleEntry& e : estate.live().ScheduleEntries()) {
    EXPECT_TRUE(e.quarantined) << e.key;
    EXPECT_EQ(e.consecutive_failures, 2) << e.key;
  }
}

}  // namespace
}  // namespace capplan::service
