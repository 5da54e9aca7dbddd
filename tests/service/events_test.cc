#include "service/events.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace capplan::service {
namespace {

constexpr std::int64_t kNow = 1700000000;

repo::StoredModel Model(const std::string& key) {
  repo::StoredModel m;
  m.key = key;
  m.technique = "SARIMAX";
  m.spec = "(1,1,1)(0,1,1,24)";
  m.test_rmse = 0.30000000000000004;
  m.test_mape = 12.345;
  m.fitted_at_epoch = kNow - 3600;
  m.ar_coef = {0.5, -0.25};
  m.ma_coef = {0.125};
  m.periods = {24.0, 168.0};
  m.generation = 3;
  m.promoted_at_epoch = kNow;
  m.live_mape = 4.5;
  return m;
}

CachedForecast Forecast(const repo::StoredModel& m, std::size_t steps) {
  CachedForecast fc;
  fc.start_epoch = kNow + 3600;
  fc.step_seconds = 3600;
  fc.spec = m.technique + " " + m.spec;
  fc.degradation = core::DegradationLevel::kHesOnly;
  for (std::size_t i = 0; i < steps; ++i) {
    const double v = 40.0 + 7.5 * static_cast<double>(i % 24) / 3.0;
    fc.forecast.mean.push_back(v);
    fc.forecast.lower.push_back(v - 4.25);
    fc.forecast.upper.push_back(v + 4.0000000000000009);
  }
  fc.forecast.level = 0.95;
  return fc;
}

// One event of every kind, as the live service builds them.
std::vector<Event> EveryKind(std::size_t steps) {
  const std::string key = "cdbm011/cpu";
  const repo::StoredModel m = Model(key);
  FitOkEvent fit{m, Forecast(m, steps), 0.875, 2.5};
  fit.model.live_mape = -1.0;  // a fresh champion has no live score
  repo::StoredModel restored = m;
  restored.periods.clear();  // the rollback line does not carry them
  quality::QualityReport report;
  report.key = key;
  report.score = 0.75;
  report.trainable = false;
  report.verdict = "missing=12;long_outages=1";
  return {
      {kNow, "", 0, TickEvent{}},
      {kNow, key, 42, fit},
      {kNow, key, 42, FitFailEvent{2, kNow + 3600, "IoError: fit blew up"}},
      {kNow, key, 42, FitFailEvent{4, -1, "IoError: fit blew up"}},
      {kNow, key, 42, QuarantineEvent{}},
      {kNow, key, 0, ReleaseEvent{}},
      {kNow, key, 0, AlertEvent{true, kNow + 7200}},
      {kNow, key, 0, AlertEvent{false, kNow + 3600}},
      {kNow, key, 0, AlertClearEvent{}},
      {kNow, "", 0, SnapshotEvent{}},
      {kNow, key, 42, QualityEvent{report}},
      {kNow, key, 42, PromotionEvent{"HES", "ETS(A,A,A)[24]", 1e6, 3.25,
                                     kNow + 7 * 86400}},
      {kNow, key, 7, RollbackEvent{restored, Forecast(m, steps), kNow}},
  };
}

std::string Line(const Event& event) { return EncodeEvent(event).Serialize(); }

// Decodes a journal line, or returns the rejecting status.
Result<Event> DecodeLine(const std::string& text) {
  auto line = JournalEvent::Parse(text);
  if (!line.ok()) return line.status();
  return DecodeEvent(*line);
}

TEST(EventCodecTest, EveryKindRoundTripsThroughItsLine) {
  for (const Event& event : EveryKind(48)) {
    const std::string line = Line(event);
    auto back = DecodeLine(line);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << " for " << line;
    EXPECT_EQ(back->kind(), event.kind());
    EXPECT_EQ(back->epoch, event.epoch);
    EXPECT_EQ(back->key, event.key);
    EXPECT_EQ(back->span_id, event.span_id);
    EXPECT_EQ(Line(*back), line);
  }
}

TEST(EventCodecTest, FitOkCarriesLineageCoefficientsPeriodsAndDemotedMape) {
  const Event event = EveryKind(3)[1];
  const JournalEvent line = EncodeEvent(event);
  ASSERT_EQ(line.fields.size(), 19u);
  EXPECT_EQ(line.fields[15], "0.5;-0.25");
  EXPECT_EQ(line.fields[16], "0.125");
  EXPECT_EQ(line.fields[17], "24;168");
  EXPECT_EQ(line.fields[18], "2.5");
  auto back = DecodeEvent(line);
  ASSERT_TRUE(back.ok());
  const auto& fit = std::get<FitOkEvent>(back->body);
  EXPECT_EQ(fit.model.key, "cdbm011/cpu");
  EXPECT_EQ(fit.model.ar_coef, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(fit.model.ma_coef, (std::vector<double>{0.125}));
  EXPECT_EQ(fit.model.periods, (std::vector<double>{24.0, 168.0}));
  EXPECT_EQ(fit.model.generation, 3);
  EXPECT_EQ(fit.demoted_live_mape, 2.5);
  EXPECT_EQ(fit.forecast.spec, "SARIMAX (1,1,1)(0,1,1,24)");
  EXPECT_EQ(fit.forecast.degradation, core::DegradationLevel::kHesOnly);
}

// The 11-, 13- and 15-field fit_ok layouts are prefixes of today's 19.
TEST(EventCodecTest, FitOkReadsEveryLegacyLayout) {
  const JournalEvent full = EncodeEvent(EveryKind(3)[1]);
  for (std::size_t n : {11u, 13u, 15u}) {
    JournalEvent legacy = full;
    legacy.fields.resize(n);
    auto back = DecodeEvent(legacy);
    ASSERT_TRUE(back.ok()) << n << ": " << back.status().ToString();
    const auto& fit = std::get<FitOkEvent>(back->body);
    EXPECT_EQ(fit.forecast.forecast.mean.size(), 3u);
    EXPECT_TRUE(fit.model.ar_coef.empty());
    EXPECT_TRUE(fit.model.periods.empty());
    EXPECT_EQ(fit.demoted_live_mape, -1.0);
    // Only the lineage layouts promote; older lines install without it.
    EXPECT_EQ(fit.model.generation, n == 15 ? 3 : 0) << n;
    EXPECT_EQ(fit.forecast.degradation, n == 11
                                            ? core::DegradationLevel::kFull
                                            : core::DegradationLevel::kHesOnly);
  }
  for (std::size_t n : {10u, 12u, 14u, 16u, 18u, 20u}) {
    JournalEvent bad = full;
    bad.fields.resize(n);
    EXPECT_FALSE(DecodeEvent(bad).ok()) << n;
  }
}

TEST(EventCodecTest, RejectsMalformedFields) {
  for (const char* line :
       {"v2|1|tick|0||extra", "v2|1|alert|0|k|sideways|5",
        "v2|1|alert|0|k|mean", "v2|1|quality|0|k|0.5|yes|ok",
        "v2|1|promotion|0|k|accept|HES|x|1|2|3",
        "v2|1|fit_fail|0|k|two|5|msg", "v2|1|fit_fail|0|k|2|5.5|msg",
        "v2|1|quarantine|0|k|2", "v2|1|rollback|0|k|HES"}) {
    EXPECT_FALSE(DecodeLine(line).ok()) << line;
  }
  JournalEvent fit = EncodeEvent(EveryKind(3)[1]);
  fit.fields[11] = "4";  // no such ladder rung
  EXPECT_FALSE(DecodeEvent(fit).ok());
  fit.fields[11] = "1";
  fit.fields[8] = "1;;2";
  EXPECT_FALSE(DecodeEvent(fit).ok());
}

TEST(EventCodecTest, ForecastRowRoundTripsAndReadsThePreLadderLayout) {
  const CachedForecast fc = Forecast(Model("k"), 5);
  const std::vector<std::string> row = EncodeForecastRow("k", fc);
  ASSERT_EQ(row.size(), 9u);
  auto back = DecodeForecastRow(row);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->first, "k");
  EXPECT_EQ(EncodeForecastRow(back->first, back->second), row);

  std::vector<std::string> legacy = row;
  legacy.pop_back();
  auto old = DecodeForecastRow(legacy);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->second.degradation, core::DegradationLevel::kFull);
  EXPECT_EQ(old->second.forecast.upper, fc.forecast.upper);
  legacy.pop_back();
  EXPECT_FALSE(DecodeForecastRow(legacy).ok());
}

// Seeded mutational fuzzing of the decoders of untrusted bytes: journal
// lines (JournalEvent::Parse, then DecodeEvent) and snapshot forecast rows.
// Every input either decodes or is rejected with a Status, and every event
// that decodes re-encodes to a line that decodes to the same event.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const int n = 1 + static_cast<int>(Below(4));
    for (int i = 0; i < n; ++i) MutateOnce(&s);
    return s;
  }

  std::size_t Below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

 private:
  void MutateOnce(std::string* s) {
    const std::size_t at = Below(s->size() + 1);
    switch (Below(7)) {
      case 0:  // byte flip
        if (!s->empty()) (*s)[Below(s->size())] ^= static_cast<char>(1 << Below(8));
        break;
      case 1:  // truncation
        s->resize(at);
        break;
      case 2:  // separator insert
        s->insert(at, 1, "|;,\n"[Below(4)]);
        break;
      case 3: {  // separator delete
        const std::size_t pos = s->find_first_of("|;", at);
        if (pos != std::string::npos) s->erase(pos, 1);
        break;
      }
      case 4: {  // digit run
        std::string digits(1 + Below(30), '0');
        for (char& c : digits) c = static_cast<char>('0' + Below(10));
        s->insert(at, digits);
        break;
      }
      case 5:  // huge or tiny exponent
        s->insert(at, Below(2) ? "e99999" : "e-400");
        break;
      default:  // a special token
        s->insert(at, std::vector<std::string>{"nan", "-inf", "-", ".", "+",
                                               "4.9406564584124654e-324",
                                               "18446744073709551616"}[Below(7)]);
        break;
    }
  }

  std::mt19937_64 rng_;
};

TEST(EventDecodeFuzzTest, JournalLinesDecodeOrFailWithStatus) {
  std::vector<std::string> seeds;
  for (const Event& event : EveryKind(24)) seeds.push_back(Line(event));
  const JournalEvent full = EncodeEvent(EveryKind(24)[1]);
  for (std::size_t n : {11u, 13u, 15u}) {
    JournalEvent legacy = full;
    legacy.fields.resize(n);
    seeds.push_back(legacy.Serialize());
  }
  seeds.push_back("v1|1700000000|alert|cdbm011/cpu|mean|1700003600");

  Mutator mutator(20261017);
  std::size_t accepted = 0;
  constexpr int kInputs = 60000;
  for (int i = 0; i < kInputs; ++i) {
    const std::string input =
        mutator.Mutate(seeds[mutator.Below(seeds.size())]);
    auto event = DecodeLine(input);
    if (!event.ok()) {
      EXPECT_FALSE(event.status().message().empty());
      continue;
    }
    ++accepted;
    const std::string line = Line(*event);
    auto again = DecodeLine(line);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\ninput: "
                            << input << "\nre-encoded: " << line;
    ASSERT_EQ(Line(*again), line) << "input: " << input;
  }
  // The mutations must leave enough lines intact to test the re-encoding.
  EXPECT_GT(accepted, static_cast<std::size_t>(kInputs / 20));
}

TEST(EventDecodeFuzzTest, ForecastRowsDecodeOrFailWithStatus) {
  const std::vector<std::string> seed =
      EncodeForecastRow("cdbm011/cpu", Forecast(Model("cdbm011/cpu"), 24));
  std::vector<std::string> legacy = seed;
  legacy.pop_back();
  Mutator mutator(7);
  std::size_t accepted = 0;
  constexpr int kInputs = 60000;
  for (int i = 0; i < kInputs; ++i) {
    std::vector<std::string> row = mutator.Below(2) ? seed : legacy;
    // Mutate one or two fields; sometimes add or drop a column.
    for (std::size_t k = 0, n = 1 + mutator.Below(2); k < n; ++k) {
      std::string& field = row[mutator.Below(row.size())];
      field = mutator.Mutate(field);
    }
    if (mutator.Below(10) == 0) row.push_back("0");
    if (mutator.Below(10) == 0) row.pop_back();
    auto decoded = DecodeForecastRow(row);
    if (!decoded.ok()) continue;
    ++accepted;
    const std::vector<std::string> encoded =
        EncodeForecastRow(decoded->first, decoded->second);
    auto again = DecodeForecastRow(encoded);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_EQ(EncodeForecastRow(again->first, again->second), encoded);
  }
  EXPECT_GT(accepted, static_cast<std::size_t>(kInputs / 20));
}

}  // namespace
}  // namespace capplan::service
