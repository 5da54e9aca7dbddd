#include "common/number_format.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <locale>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.h"
#include "repo/csv.h"
#include "service/journal.h"

namespace capplan {
namespace {

// The reference recipes, in printf/scanf terms, that the formatter must
// reproduce byte for byte: the shortest round-trip "%g" search of the JSON
// and Prometheus writers, and the "%.17g" of the journal, snapshot and CSV
// writers.
std::string ReferenceShortest(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec < 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Reference17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Shortest(double v) {
  std::string out;
  AppendShortestDouble(&out, v);
  return out;
}

std::string Double17(double v) {
  std::string out;
  AppendDouble17(&out, v);
  return out;
}

double FromBits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Compares both formatters with their references on every value; reports
// the first few mismatches in full and the total.
void ExpectMatchesReference(const std::vector<double>& values) {
  int mismatches = 0;
  for (double v : values) {
    const std::string shortest = Shortest(v);
    const std::string want_shortest = ReferenceShortest(v);
    const std::string d17 = Double17(v);
    const std::string want_d17 = Reference17(v);
    if (shortest == want_shortest && d17 == want_d17) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "value " << want_d17 << ": shortest '" << shortest
                    << "' want '" << want_shortest << "'; %.17g '" << d17
                    << "' want '" << want_d17 << "'";
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";
}

TEST(NumberFormatTest, RandomBitPatternsMatchPrintf) {
  // Every finite double is reachable: sign, full exponent range (subnormals
  // and zero included) and mantissa are drawn independently.
  std::mt19937_64 rng(20240611);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const double v = FromBits(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t sign = (rng() & 1) << 63;
    values.push_back(FromBits(sign | mantissa));  // subnormal or zero
  }
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(-std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::lowest());
  ExpectMatchesReference(values);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The parser reads back every "%.17g" the journal and snapshot writers
// emit, bit for bit: the 120k random patterns above (subnormals included),
// signed zeros, infinities and both NaN signs.
TEST(NumberParseTest, ReadsEveryDouble17BitExactly) {
  std::mt19937_64 rng(20261017);
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  for (int i = 0; i < 100000; ++i) {
    const double v = FromBits(rng());
    if (!std::isnan(v)) values.push_back(v);
  }
  for (int i = 0; i < 20000; ++i) {
    values.push_back(FromBits(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  int mismatches = 0;
  for (double v : values) {
    double back = 0.0;
    if (!ParseDouble(Double17(v), &back) || Bits(back) != Bits(v)) {
      if (++mismatches <= 5) ADD_FAILURE() << "'" << Double17(v) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";

  double v = 0.0;
  ASSERT_TRUE(ParseDouble("4.9406564584124654e-324", &v));
  EXPECT_EQ(Bits(v), 1u);  // std::stod throws out_of_range here
  ASSERT_TRUE(ParseDouble("-nan", &v));
  EXPECT_TRUE(std::isnan(v) && std::signbit(v));
  ASSERT_TRUE(ParseDouble("nan", &v));
  EXPECT_TRUE(std::isnan(v) && !std::signbit(v));
}

TEST(NumberParseTest, RejectsPartialEmptyAndOutOfRangeTokens) {
  double d = 7.0;
  for (const char* bad : {"1.5x", "", " 1", "1 ", "+1", "1e999", "-1e999",
                          "1e-400", "0x10", "1;2", "abc"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << "'" << bad << "'";
  }
  EXPECT_EQ(d, 7.0);  // untouched by a rejected token
  std::int64_t i = 7;
  for (const char* bad : {"", "12x", "+3", " 3", "1.0", "1e3",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(ParseInt(bad, &i)) << "'" << bad << "'";
  }
  EXPECT_EQ(i, 7);
  ASSERT_TRUE(ParseInt("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  int small = 0;
  EXPECT_FALSE(ParseInt("2147483648", &small));  // fits int64, not int
  ASSERT_TRUE(ParseInt("-17", &small));
  EXPECT_EQ(small, -17);
  std::uint64_t span = 0;
  ASSERT_TRUE(ParseInt("18446744073709551615", &span));
  EXPECT_EQ(span, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(ParseInt("-1", &span));
}

TEST(NumberFormatTest, ForecastLikeMagnitudesMatchPrintf) {
  // Utilisation percentages, IOPS and byte counts as forecasts produce them:
  // arithmetic results with full 17-digit mantissas, plus values rounded to
  // a few decimals the way a replayed journal or snapshot holds them.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values;
  for (double scale : {1.0, 100.0, 1e4, 1e6, 1e9, 1e12}) {
    for (int i = 0; i < 2000; ++i) {
      const double v = scale * unit(rng);
      values.push_back(v);
      values.push_back(-v);
      values.push_back(std::round(v * 100.0) / 100.0);
      values.push_back(std::round(v * 1e4) / 1e4);
    }
  }
  for (int i = 0; i < 200; ++i) {
    values.push_back(50.0 + 2.0 * i);
    values.push_back((50.0 + 2.0 * i) / 3.0);
    values.push_back(0.95 + i * 1e-3);
  }
  ExpectMatchesReference(values);
}

TEST(NumberFormatTest, ShortDecimalsAndTiesMatchPrintf) {
  std::vector<double> values = {0.0001, 0.125,  2.5,    100.5, 0.1,
                                0.2,    0.3,    0.1 + 0.2, 1.0 / 3, 2.0 / 3,
                                0.5,    1.5,    0.05,   0.25,  0.375,
                                1e-5,   1e-4,   9.5e-5, 0.00015, 123456.7,
                                -2.5e-7, 52879.49, 0.95, 0.0625, 1e-300};
  // k / 10^d and k / 2^d for short k: every one- to four-digit decimal,
  // and exact binary ties that "%.{p}g" must round half-to-even.
  for (int d = 1; d <= 6; ++d) {
    for (int k = 1; k < 10000; k += 7) {
      values.push_back(k / std::pow(10.0, d));
      values.push_back(-k / std::pow(10.0, d));
      values.push_back(k / std::pow(2.0, d));
    }
  }
  ExpectMatchesReference(values);
}

TEST(NumberFormatTest, PowersOfTwoAndNeighboursMatchPrintf) {
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    const double inf = std::numeric_limits<double>::infinity();
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, inf));
    values.push_back(-p);
  }
  ExpectMatchesReference(values);
}

TEST(NumberFormatTest, IntegralBoundaryMatchesPrintf) {
  // Integral values below 1e15 print as "%.0f"; from 1e15 on they go
  // through the "%g" search.
  const std::vector<double> values = {
      1e15,  -1e15, std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15),
      1e16,  1.5e16, 999999999999999.0, 123456789012345.0, 1e17, 1e21,
      1e22,  1e23,  -0.0, 0.0, 1.0, -1.0, 10.0, 4503599627370496.0,
      9007199254740993.0};
  ExpectMatchesReference(values);
  EXPECT_EQ(Shortest(1e15), "1e+15");
  EXPECT_EQ(Shortest(999999999999999.0), "999999999999999");
  EXPECT_EQ(Shortest(-0.0), "-0");
  EXPECT_EQ(Shortest(0.0001), "0.0001");  // to_chars(v) alone gives 1e-04
}

TEST(NumberFormatTest, NonFiniteValuesMatchPrintfOn17) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {inf, -inf, nan, -nan}) {
    EXPECT_EQ(Double17(v), Reference17(v));
  }
  EXPECT_EQ(Double17(inf), "inf");
  EXPECT_EQ(Double17(-inf), "-inf");
}

// A numpunct facet that groups thousands, the way some locales do. It is
// a custom facet, so the test needs no locale installed on the host.
class GroupingNumpunct : public std::numpunct<char> {
 protected:
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

// Installs a grouping global C++ locale for its lifetime.
class ScopedGroupingLocale {
 public:
  ScopedGroupingLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new GroupingNumpunct))) {}
  ~ScopedGroupingLocale() { std::locale::global(previous_); }
  ScopedGroupingLocale(const ScopedGroupingLocale&) = delete;
  ScopedGroupingLocale& operator=(const ScopedGroupingLocale&) = delete;

 private:
  std::locale previous_;
};

std::string JsonSample() {
  JsonWriter w(false);
  w.BeginObject();
  w.Integer("view_version", 1234567);
  w.Number("level", 1234567.0);
  w.Number("mean", 1234.5);
  w.EndObject();
  return w.Take();
}

service::JournalEvent JournalSample() {
  service::JournalEvent event{
      1700000000, service::EventKind::kTick, "", {"1234567"}};
  event.span_id = 123456789;
  return event;
}

std::string SeriesCsvSample(const std::string& path) {
  const tsa::TimeSeries series("cdbm011/cpu", 1700000000,
                               tsa::Frequency::kHourly, {1234.5, 2.0});
  EXPECT_TRUE(repo::WriteSeriesCsv(path, series).ok());
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(NumberFormatLocaleTest, TextFormatsIgnoreTheGlobalLocale) {
  const std::string dir = ::testing::TempDir();
  const std::string json = JsonSample();
  const std::string line = JournalSample().Serialize();
  const std::string csv = SeriesCsvSample(dir + "/locale_classic.csv");
  EXPECT_EQ(json, "{\"view_version\":1234567,\"level\":1234567,"
                  "\"mean\":1234.5}");
  EXPECT_EQ(line, "v2|1700000000|tick|123456789||1234567");

  ScopedGroupingLocale grouping;
  EXPECT_EQ(JsonSample(), json);
  EXPECT_EQ(JournalSample().Serialize(), line);
  auto parsed = service::JournalEvent::Parse(JournalSample().Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->epoch, 1700000000);
  EXPECT_EQ(parsed->span_id, 123456789u);

  const std::string path = dir + "/locale_grouping.csv";
  EXPECT_EQ(SeriesCsvSample(path), csv);
  auto series = repo::ReadSeriesCsv(path);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->start_epoch(), 1700000000);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ((*series)[0], 1234.5);
  std::filesystem::remove(dir + "/locale_classic.csv");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace capplan
