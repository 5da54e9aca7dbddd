#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "http_client.h"
#include "stats.h"

namespace capbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailOf, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99's nearest rank is 990, leaving exactly 10 beyond.
  Tail t = TailOf(Ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples leave only 9 beyond p99, so p95 is the tail.
  t = TailOf(Ramp(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
}

TEST(TailOf, SmallSamplesFallBackStepByStep) {
  EXPECT_EQ(TailOf(Ramp(200)).percentile, 95.0);
  EXPECT_EQ(TailOf(Ramp(199)).percentile, 90.0);
  EXPECT_EQ(TailOf(Ramp(100)).percentile, 90.0);
  EXPECT_EQ(TailOf(Ramp(40)).percentile, 75.0);
  EXPECT_EQ(TailOf(Ramp(40)).value, 30.0);
  const Tail few = TailOf(Ramp(12));
  EXPECT_EQ(few.percentile, 50.0);
  EXPECT_EQ(few.value, 6.5);  // the median
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(TailOf, IgnoresInputOrder) {
  std::vector<double> v = Ramp(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(TailOf(v).value, 990.0);
}

TEST(ZipfKeys, SameSeedSameSequence) {
  ZipfKeys a(300, 1.0, 1, 42);
  ZipfKeys b(300, 1.0, 1, 42);
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Hottest(), b.Hottest());
}

TEST(ZipfKeys, DrawSeedChangesSequenceNotHotKeys) {
  ZipfKeys a(300, 1.0, 1, 42);
  ZipfKeys b(300, 1.0, 1, 43);
  EXPECT_EQ(a.Hottest(), b.Hottest());
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 200);
  EXPECT_NE(ZipfKeys(300, 1.0, 2, 42).Hottest(), a.Hottest());
}

TEST(ZipfKeys, HeadIsHot) {
  ZipfKeys z(300, 1.0, 1, 7);
  std::vector<int> counts(300, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const std::size_t k = z.Next();
    ASSERT_LT(k, 300u);
    ++counts[k];
  }
  // Rank 1 carries 1 / H(300) ~ 15.9% of the draws.
  EXPECT_NEAR(static_cast<double>(counts[z.Hottest()]) / n, 0.159, 0.01);
}

TEST(OpsLedger, ThrottledRequestCountsAsFailed) {
  OpsLedger ledger;
  ledger.Request(true, 200);
  ledger.Request(true, 429);
  ledger.Request(true, 503);
  ledger.Request(false, 0);
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 3u);
  EXPECT_DOUBLE_EQ(ledger.FailedFrac(), 0.75);
}

TEST(OpsLedger, RefitsTicksAndMerge) {
  OpsLedger a;
  a.Refits(12, 1);  // one refit landed below the full rung
  a.Tick(true);
  a.Tick(false);
  OpsLedger b;
  b.Request(true, 200);
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 15u);
  EXPECT_EQ(a.failed(), 2u);
  EXPECT_EQ(OpsLedger().FailedFrac(), 0.0);
}

TEST(OpsLedger, AbsorbedWriteFailuresCountAsFailed) {
  OpsLedger ledger;
  ledger.Tick(true);  // Tick() still reports ok after a failed write
  ledger.Writes(40, 2);
  EXPECT_EQ(ledger.attempted(), 43u);
  EXPECT_EQ(ledger.failed(), 2u);
}

TEST(JsonIntField, ReadsViewVersion) {
  const std::string body = R"({"key":"cdbm011/cpu","view_version":37,"x":1})";
  EXPECT_EQ(JsonIntField(body, "view_version"), 37);
  EXPECT_EQ(JsonIntField(body, "version"), -1);
  EXPECT_EQ(JsonIntField(R"({"version":5})", "version"), 5);
}

}  // namespace
}  // namespace capbench
