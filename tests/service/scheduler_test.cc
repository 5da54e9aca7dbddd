#include "service/scheduler.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace capplan::service {
namespace {

// Outcomes land the way EstateService::Apply records them: the entry a
// failure leaves (AfterFailure) or a success's next due time, via Restore.
bool Fail(RetrainScheduler* sched, const std::string& key, std::int64_t now) {
  const ScheduleEntry entry = sched->AfterFailure(key, now);
  sched->Restore(entry);
  return entry.quarantined;
}

void Succeed(RetrainScheduler* sched, const std::string& key,
             std::int64_t next_due) {
  sched->Restore({key, next_due});
}

TEST(RetryPolicyTest, BackoffProgressionIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 100;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_seconds = 1000;
  EXPECT_EQ(policy.BackoffFor(1), 100);
  EXPECT_EQ(policy.BackoffFor(2), 300);
  EXPECT_EQ(policy.BackoffFor(3), 900);
  EXPECT_EQ(policy.BackoffFor(4), 1000);  // capped
  EXPECT_EQ(policy.BackoffFor(9), 1000);
}

TEST(RetryPolicyTest, JitterDisabledByDefault) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 100;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_seconds = 1000;
  for (int f = 1; f <= 5; ++f) {
    EXPECT_EQ(policy.JitteredBackoffFor("any/key", f), policy.BackoffFor(f));
  }
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 1 << 20;
  policy.backoff_jitter = 0.25;
  for (int f = 1; f <= 6; ++f) {
    const std::int64_t base = policy.BackoffFor(f);
    const std::int64_t jittered = policy.JitteredBackoffFor("db01/cpu", f);
    // Same (seed, key, failures) -> same delay, every time.
    EXPECT_EQ(jittered, policy.JitteredBackoffFor("db01/cpu", f));
    EXPECT_GE(jittered, static_cast<std::int64_t>(0.74 * base));
    EXPECT_LE(jittered,
              std::min(static_cast<std::int64_t>(1.26 * base),
                       policy.max_backoff_seconds));
  }
}

TEST(RetryPolicyTest, JitterDecorrelatesKeys) {
  // The point of jitter: two keys quarantined by the same estate-wide
  // outage must not retry at the same instant.
  RetryPolicy policy;
  policy.initial_backoff_seconds = 100000;
  policy.backoff_jitter = 0.5;
  bool any_differ = false;
  for (int f = 1; f <= 4 && !any_differ; ++f) {
    any_differ = policy.JitteredBackoffFor("db01/cpu", f) !=
                 policy.JitteredBackoffFor("db02/cpu", f);
  }
  EXPECT_TRUE(any_differ);

  // A different seed reshuffles the schedule, deterministically.
  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = policy.jitter_seed + 1;
  bool seed_matters = false;
  for (int f = 1; f <= 4 && !seed_matters; ++f) {
    seed_matters = policy.JitteredBackoffFor("db01/cpu", f) !=
                   reseeded.JitteredBackoffFor("db01/cpu", f);
  }
  EXPECT_TRUE(seed_matters);
}

TEST(RetrainSchedulerTest, JitteredFailureRescheduleIsReproducible) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 10000;
  policy.backoff_jitter = 0.3;
  policy.quarantine_after_failures = 10;
  auto run = [&policy] {
    RetrainScheduler sched(policy);
    sched.ScheduleAt("a", 0);
    sched.TakeDue(0);
    Fail(&sched, "a", 0);
    return sched.Get("a")->due_epoch;
  };
  const std::int64_t first = run();
  EXPECT_EQ(first, run());  // bit-identical across scheduler instances
  EXPECT_GE(first, 7000);
  EXPECT_LE(first, 13000);
  // The jitter actually does something for this key somewhere on the ladder.
  bool any_jittered = false;
  for (int f = 1; f <= 5 && !any_jittered; ++f) {
    any_jittered =
        policy.JitteredBackoffFor("a", f) != policy.BackoffFor(f);
  }
  EXPECT_TRUE(any_jittered);
}

TEST(RetrainSchedulerTest, TakeDueReturnsDueKeysInOrder) {
  RetrainScheduler sched;
  sched.ScheduleAt("b", 200);
  sched.ScheduleAt("a", 100);
  sched.ScheduleAt("c", 900);
  auto due = sched.TakeDue(500);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], "a");
  EXPECT_EQ(due[1], "b");
  // "c" is not due yet.
  EXPECT_TRUE(sched.TakeDue(500).empty());
  auto later = sched.TakeDue(900);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0], "c");
}

TEST(RetrainSchedulerTest, InFlightKeysAreNotReDispatched) {
  RetrainScheduler sched;
  sched.ScheduleAt("a", 100);
  ASSERT_EQ(sched.TakeDue(100).size(), 1u);
  // Still due by time, but in flight: not returned again.
  EXPECT_TRUE(sched.TakeDue(100).empty());
  EXPECT_TRUE(sched.TakeDue(10000).empty());
  Succeed(&sched, "a", 5000);
  EXPECT_TRUE(sched.TakeDue(4999).empty());
  EXPECT_EQ(sched.TakeDue(5000).size(), 1u);
}

TEST(RetrainSchedulerTest, EntryKeepsDueTimeWhileInFlight) {
  // Crash-safety: a key taken for dispatch keeps its due time until an
  // outcome is reported, so a snapshot taken mid-flight re-dispatches it.
  RetrainScheduler sched;
  sched.ScheduleAt("a", 100);
  ASSERT_EQ(sched.TakeDue(100).size(), 1u);
  auto entry = sched.Get("a");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->due_epoch, 100);
  EXPECT_TRUE(entry->in_flight);
}

TEST(RetrainSchedulerTest, PullForwardOnlyMovesEarlier) {
  RetrainScheduler sched;
  sched.ScheduleAt("a", 500);
  sched.PullForward("a", 800);  // later: ignored
  EXPECT_EQ(sched.Get("a")->due_epoch, 500);
  sched.PullForward("a", 200);  // earlier: applied
  EXPECT_EQ(sched.Get("a")->due_epoch, 200);
  auto due = sched.TakeDue(200);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], "a");
  // The stale heap copy at 500 must not re-dispatch the key.
  Succeed(&sched, "a", 10000);
  EXPECT_TRUE(sched.TakeDue(500).empty());
}

TEST(RetrainSchedulerTest, FailuresBackOffThenQuarantine) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 1000;
  policy.quarantine_after_failures = 3;
  RetrainScheduler sched(policy);
  sched.ScheduleAt("a", 0);

  ASSERT_EQ(sched.TakeDue(0).size(), 1u);
  EXPECT_FALSE(Fail(&sched, "a", 0));
  EXPECT_EQ(sched.Get("a")->due_epoch, 10);  // 0 + initial backoff

  ASSERT_EQ(sched.TakeDue(10).size(), 1u);
  EXPECT_FALSE(Fail(&sched, "a", 10));
  EXPECT_EQ(sched.Get("a")->due_epoch, 30);  // 10 + 10*2

  ASSERT_EQ(sched.TakeDue(30).size(), 1u);
  EXPECT_TRUE(Fail(&sched, "a", 30));  // third failure quarantines
  EXPECT_TRUE(sched.IsQuarantined("a"));
  EXPECT_TRUE(sched.TakeDue(1000000).empty());
  ASSERT_EQ(sched.QuarantinedKeys().size(), 1u);
}

TEST(RetrainSchedulerTest, SuccessResetsFailureCount) {
  RetryPolicy policy;
  policy.quarantine_after_failures = 2;
  policy.initial_backoff_seconds = 10;
  RetrainScheduler sched(policy);
  sched.ScheduleAt("a", 0);
  ASSERT_EQ(sched.TakeDue(0).size(), 1u);
  EXPECT_FALSE(Fail(&sched, "a", 0));
  ASSERT_EQ(sched.TakeDue(10).size(), 1u);
  Succeed(&sched, "a", 20);
  EXPECT_EQ(sched.Get("a")->consecutive_failures, 0);
  // The reset means the next failure starts the ladder over.
  ASSERT_EQ(sched.TakeDue(20).size(), 1u);
  EXPECT_FALSE(Fail(&sched, "a", 20));
}

TEST(RetrainSchedulerTest, DeferPreservesFailureCount) {
  RetryPolicy policy;
  policy.quarantine_after_failures = 5;
  policy.initial_backoff_seconds = 10;
  RetrainScheduler sched(policy);
  sched.ScheduleAt("a", 0);
  ASSERT_EQ(sched.TakeDue(0).size(), 1u);
  EXPECT_FALSE(Fail(&sched, "a", 0));
  ASSERT_EQ(sched.TakeDue(10).size(), 1u);
  sched.Defer("a", 50);
  EXPECT_EQ(sched.Get("a")->consecutive_failures, 1);
  EXPECT_FALSE(sched.Get("a")->in_flight);
  EXPECT_EQ(sched.Get("a")->due_epoch, 50);
}

TEST(RetrainSchedulerTest, SaveLoadRoundTrip) {
  RetryPolicy policy;
  policy.quarantine_after_failures = 1;
  RetrainScheduler sched(policy);
  sched.ScheduleAt("healthy", 700);
  sched.ScheduleAt("failing", 0);
  ASSERT_EQ(sched.TakeDue(0).size(), 1u);
  EXPECT_TRUE(Fail(&sched, "failing", 0));

  const std::string path = ::testing::TempDir() + "/sched_roundtrip.csv";
  ASSERT_TRUE(sched.Save(path).ok());

  RetrainScheduler loaded(policy);
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Get("healthy")->due_epoch, 700);
  EXPECT_TRUE(loaded.IsQuarantined("failing"));
  EXPECT_EQ(loaded.Get("failing")->consecutive_failures, 1);
  // The quarantined key must not come back via the rebuilt heap.
  auto due = loaded.TakeDue(10000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], "healthy");
  std::remove(path.c_str());
}

TEST(RetrainSchedulerTest, RestoreClearsInFlight) {
  RetrainScheduler sched;
  ScheduleEntry entry;
  entry.key = "a";
  entry.due_epoch = 42;
  entry.in_flight = true;  // e.g. crashed mid-dispatch
  sched.Restore(entry);
  EXPECT_FALSE(sched.Get("a")->in_flight);
  EXPECT_EQ(sched.TakeDue(42).size(), 1u);
}

}  // namespace
}  // namespace capplan::service
