#include "obs/trace.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace capplan::obs {
namespace {

// Deterministic monotonic clock: every read advances 1 microsecond, so a
// span's duration equals 1000 ns times the clock reads between open and
// close.
std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t FakeNow() { return g_fake_now.fetch_add(1000) + 1000; }

// The Tracer is a process-global singleton; every test starts from a
// disabled tracer with empty rings and the fake clock, and leaves it that
// way for unrelated suites in the same binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Disable();
    Tracer::Instance().Clear();
    g_fake_now.store(0);
    SetClockForTest(&FakeNow);
  }
  void TearDown() override {
    Tracer::Instance().Disable();
    Tracer::Instance().Clear();
    SetClockForTest(nullptr);
  }
};

TEST_F(TraceTest, DisabledSpansCostNothingAndRecordNothing) {
  {
    TraceSpan span("test.noop", "test");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(CurrentSpanId(), 0u);
  }
  EXPECT_TRUE(Tracer::Instance().Drain().empty());
}

TEST_F(TraceTest, RecordsACompleteEventWithDuration) {
  Tracer::Instance().Enable();
  std::uint64_t id = 0;
  {
    TraceSpan span("test.unit", "test");
    id = span.id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(CurrentSpanId(), id);
  }
  EXPECT_EQ(CurrentSpanId(), 0u);
  std::vector<TraceEvent> events = Tracer::Instance().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.unit");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_EQ(events[0].tag, nullptr);
  EXPECT_EQ(events[0].span_id, id);
  EXPECT_EQ(events[0].parent_id, 0u);
  // Exactly two clock reads: open and close.
  EXPECT_EQ(events[0].dur_ns, 1000u);
  EXPECT_NE(events[0].tid, 0u);
}

TEST_F(TraceTest, NestedSpansChainParentIds) {
  Tracer::Instance().Enable();
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    TraceSpan outer("test.outer", "test");
    outer_id = outer.id();
    {
      TraceSpan inner("test.inner", "test");
      inner_id = inner.id();
      EXPECT_EQ(CurrentSpanId(), inner_id);
    }
    EXPECT_EQ(CurrentSpanId(), outer_id);
  }
  std::vector<TraceEvent> events = Tracer::Instance().Drain();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(events[0].span_id, outer_id);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[1].span_id, inner_id);
  EXPECT_EQ(events[1].parent_id, outer_id);
}

TEST_F(TraceTest, EndClosesEarlyAndIsIdempotent) {
  Tracer::Instance().Enable();
  {
    TraceSpan span("test.staged", "test");
    span.End();
    EXPECT_EQ(CurrentSpanId(), 0u);  // popped at End, not at scope exit
    span.End();                      // no-op
  }  // destructor: also a no-op
  EXPECT_EQ(Tracer::Instance().Drain().size(), 1u);
}

TEST_F(TraceTest, TagAnnotatesTheEvent) {
  Tracer::Instance().Enable();
  {
    TraceSpan span("test.tagged", "test");
    span.set_tag("pruned");
  }
  std::vector<TraceEvent> events = Tracer::Instance().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].tag, "pruned");
}

TEST_F(TraceTest, SpanOpenAcrossDisableStillRecords) {
  Tracer::Instance().Enable();
  {
    TraceSpan span("test.straddle", "test");
    Tracer::Instance().Disable();
  }
  // The open half already happened; a hole in the timeline helps nobody.
  EXPECT_EQ(Tracer::Instance().Drain().size(), 1u);
}

TEST_F(TraceTest, DrainClearsAndSecondDrainIsEmpty) {
  Tracer::Instance().Enable();
  { TraceSpan span("test.once", "test"); }
  EXPECT_EQ(Tracer::Instance().Drain().size(), 1u);
  EXPECT_TRUE(Tracer::Instance().Drain().empty());
}

TEST_F(TraceTest, FullRingOverwritesOldestAndCountsDrops) {
  // The ring capacity is latched when a thread's ring is first created, so
  // the capped recording runs on a fresh thread.
  Tracer::Instance().Enable(/*events_per_thread=*/4);
  std::thread recorder([] {
    for (int i = 0; i < 6; ++i) {
      TraceSpan span("test.ring", "test");
    }
  });
  recorder.join();
  EXPECT_EQ(Tracer::Instance().dropped(), 2u);
  std::vector<TraceEvent> events = Tracer::Instance().Drain();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest-first.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].span_id, events[i - 1].span_id);
  }
  EXPECT_EQ(Tracer::Instance().dropped(), 0u);  // reset by the drain
}

TEST_F(TraceTest, DrainCollectsSpansFromPoolWorkers) {
  Tracer::Instance().Enable();
  constexpr std::size_t kTasks = 16;
  {
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [](std::size_t) {
      TraceSpan span("test.worker", "test");
    });
  }  // pool threads exit; their rings must still drain
  std::vector<TraceEvent> events = Tracer::Instance().Drain();
  ASSERT_EQ(events.size(), kTasks);
  std::set<std::uint64_t> ids;
  for (const TraceEvent& e : events) {
    ids.insert(e.span_id);
    EXPECT_STREQ(e.name, "test.worker");
  }
  EXPECT_EQ(ids.size(), kTasks);  // span ids are globally unique
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);  // one timeline
  }
}

}  // namespace
}  // namespace capplan::obs
