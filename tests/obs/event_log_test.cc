#include "obs/event_log.h"

#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "store/tiered_store.h"

namespace capplan::obs {
namespace {

// The EventLog is a process-wide singleton; every test starts from a known
// state and leaves the recorder disabled and empty for its neighbours.
class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::Instance().Disable();
    EventLog::Instance().Clear();
  }
  void TearDown() override {
    EventLog::Instance().Disable();
    EventLog::Instance().Clear();
    SetClockForTest(nullptr);
  }
};

WideEvent Event(WideEventKind kind, const char* key) {
  WideEvent ev;
  ev.kind = kind;
  ev.set_key(key);
  return ev;
}

TEST_F(EventLogTest, DisabledEmitIsANoOp) {
  EventLog& log = EventLog::Instance();
  EXPECT_EQ(log.Emit(Event(WideEventKind::kRefit, "k")), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST_F(EventLogTest, EmitAssignsMonotoneIdsAndFillsThreadId) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  const std::uint64_t a = log.Emit(Event(WideEventKind::kRefit, "a"));
  const std::uint64_t b = log.Emit(Event(WideEventKind::kPromotion, "b"));
  ASSERT_GT(a, 0u);
  EXPECT_GT(b, a);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, a);
  EXPECT_EQ(events[1].id, b);
  EXPECT_GT(events[0].tid, 0u);
  EXPECT_STREQ(events[0].key, "a");
}

TEST_F(EventLogTest, EmitStampsEnclosingTraceSpanWhenUnset) {
  Tracer::Instance().Enable();
  EventLog& log = EventLog::Instance();
  log.Enable();
  {
    TraceSpan span("test.work", "test");
    log.Emit(Event(WideEventKind::kRefit, "implicit"));
    WideEvent explicit_ev = Event(WideEventKind::kRefit, "explicit");
    explicit_ev.span_id = 777;
    log.Emit(explicit_ev);
    const auto events = log.Snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].span_id, span.id());
    EXPECT_EQ(events[1].span_id, 777u);
  }
  Tracer::Instance().Disable();
  Tracer::Instance().Clear();
}

TEST_F(EventLogTest, KeyTruncatesAtCapacityWithNulTermination) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  const std::string longest(200, 'x');
  log.Emit(Event(WideEventKind::kHttpRequest, longest.c_str()));
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].key), WideEvent::kKeyCapacity - 1);
}

TEST_F(EventLogTest, AttrsCapAtMaxAttrs) {
  WideEvent ev = Event(WideEventKind::kRefit, "k");
  for (int i = 0; i < 10; ++i) ev.AddAttr("a", static_cast<double>(i));
  EXPECT_EQ(ev.n_attrs, WideEvent::kMaxAttrs);
  EXPECT_EQ(ev.attrs[WideEvent::kMaxAttrs - 1].value,
            static_cast<double>(WideEvent::kMaxAttrs - 1));
}

TEST_F(EventLogTest, FullRingOverwritesOldestAndCountsDrops) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/4);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(log.Emit(Event(WideEventKind::kRefit, "k")));
  }
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first unwrap: the survivors are the last four emitted, in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].id, ids[6 + i]);
  }
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_GE(log.total_dropped(), 6u);
}

TEST_F(EventLogTest, SnapshotIsNonDestructiveDrainClears) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  log.Emit(Event(WideEventKind::kStoreSeal, "k"));
  EXPECT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot().size(), 1u);  // still there
  EXPECT_EQ(log.Drain().size(), 1u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST_F(EventLogTest, TotalDroppedSurvivesDrain) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/2);
  for (int i = 0; i < 5; ++i) log.Emit(Event(WideEventKind::kRefit, "k"));
  EXPECT_EQ(log.dropped(), 3u);
  const std::uint64_t total_before = log.total_dropped();
  (void)log.Drain();
  EXPECT_EQ(log.dropped(), 0u);  // per-drain counter reset
  EXPECT_EQ(log.total_dropped(), total_before);  // cumulative keeps going
}

TEST_F(EventLogTest, KindNamesRoundTrip) {
  const WideEventKind kinds[] = {
      WideEventKind::kHttpRequest, WideEventKind::kRefit,
      WideEventKind::kPromotion,   WideEventKind::kRollback,
      WideEventKind::kQualityRepair, WideEventKind::kTickOverrun,
      WideEventKind::kStoreSeal,   WideEventKind::kStoreFlush,
  };
  for (const WideEventKind kind : kinds) {
    WideEventKind parsed;
    ASSERT_TRUE(WideEventKindFromName(WideEventKindName(kind), &parsed))
        << WideEventKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  WideEventKind unused;
  EXPECT_FALSE(WideEventKindFromName("nope", &unused));
  EXPECT_FALSE(WideEventKindFromName("", &unused));
}

TEST_F(EventLogTest, InjectedClockDrivesTimestamps) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  SetClockForTest(+[]() -> std::uint64_t { return 123456789ull; });
  EXPECT_EQ(NowNs(), 123456789ull);
  // An event emitted without a start is stamped from the same clock.
  log.Emit(Event(WideEventKind::kPromotion, "instant"));
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_ns, 123456789ull);
  SetClockForTest(nullptr);
  EXPECT_GT(NowNs(), 0u);
}

// Spans and wide events share one thread numbering and one clock, so the
// tid that /v1/debug/events prints is the Chrome-trace tid of the same
// thread, and an event timed by a span carries the span's own timestamps.
TEST_F(EventLogTest, SpansAndWideEventsShareThreadIdAndClock) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();
  tracer.Clear();
  EventLog& log = EventLog::Instance();
  log.Enable();
  // Each pool thread records a span, then emits an event outside it. The
  // middle thread records a span only: with a thread counter per recorder,
  // the two counters would then disagree on the last thread.
  std::vector<std::uint32_t> span_tids;
  std::vector<std::uint32_t> event_tids;
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(1);
    pool.Submit([round] {
          { TraceSpan span("test.work", "test"); }
          if (round != 1) {
            EventLog::Instance().Emit(Event(WideEventKind::kRefit, "k"));
          }
        })
        .get();
    for (const TraceEvent& e : tracer.Drain()) span_tids.push_back(e.tid);
    for (const WideEvent& e : log.Drain()) event_tids.push_back(e.tid);
  }
  ASSERT_EQ(span_tids.size(), 3u);
  ASSERT_EQ(event_tids.size(), 2u);
  EXPECT_EQ(event_tids[0], span_tids[0]);
  EXPECT_EQ(event_tids[1], span_tids[2]);

  // One injected clock: the store.flush event is stamped from its span.
  static std::atomic<std::uint64_t> fake_now{0};
  SetClockForTest(+[]() -> std::uint64_t { return fake_now += 1000; });
  store::TieredStore store;
  store.GetOrCreate("k", 0, tsa::Frequency::kHourly).Append(1.0);
  ASSERT_TRUE(store.Flush(::testing::TempDir() + "/shared_clock.capseg").ok());
  const std::vector<TraceEvent> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "store.flush");
  const std::vector<WideEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WideEventKind::kStoreFlush);
  EXPECT_EQ(events[0].span_id, spans[0].span_id);
  EXPECT_EQ(events[0].tid, spans[0].tid);
  EXPECT_EQ(events[0].start_ns, spans[0].start_ns);
  EXPECT_EQ(events[0].dur_ns, spans[0].dur_ns);
  EXPECT_GT(events[0].dur_ns, 0u);
  tracer.Disable();
  tracer.Clear();
}

// Hammer for TSan: many pool threads emitting concurrently with snapshot
// readers and a drain. The assertions are deliberately coarse (no lost
// ids among survivors + drop accounting consistent); the point is that
// TSan sees concurrent Emit/Snapshot/Drain on shared rings.
TEST_F(EventLogTest, ConcurrentEmitSnapshotDrainFromThreadPool) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/256);
  constexpr int kJobs = 32;
  constexpr int kEventsPerJob = 200;

  ThreadPool pool(8);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = log.Snapshot();
      for (const WideEvent& e : snap) {
        ASSERT_GT(e.id, 0u);
      }
    }
  });

  std::vector<std::future<void>> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(pool.Submit([&log, j] {
      for (int i = 0; i < kEventsPerJob; ++i) {
        WideEvent ev;
        ev.kind = WideEventKind::kRefit;
        ev.set_key(("job/" + std::to_string(j)).c_str());
        ev.AddAttr("i", static_cast<double>(i));
        log.Emit(ev);
      }
    }));
  }
  for (auto& f : jobs) f.get();
  stop.store(true);
  reader.join();

  const auto events = log.Drain();
  std::set<std::uint64_t> ids;
  for (const WideEvent& e : events) ids.insert(e.id);
  EXPECT_EQ(ids.size(), events.size());  // ids unique across all rings
  EXPECT_EQ(events.size() + log.total_dropped(),
            static_cast<std::size_t>(kJobs) * kEventsPerJob);
}

}  // namespace
}  // namespace capplan::obs
