#include "obs/thread_ring.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/trace.h"

namespace capplan::obs {
namespace {

// The ring mechanics, once per record type the recorders keep. Records are
// told apart by span_id; start_ns orders the merged collection.
template <typename T>
class ThreadRingTest : public ::testing::Test {
 protected:
  static T Record(std::uint64_t id, std::uint64_t start_ns) {
    T r;
    r.span_id = id;
    r.start_ns = start_ns;
    return r;
  }
  static std::vector<std::uint64_t> Ids(const std::vector<T>& records) {
    std::vector<std::uint64_t> ids;
    for (const T& r : records) ids.push_back(r.span_id);
    return ids;
  }
};

using RecordTypes = ::testing::Types<TraceEvent, WideEvent>;
TYPED_TEST_SUITE(ThreadRingTest, RecordTypes);

TYPED_TEST(ThreadRingTest, FullRingOverwritesOldestAndCountsDrops) {
  ThreadRings<TypeParam> rings(/*default_capacity=*/8);
  rings.Enable(/*per_thread=*/4);
  for (std::uint64_t i = 1; i <= 6; ++i) rings.Push(this->Record(i, 0));
  EXPECT_EQ(rings.dropped(), 2u);
  EXPECT_EQ(rings.total_dropped(), 2u);
  // The survivors are the newest four, oldest first.
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/false)),
            (std::vector<std::uint64_t>{3, 4, 5, 6}));
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{3, 4, 5, 6}));
  EXPECT_EQ(rings.dropped(), 0u);        // reset by the clearing collect
  EXPECT_EQ(rings.total_dropped(), 2u);  // cumulative keeps going
  EXPECT_TRUE(rings.Collect(/*clear=*/true).empty());
}

TYPED_TEST(ThreadRingTest, CapacityIsLatchedWhenAThreadsRingIsMade) {
  ThreadRings<TypeParam> rings(/*default_capacity=*/2);
  for (std::uint64_t i = 1; i <= 3; ++i) rings.Push(this->Record(i, 0));
  rings.Enable(/*per_thread=*/16);  // too late for this thread's ring
  rings.Push(this->Record(4, 0));
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{3, 4}));
  std::thread fresh([&rings, this] {
    for (std::uint64_t i = 5; i <= 8; ++i) rings.Push(this->Record(i, 0));
  });
  fresh.join();
  EXPECT_EQ(rings.Collect(/*clear=*/true).size(), 4u);
}

TYPED_TEST(ThreadRingTest, CollectMergesThreadsByStartAndOutlivesThem) {
  ThreadRings<TypeParam> rings(/*default_capacity=*/8);
  rings.Push(this->Record(1, 30));
  std::thread other([&rings, this] {
    rings.Push(this->Record(2, 10));
    rings.Push(this->Record(3, 40));
  });
  other.join();  // its ring stays collectable after the thread exits
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/false)),
            (std::vector<std::uint64_t>{2, 1, 3}));
  EXPECT_EQ(rings.Collect(/*clear=*/true).size(), 3u);
  rings.Push(this->Record(4, 0));
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{4}));
}

TYPED_TEST(ThreadRingTest, EachObjectKeepsItsOwnRings) {
  ThreadRings<TypeParam> a(/*default_capacity=*/8);
  a.Push(this->Record(1, 0));
  {
    ThreadRings<TypeParam> b(/*default_capacity=*/8);
    b.Push(this->Record(2, 0));
    EXPECT_EQ(this->Ids(b.Collect(/*clear=*/true)),
              (std::vector<std::uint64_t>{2}));
  }
  // A new object (possibly at the destroyed one's address) starts empty.
  ThreadRings<TypeParam> c(/*default_capacity=*/8);
  EXPECT_TRUE(c.Collect(/*clear=*/true).empty());
  c.Push(this->Record(3, 0));
  EXPECT_EQ(this->Ids(c.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(this->Ids(a.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{1}));
}

TYPED_TEST(ThreadRingTest, EnableAndDisableFlipTheSwitch) {
  ThreadRings<TypeParam> rings(/*default_capacity=*/8);
  EXPECT_FALSE(rings.enabled());
  rings.Enable(/*per_thread=*/0);  // clamped to one record per ring
  EXPECT_TRUE(rings.enabled());
  rings.Push(this->Record(1, 0));
  rings.Push(this->Record(2, 0));
  EXPECT_EQ(this->Ids(rings.Collect(/*clear=*/true)),
            (std::vector<std::uint64_t>{2}));
  rings.Disable();
  EXPECT_FALSE(rings.enabled());
}

}  // namespace
}  // namespace capplan::obs
