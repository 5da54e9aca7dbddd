#ifndef CAPPLAN_OBS_THREAD_RING_H_
#define CAPPLAN_OBS_THREAD_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace capplan::obs {

// The one clock and the one thread numbering of the recorders: trace spans,
// wide events and the stage timings derived from spans all read NowNs(), and
// every record names its thread with ThisThreadId(), so a span and a wide
// event from the same work line up in time and by thread.

// Monotonic nanoseconds: steady_clock, unless a test installed a clock.
std::uint64_t NowNs();

// Injectable clock so tests see deterministic timestamps and durations;
// nullptr restores steady_clock.
using ClockFn = std::uint64_t (*)();
void SetClockForTest(ClockFn fn);

// Small per-thread id, 1-based, assigned at the thread's first call and
// stable for the life of the process.
std::uint32_t ThisThreadId();

// Bounded per-thread rings of fixed-size records behind an on/off switch:
// the recorder under both Tracer (spans) and EventLog (wide events). Each
// thread appends to its own ring behind an uncontended mutex; a full ring
// overwrites its oldest record and counts the overwrite. `T` needs a
// `start_ns` field, by which Collect orders the merged records.
template <typename T>
class ThreadRings {
 public:
  explicit ThreadRings(std::size_t default_capacity)
      : capacity_(default_capacity) {}

  ThreadRings(const ThreadRings&) = delete;
  ThreadRings& operator=(const ThreadRings&) = delete;

  // Starts recording. `per_thread` caps each ring; a thread's ring is made
  // at its first Push, so idle threads cost nothing and the cap applies to
  // rings made after this call.
  void Enable(std::size_t per_thread) {
    capacity_.store(std::max<std::size_t>(per_thread, 1),
                    std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
  // Stops recording. Buffered records stay until a clearing Collect.
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends to the calling thread's ring. Callers check enabled() first.
  void Push(const T& record) {
    Ring& ring = Local();
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.records.size() < ring.capacity) {
      ring.records.push_back(record);
      return;
    }
    ring.records[ring.next] = record;
    ring.next = (ring.next + 1) % ring.capacity;
    ++ring.dropped;
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  // Every ring's records, each ring oldest first, merged by start_ns. Safe
  // while other threads push. `clear` empties the rings, resets dropped()
  // and forgets the rings of threads that have exited.
  std::vector<T> Collect(bool clear) {
    std::vector<std::shared_ptr<Ring>> rings;
    {
      std::lock_guard<std::mutex> lock(rings_mu_);
      rings = rings_;
      if (clear) {
        // A ring whose thread has exited is referenced only by `rings_` and
        // the local copy; it is collected below and then forgotten.
        std::erase_if(rings_, [](const std::shared_ptr<Ring>& r) {
          return r.use_count() <= 2;
        });
      }
    }
    std::vector<T> out;
    for (const auto& ring : rings) {
      std::lock_guard<std::mutex> lock(ring->mu);
      // Oldest first: once wrapped, [next, end) precedes [0, next).
      out.insert(out.end(), ring->records.begin() + ring->next,
                 ring->records.end());
      out.insert(out.end(), ring->records.begin(),
                 ring->records.begin() + ring->next);
      if (clear) {
        ring->records.clear();
        ring->next = 0;
        ring->dropped = 0;
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return a.start_ns < b.start_ns;
    });
    return out;
  }

  // Records overwritten because a ring was full, since the last clearing
  // Collect.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(rings_mu_);
    std::uint64_t total = 0;
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      total += ring->dropped;
    }
    return total;
  }
  // Overwrites since process start, never reset.
  std::uint64_t total_dropped() const {
    return total_dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    std::mutex mu;
    std::vector<T> records;  // circular once size() == capacity
    std::size_t capacity = 1;
    std::size_t next = 0;  // overwrite cursor once full
    std::uint64_t dropped = 0;
  };

  Ring& Local() {
    // The calling thread's rings, one per ThreadRings object it pushed to.
    // This reference keeps a ring alive while its thread runs; the one in
    // `rings_` keeps its records collectable after the thread exits (pool
    // threads are short-lived) until the next clearing Collect.
    thread_local std::vector<std::pair<std::uint64_t, std::shared_ptr<Ring>>>
        mine;
    for (const auto& [serial, ring] : mine) {
      if (serial == serial_) return *ring;
    }
    auto ring = std::make_shared<Ring>();
    ring->capacity = capacity_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(rings_mu_);
      rings_.push_back(ring);
    }
    mine.emplace_back(serial_, ring);
    return *ring;
  }

  // Keys this object's entry in each thread's `mine`.
  static inline std::atomic<std::uint64_t> serials_{0};
  const std::uint64_t serial_ = serials_.fetch_add(1) + 1;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint64_t> total_dropped_{0};
  mutable std::mutex rings_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_THREAD_RING_H_
