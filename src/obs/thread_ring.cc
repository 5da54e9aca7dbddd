#include "obs/thread_ring.h"

#include <chrono>

namespace capplan::obs {

namespace {

std::atomic<ClockFn> g_clock{nullptr};
std::atomic<std::uint32_t> g_next_tid{0};

}  // namespace

std::uint64_t NowNs() {
  const ClockFn fn = g_clock.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetClockForTest(ClockFn fn) {
  g_clock.store(fn, std::memory_order_relaxed);
}

std::uint32_t ThisThreadId() {
  thread_local const std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

}  // namespace capplan::obs
