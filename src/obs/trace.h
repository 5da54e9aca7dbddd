#ifndef CAPPLAN_OBS_TRACE_H_
#define CAPPLAN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/thread_ring.h"

namespace capplan::obs {

// Low-overhead tracing for answering "where did this refit spend its 40
// seconds?". RAII TraceSpans record complete events into per-thread ring
// buffers; the global Tracer drains every ring into one timeline that the
// Chrome-trace exporter (obs/export.h) turns into a chrome://tracing /
// Perfetto flame view of a whole service run.
//
// A TraceSpan is also the stage timer: it always stamps its start from
// NowNs(), and End() returns the elapsed milliseconds that feed the stage
// histograms and profiles, so spans and stage latencies share one clock.
//
// Cost model: with tracing disabled a span is one relaxed atomic load, a
// branch and its clock reads (one at construction, one in an explicit
// End(); safe to leave in per-candidate grid loops); enabled it adds a
// ~64-byte ring write behind an uncontended per-thread mutex — O(100ns).
// Rings are fixed-capacity and overwrite their oldest events when full
// (dropped() counts the overwrites).

struct TraceEvent {
  const char* name = "";      // static string: span site, e.g. "service.tick"
  const char* category = "";  // static string: subsystem, e.g. "service"
  const char* tag = nullptr;  // optional static annotation ("pruned", "ok")
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t span_id = 0;    // unique per span, 1-based
  std::uint64_t parent_id = 0;  // enclosing span on the same thread, 0 = root
  std::uint32_t tid = 0;        // ThisThreadId() of the recording thread
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  static Tracer& Instance();

  // Starts recording. `events_per_thread` caps each thread's ring; rings
  // grow lazily up to the cap, so idle threads cost nothing.
  void Enable(std::size_t events_per_thread = kDefaultRingCapacity) {
    rings_.Enable(events_per_thread);
  }
  // Stops recording. Events already buffered stay until Drain()/Clear().
  void Disable() { rings_.Disable(); }
  bool enabled() const { return rings_.enabled(); }

  // Collects and clears every thread's buffered events, sorted by start
  // time. Safe to call while other threads keep recording.
  std::vector<TraceEvent> Drain() { return rings_.Collect(/*clear=*/true); }
  void Clear() { (void)Drain(); }

  // Events overwritten because a ring was full, since the last Drain.
  std::uint64_t dropped() const { return rings_.dropped(); }
  // Overwrites since process start (never reset by Drain) — backs the
  // capplan_obs_trace_dropped_total metric.
  std::uint64_t total_dropped() const { return rings_.total_dropped(); }

 private:
  friend class TraceSpan;

  Tracer() = default;

  std::atomic<std::uint64_t> next_span_id_{0};
  ThreadRings<TraceEvent> rings_{kDefaultRingCapacity};
};

// Innermost active span id on the calling thread (0 when none). Journal
// events are stamped with this so a failure in the event log can be located
// in the trace timeline.
std::uint64_t CurrentSpanId();

// What a span measured. Copyable, so work timed on one thread can stamp a
// wide event that another thread emits later.
struct SpanTiming {
  std::uint64_t span_id = 0;   // 0 when tracing was off at the span's start
  std::uint64_t start_ns = 0;  // NowNs() at construction
  std::uint64_t dur_ns = 0;    // set by End()

  double ms() const { return static_cast<double>(dur_ns) / 1e6; }
};

// RAII span: construction stamps the start (and opens a trace span when
// tracing is enabled), End() or destruction closes it. Name/category/tag
// must be static strings — spans never allocate.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "task");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Annotates the event, e.g. the prune/ok/error outcome of a candidate.
  void set_tag(const char* tag) { tag_ = tag; }
  // Closes the span now instead of at scope exit and returns its duration
  // in milliseconds. Later calls, and the destructor, change nothing and
  // End() returns the same value again.
  double End();
  // 0 when tracing was disabled at construction; kept after End().
  std::uint64_t id() const { return timing_.span_id; }
  // Id, start and (after End()) duration, to stamp a wide event with.
  const SpanTiming& timing() const { return timing_; }

 private:
  const char* name_;
  const char* category_;
  const char* tag_ = nullptr;
  SpanTiming timing_;
  std::uint64_t parent_id_ = 0;
  bool open_ = true;
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_TRACE_H_
