#ifndef CAPPLAN_OBS_EVENT_LOG_H_
#define CAPPLAN_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "obs/thread_ring.h"
#include "obs/trace.h"

namespace capplan::obs {

// Flight recorder: one *wide event* per unit of work, kept in bounded
// per-thread rings. Where a TraceSpan answers "where did the time go inside
// this operation?", a wide event answers "which operations happened, to
// which key, with what outcome?" — one self-contained record per HTTP
// request, refit, promotion/rollback, quality repair, tick overrun or store
// seal/flush, carrying the ids (span, journal seq) needed to pivot into the
// trace timeline and the journal. The /v1/debug/* handlers serve a merged
// snapshot of the rings, so the last few thousand units of work are always
// queryable on-box without any external pipeline.
//
// Cost model: disabled emission is one relaxed load and a branch; enabled it
// is one ~160-byte ring write behind an uncontended per-thread mutex, on the
// same per-thread rings as obs::Tracer. Rings overwrite their oldest events
// when full; dropped()/total_dropped() count the overwrites.

enum class WideEventKind : std::uint8_t {
  kHttpRequest = 0,
  kRefit,
  kPromotion,
  kRollback,
  kQualityRepair,
  kTickOverrun,
  kStoreSeal,
  kStoreFlush,
};

// Stable lowercase names ("http_request", "refit", ...) used by the JSON
// debug surface and its ?kind= filter.
const char* WideEventKindName(WideEventKind kind);
bool WideEventKindFromName(std::string_view name, WideEventKind* out);

struct WideEvent {
  static constexpr std::size_t kKeyCapacity = 64;  // incl. NUL, truncating
  static constexpr std::size_t kMaxAttrs = 6;

  struct Attr {
    const char* name = "";  // static string
    double value = 0.0;
  };

  std::uint64_t id = 0;  // assigned by Emit(), 1-based, monotone
  WideEventKind kind = WideEventKind::kHttpRequest;
  char key[kKeyCapacity] = {};  // "<instance>/<metric>" or request path
  std::int32_t shard = -1;      // -1 when not shard-scoped
  std::uint64_t span_id = 0;    // enclosing trace span, 0 = none
  std::uint64_t journal_seq = 0;  // journal append seq, 0 = not journalled
  std::uint64_t start_ns = 0;  // NowNs(), the trace spans' clock
  std::uint64_t dur_ns = 0;
  const char* outcome = "ok";  // static string: "ok", "error", "rejected"...
  std::uint32_t tid = 0;       // ThisThreadId(), as in trace spans
  std::uint8_t n_attrs = 0;
  Attr attrs[kMaxAttrs] = {};

  void set_key(std::string_view k) {
    const std::size_t n = k.size() < kKeyCapacity - 1 ? k.size()
                                                      : kKeyCapacity - 1;
    std::memcpy(key, k.data(), n);
    key[n] = '\0';
  }
  void AddAttr(const char* name, double value) {
    if (n_attrs < kMaxAttrs) attrs[n_attrs++] = {name, value};
  }
  // Stamps the span that timed this unit of work: its id, start and
  // duration.
  void set_timing(const SpanTiming& timing) {
    span_id = timing.span_id;
    start_ns = timing.start_ns;
    dur_ns = timing.dur_ns;
  }
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  static EventLog& Instance();

  void Enable(std::size_t events_per_thread = kDefaultRingCapacity) {
    rings_.Enable(events_per_thread);
  }
  void Disable() { rings_.Disable(); }
  bool enabled() const { return rings_.enabled(); }

  // Records `event` into the calling thread's ring. Assigns its id and
  // fills tid, span_id (the enclosing trace span) and start_ns (now) when
  // unset. Returns the assigned event id, 0 when disabled.
  std::uint64_t Emit(WideEvent event);

  // Merged copy of every ring, oldest first, rings left intact — the debug
  // handlers must not consume the recorder. Safe during concurrent Emits.
  std::vector<WideEvent> Snapshot() { return rings_.Collect(/*clear=*/false); }

  // Collects and clears every ring (same contract as Tracer::Drain).
  std::vector<WideEvent> Drain() { return rings_.Collect(/*clear=*/true); }
  void Clear() { (void)Drain(); }

  // Events overwritten because a ring was full: since the last Drain, and
  // cumulatively since process start (the `_total` metric source).
  std::uint64_t dropped() const { return rings_.dropped(); }
  std::uint64_t total_dropped() const { return rings_.total_dropped(); }

 private:
  EventLog() = default;

  std::atomic<std::uint64_t> next_id_{0};
  ThreadRings<WideEvent> rings_{kDefaultRingCapacity};
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_EVENT_LOG_H_
