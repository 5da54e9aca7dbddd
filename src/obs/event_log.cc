#include "obs/event_log.h"

namespace capplan::obs {

const char* WideEventKindName(WideEventKind kind) {
  switch (kind) {
    case WideEventKind::kHttpRequest:
      return "http_request";
    case WideEventKind::kRefit:
      return "refit";
    case WideEventKind::kPromotion:
      return "promotion";
    case WideEventKind::kRollback:
      return "rollback";
    case WideEventKind::kQualityRepair:
      return "quality_repair";
    case WideEventKind::kTickOverrun:
      return "tick_overrun";
    case WideEventKind::kStoreSeal:
      return "store_seal";
    case WideEventKind::kStoreFlush:
      return "store_flush";
  }
  return "unknown";
}

bool WideEventKindFromName(std::string_view name, WideEventKind* out) {
  static constexpr WideEventKind kAll[] = {
      WideEventKind::kHttpRequest,  WideEventKind::kRefit,
      WideEventKind::kPromotion,    WideEventKind::kRollback,
      WideEventKind::kQualityRepair, WideEventKind::kTickOverrun,
      WideEventKind::kStoreSeal,    WideEventKind::kStoreFlush,
  };
  for (WideEventKind k : kAll) {
    if (name == WideEventKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

EventLog& EventLog::Instance() {
  static EventLog* log = new EventLog();  // leaked: outlives all threads
  return *log;
}

std::uint64_t EventLog::Emit(WideEvent event) {
  if (!enabled()) return 0;
  event.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (event.tid == 0) event.tid = ThisThreadId();
  if (event.span_id == 0) event.span_id = CurrentSpanId();
  if (event.start_ns == 0) event.start_ns = NowNs();
  rings_.Push(event);
  return event.id;
}

}  // namespace capplan::obs
