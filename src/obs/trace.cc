#include "obs/trace.h"

namespace capplan::obs {

namespace {

// Innermost open span per thread; spans nest strictly (RAII), so a plain
// stack of ids is enough to give children their parent.
struct SpanStack {
  std::vector<std::uint64_t> ids;
};

SpanStack& ThisThreadSpans() {
  thread_local SpanStack stack;
  return stack;
}

}  // namespace

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all threads
  return *tracer;
}

std::uint64_t CurrentSpanId() {
  const SpanStack& stack = ThisThreadSpans();
  return stack.ids.empty() ? 0 : stack.ids.back();
}

TraceSpan::TraceSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  Tracer& tracer = Tracer::Instance();
  if (tracer.enabled()) {
    timing_.span_id =
        tracer.next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    parent_id_ = CurrentSpanId();
    ThisThreadSpans().ids.push_back(timing_.span_id);
  }
  timing_.start_ns = NowNs();
}

// An untraced span nobody ended has nothing to report: skip its clock read.
TraceSpan::~TraceSpan() {
  if (timing_.span_id != 0) End();
}

double TraceSpan::End() {
  if (open_) {
    open_ = false;
    const std::uint64_t end_ns = NowNs();
    timing_.dur_ns =
        end_ns >= timing_.start_ns ? end_ns - timing_.start_ns : 0;
    if (timing_.span_id != 0) {
      SpanStack& stack = ThisThreadSpans();
      if (!stack.ids.empty() && stack.ids.back() == timing_.span_id) {
        stack.ids.pop_back();
      }
      TraceEvent event;
      event.name = name_;
      event.category = category_;
      event.tag = tag_;
      event.start_ns = timing_.start_ns;
      event.dur_ns = timing_.dur_ns;
      event.span_id = timing_.span_id;
      event.parent_id = parent_id_;
      event.tid = ThisThreadId();
      // Record even if tracing was disabled mid-span: the open event is
      // more useful than a hole in the timeline.
      Tracer::Instance().rings_.Push(event);
    }
  }
  return timing_.ms();
}

}  // namespace capplan::obs
