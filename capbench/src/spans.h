#ifndef CAPBENCH_SPANS_H_
#define CAPBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace capbench {

// In-memory span recorder for the traced run. Spans are opened by the
// benchmark around its own calls into each layer (the library's internal
// spans are not used), kept in memory, and written out once at the end as a
// Chrome trace-event file. A disabled recorder still times each scope, so
// the untraced run measures with the same code minus the bookkeeping.
class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t thread = 0;
    double start_us = 0.0;  // since the recorder was created
    double dur_us = 0.0;
  };

  // One open span; ends at End() or destruction, whichever comes first.
  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Closes the span and returns its duration in milliseconds.
    double End();

   private:
    Spans* spans_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
    double ms_ = -1.0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // name -> {count, total ms, self ms}; self time is a span's duration minus
  // the part of it its child spans cover.
  struct Summary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> Summarize() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

}  // namespace capbench

#endif  // CAPBENCH_SPANS_H_
