#include "spans.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

namespace capbench {

namespace {

thread_local std::vector<std::uint64_t> t_open;  // ids of this thread's open spans

}  // namespace

Spans::Scope::Scope(Spans* spans, const char* name)
    : spans_(spans), name_(name), start_(Clock::now()) {
  if (spans_->enabled_) {
    std::lock_guard<std::mutex> lock(spans_->mu_);
    id_ = spans_->next_id_++;
  }
  if (id_ != 0) {
    parent_ = t_open.empty() ? 0 : t_open.back();
    t_open.push_back(id_);
  }
}

double Spans::Scope::End() {
  if (ms_ >= 0.0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (id_ != 0) {
    t_open.pop_back();
    Record r;
    r.name = name_;
    r.id = id_;
    r.parent = parent_;
    r.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
    r.start_us = std::chrono::duration<double, std::micro>(start_ -
                                                           spans_->origin_)
                     .count();
    r.dur_us = ms_ * 1000.0;
    std::lock_guard<std::mutex> lock(spans_->mu_);
    spans_->records_.push_back(std::move(r));
  }
  return ms_;
}

std::map<std::string, Spans::Summary> Spans::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> child_us;  // parent id -> covered time
  for (const Record& r : records_) {
    if (r.parent != 0) child_us[r.parent] += r.dur_us;
  }
  std::map<std::string, Summary> out;
  for (const Record& r : records_) {
    Summary& s = out[r.name];
    ++s.count;
    s.total_ms += r.dur_us / 1000.0;
    const auto it = child_us.find(r.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    s.self_ms += std::max(0.0, r.dur_us - covered) / 1000.0;
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (r.thread % 100000)
        << ",\"ts\":" << r.start_us << ",\"dur\":" << r.dur_us
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace capbench
