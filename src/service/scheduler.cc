#include "service/scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/number_format.h"
#include "repo/csv.h"

namespace capplan::service {

namespace {

std::uint64_t Mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashKey(const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : key) {
    h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
        0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::int64_t RetryPolicy::BackoffFor(int failures) const {
  if (failures <= 0) return initial_backoff_seconds;
  double delay = static_cast<double>(initial_backoff_seconds) *
                 std::pow(backoff_multiplier, failures - 1);
  delay = std::min(delay, static_cast<double>(max_backoff_seconds));
  return static_cast<std::int64_t>(delay);
}

std::int64_t RetryPolicy::JitteredBackoffFor(const std::string& key,
                                             int failures) const {
  const std::int64_t base = BackoffFor(failures);
  if (backoff_jitter <= 0.0) return base;
  const std::uint64_t h =
      Mix64(jitter_seed ^ HashKey(key) ^
            Mix64(static_cast<std::uint64_t>(std::max(failures, 0))));
  // Uniform in [0, 1), then mapped to a multiplier in [1-j, 1+j].
  const double u = (static_cast<double>(h >> 11) + 0.5) / 9007199254740992.0;
  const double j = std::min(backoff_jitter, 0.999);
  const double factor = 1.0 - j + 2.0 * j * u;
  double delay = static_cast<double>(base) * factor;
  delay = std::min(delay, static_cast<double>(max_backoff_seconds));
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(delay));
}

void RetrainScheduler::Push(const std::string& key, std::int64_t due_epoch) {
  heap_.emplace(due_epoch, key);
}

void RetrainScheduler::ScheduleAt(const std::string& key,
                                  std::int64_t due_epoch) {
  ScheduleEntry& entry = entries_[key];
  entry.key = key;
  entry.due_epoch = due_epoch;
  Push(key, due_epoch);
}

void RetrainScheduler::PullForward(const std::string& key,
                                   std::int64_t due_epoch) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ScheduleAt(key, due_epoch);
    return;
  }
  if (due_epoch >= it->second.due_epoch) return;
  it->second.due_epoch = due_epoch;
  Push(key, due_epoch);
}

std::vector<std::string> RetrainScheduler::TakeDue(std::int64_t now_epoch) {
  std::vector<std::string> due;
  while (!heap_.empty() && heap_.top().first <= now_epoch) {
    const HeapItem item = heap_.top();
    heap_.pop();
    auto it = entries_.find(item.second);
    if (it == entries_.end()) continue;  // stale: key removed
    ScheduleEntry& entry = it->second;
    // Stale heap copy: the entry has since been rescheduled.
    if (entry.due_epoch != item.first) continue;
    if (entry.quarantined || entry.in_flight) continue;
    entry.in_flight = true;
    due.push_back(entry.key);
  }
  return due;
}

ScheduleEntry RetrainScheduler::AfterFailure(const std::string& key,
                                             std::int64_t now_epoch) const {
  ScheduleEntry entry = Get(key).value_or(ScheduleEntry{key});
  entry.in_flight = false;
  entry.consecutive_failures += 1;
  if (entry.consecutive_failures >= policy_.quarantine_after_failures) {
    entry.quarantined = true;  // keeps the due time it was dispatched at
  } else {
    entry.due_epoch =
        now_epoch + policy_.JitteredBackoffFor(key, entry.consecutive_failures);
  }
  return entry;
}

void RetrainScheduler::Defer(const std::string& key, std::int64_t due_epoch) {
  ScheduleEntry& entry = entries_[key];
  entry.key = key;
  entry.in_flight = false;
  entry.due_epoch = due_epoch;
  Push(key, due_epoch);
}

bool RetrainScheduler::IsQuarantined(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.quarantined;
}

std::vector<std::string> RetrainScheduler::QuarantinedKeys() const {
  std::vector<std::string> keys;
  for (const auto& [k, e] : entries_) {
    if (e.quarantined) keys.push_back(k);
  }
  return keys;
}

Result<ScheduleEntry> RetrainScheduler::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("scheduler: unknown key " + key);
  }
  return it->second;
}

std::vector<ScheduleEntry> RetrainScheduler::Entries() const {
  std::vector<ScheduleEntry> entries;
  entries.reserve(entries_.size());
  for (const auto& [_, e] : entries_) entries.push_back(e);
  return entries;
}

void RetrainScheduler::Restore(ScheduleEntry entry) {
  entry.in_flight = false;
  const std::string key = entry.key;
  entries_[key] = std::move(entry);
  if (!entries_[key].quarantined) Push(key, entries_[key].due_epoch);
}

Status RetrainScheduler::Save(const std::string& path) const {
  return SaveEntries(path, Entries());
}

Status RetrainScheduler::Load(const std::string& path) {
  CAPPLAN_ASSIGN_OR_RETURN(std::vector<ScheduleEntry> entries,
                           LoadEntries(path));
  for (auto& entry : entries) Restore(std::move(entry));
  return Status::OK();
}

Status RetrainScheduler::SaveEntries(const std::string& path,
                                     std::vector<ScheduleEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              return a.key < b.key;
            });
  repo::CsvTable table;
  table.header = {"key", "due_epoch", "consecutive_failures", "quarantined"};
  for (const auto& e : entries) {
    table.rows.push_back({e.key, std::to_string(e.due_epoch),
                          std::to_string(e.consecutive_failures),
                          e.quarantined ? "1" : "0"});
  }
  return repo::WriteCsv(path, table);
}

Result<std::vector<ScheduleEntry>> RetrainScheduler::LoadEntries(
    const std::string& path) {
  CAPPLAN_ASSIGN_OR_RETURN(repo::CsvTable table, repo::ReadCsv(path));
  if (table.header.size() != 4) {
    return Status::IoError("scheduler: unexpected column count in " + path);
  }
  std::vector<ScheduleEntry> entries;
  entries.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (row.size() != 4) {
      return Status::IoError("scheduler: malformed row in " + path);
    }
    ScheduleEntry entry;
    entry.key = row[0];
    if (!ParseInt(row[1], &entry.due_epoch) ||
        !ParseInt(row[2], &entry.consecutive_failures)) {
      return Status::IoError("scheduler: bad number in " + path);
    }
    entry.quarantined = row[3] == "1";
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace capplan::service
