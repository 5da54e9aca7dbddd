#ifndef CAPPLAN_SERVICE_SCHEDULER_H_
#define CAPPLAN_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace capplan::service {

// Retry/backoff knobs for failing refits. A key that keeps failing backs off
// exponentially and is eventually quarantined so one bad series cannot stall
// the estate's dispatch rotation.
struct RetryPolicy {
  std::int64_t initial_backoff_seconds = 3600;
  double backoff_multiplier = 2.0;
  std::int64_t max_backoff_seconds = 24 * 3600;
  int quarantine_after_failures = 4;  // consecutive failures
  // Jitter fraction in [0, 1). 0 keeps the exact exponential delays; a
  // positive value scales each delay by a factor in [1-j, 1+j] derived
  // deterministically from (jitter_seed, key, failures), so an estate-wide
  // outage does not make every key retry in lockstep while the schedule
  // stays reproducible run to run.
  double backoff_jitter = 0.0;
  std::uint64_t jitter_seed = 0x7265747279ULL;

  // Backoff delay after the `failures`-th consecutive failure (1-based).
  std::int64_t BackoffFor(int failures) const;
  // Per-key jittered delay; identical to BackoffFor when backoff_jitter == 0.
  std::int64_t JitteredBackoffFor(const std::string& key, int failures) const;
};

// One key's position in the retrain rotation (also the snapshot row format).
struct ScheduleEntry {
  std::string key;
  std::int64_t due_epoch = 0;
  int consecutive_failures = 0;
  bool quarantined = false;
  bool in_flight = false;  // dispatched, outcome pending; never persisted
};

// Due-time priority queue over the watched keys, driven by the staleness
// policy: the service schedules each key at `fitted_at + max_age`, pulls it
// forward when live RMSE degrades, and this class decides what to dispatch
// each tick. Entries taken by TakeDue keep their due time until an outcome
// is reported, so a crash between dispatch and completion re-dispatches the
// key on recovery.
class RetrainScheduler {
 public:
  explicit RetrainScheduler(RetryPolicy policy = {}) : policy_(policy) {}

  // Inserts `key` or moves its due time (either direction). Resets nothing
  // else; quarantined keys stay quarantined.
  void ScheduleAt(const std::string& key, std::int64_t due_epoch);

  // Moves `key`'s due time earlier; later times are ignored. Unknown keys
  // are inserted.
  void PullForward(const std::string& key, std::int64_t due_epoch);

  // Pops every key due at `now_epoch` (not quarantined, not already in
  // flight), marks it in flight, and returns the keys in due-time order.
  std::vector<std::string> TakeDue(std::int64_t now_epoch);

  // What a failed refit of `key` at `now_epoch` makes of its entry, without
  // changing anything: one more consecutive failure, then either due again
  // at now + backoff or quarantined (keeping its due time). Outcomes are
  // recorded with Restore.
  ScheduleEntry AfterFailure(const std::string& key,
                             std::int64_t now_epoch) const;
  // Releases an in-flight mark and reschedules without touching the failure
  // count (e.g. not enough history yet).
  void Defer(const std::string& key, std::int64_t due_epoch);

  bool IsQuarantined(const std::string& key) const;
  std::vector<std::string> QuarantinedKeys() const;

  Result<ScheduleEntry> Get(const std::string& key) const;
  std::vector<ScheduleEntry> Entries() const;  // key order
  std::size_t size() const { return entries_.size(); }

  // Overwrites the entry for `entry.key` (in_flight cleared): how outcomes,
  // releases and recovery set a key's schedule.
  void Restore(ScheduleEntry entry);

  const RetryPolicy& policy() const { return policy_; }

  // CSV snapshot of every entry (in_flight is not persisted).
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  // Snapshot I/O over an explicit entry list, for callers that merge or
  // split schedules across several schedulers (the sharded estate service
  // saves one CSV for all shards and routes rows back by key hash on load).
  // Entries are written sorted by key; the format matches Save/Load.
  static Status SaveEntries(const std::string& path,
                            std::vector<ScheduleEntry> entries);
  static Result<std::vector<ScheduleEntry>> LoadEntries(
      const std::string& path);

 private:
  void Push(const std::string& key, std::int64_t due_epoch);

  RetryPolicy policy_;
  std::map<std::string, ScheduleEntry> entries_;
  // Min-heap with lazy invalidation: stale pairs are skipped when popped.
  using HeapItem = std::pair<std::int64_t, std::string>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<HeapItem>>
      heap_;
};

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_SCHEDULER_H_
