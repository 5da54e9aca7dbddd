#ifndef CAPPLAN_SERVICE_JOURNAL_H_
#define CAPPLAN_SERVICE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"

namespace capplan::service {

// Append-only event journal — the durability backbone of the estate
// planning daemon. Every state transition that matters for recovery (clock
// ticks, fit outcomes, quarantines, alert raises/clears, snapshot markers)
// is appended as one line and flushed, so that after a crash the service can
// reload the last snapshot and replay the journal suffix to rebuild its
// schedule, model registry and alert state exactly.

enum class EventKind {
  kTick,        // clock advanced to `epoch`; no key
  kFitOk,       // fields: technique, spec, rmse, mape, fitted_at,
                //         fc_start, fc_step, level, mean, lower, upper
                //         (the last three ';'-joined), degradation,
                //         quality score, generation, promoted_at, ar_coef,
                //         ma_coef, periods (each ';'-joined), and the
                //         demoted champion's live MAPE (-1 = none): 19
                //         fields. Replay also reads the older 11-, 13- and
                //         15-field layouts (service/events.h).
  kFitFail,     // fields: consecutive_failures, next_due (-1 = quarantined),
                //         status message
  kQuarantine,  // key removed from the dispatch rotation
  kRelease,     // quarantined key put back into the rotation
  kAlert,       // fields: kind ("mean"|"upper"), predicted breach epoch
  kAlertClear,  // breach prognosis cleared
  kSnapshot,    // snapshot files written; replay starts after the last one
  kQuality,     // fields: score, trainable ("1"|"0"), verdict — the data-
                //         quality sentinel's view of the key's fit window
  kPromotion,   // guardrail promotion-gate verdict. fields: decision
                //         ("reject"), challenger technique, spec, challenger
                //         held-out MAPE, champion live MAPE, next_due.
                //         (Accepted challengers are journalled as kFitOk.)
  kRollback,    // champion rolled back to the previous generation. Carries
                //         the restored model (all but its periods) and
                //         forecast, and next_due: 18 fields, listed with
                //         every other layout in service/events.cc.
};

const char* EventKindName(EventKind kind);
Result<EventKind> ParseEventKind(const std::string& name);

struct JournalEvent {
  std::int64_t epoch = 0;  // simulated time of the event
  EventKind kind = EventKind::kTick;
  std::string key;         // subject series; empty for tick/snapshot
  std::vector<std::string> fields;
  // Trace span active when the event was journalled (obs::CurrentSpanId();
  // 0 = none). Links a journal line to the matching span in a Chrome-trace
  // dump, so a replayed failure can be located in the timeline. Declared
  // after `fields` to keep `{epoch, kind, key, {fields}}` initializers valid.
  std::uint64_t span_id = 0;

  // One line, 'v2|epoch|kind|span|key|field...'. Separator and newline
  // characters inside fields are replaced with '/' (model specs never
  // contain them). Parse also accepts the pre-trace 'v1|epoch|kind|key|...'
  // layout, yielding span_id 0.
  std::string Serialize() const;
  static Result<JournalEvent> Parse(const std::string& line);
};

// The append side. Each event is one write(2) of its whole line, so at most
// the final, torn line is lost on a crash. The journal remembers where its
// last whole line ends: after a failed or torn write it truncates the file
// back to there before the next append, so the next line starts on a line
// boundary instead of continuing the torn bytes. Open does the same for a
// torn tail a crash left behind.
class EventJournal {
 public:
  EventJournal() = default;
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;
  EventJournal(EventJournal&& other) noexcept;
  EventJournal& operator=(EventJournal&& other) noexcept;

  // Opens `path` for appending, creating it if absent.
  static Result<EventJournal> Open(const std::string& path);

  // Fails, writing nothing, when a torn tail cannot be truncated away.
  Status Append(const JournalEvent& event);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  void Close();

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t whole_bytes_ = 0;  // file length up to the last whole line
  bool torn_ = false;              // bytes past whole_bytes_ may exist
};

// Reads `path` in one pass and calls `on_event` with every well-formed
// event, in order; returns how many there were. A torn final line (crash
// during append: no terminating newline) is skipped even when its prefix
// parses; a malformed line followed by a well-formed one is an error; a
// missing file holds no events.
Result<std::uint64_t> ScanJournal(
    const std::string& path,
    const std::function<void(JournalEvent&& event)>& on_event);

// ScanJournal into a vector.
Result<std::vector<JournalEvent>> ReadJournal(const std::string& path);

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_JOURNAL_H_
