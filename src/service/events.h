#ifndef CAPPLAN_SERVICE_EVENTS_H_
#define CAPPLAN_SERVICE_EVENTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/pipeline.h"
#include "models/model.h"
#include "quality/sentinel.h"
#include "repo/model_store.h"
#include "service/journal.h"

namespace capplan::service {

// The estate's state transitions as typed events, one struct per EventKind,
// each with one journal codec. EstateService::Apply is the only code that
// installs an event: the live path journals an event and applies it, and
// Recover() applies every decoded line of the journal suffix, so a
// recovered estate is the live one (docs/operations.md lists what the
// journal does not carry).

// A forecast the service serves for one key.
struct CachedForecast {
  models::Forecast forecast;
  std::int64_t start_epoch = 0;  // timestamp of forecast step 1
  std::int64_t step_seconds = 3600;
  std::string spec;  // "<technique> <spec>" of the model that produced it
  // Ladder rung that produced this forecast; consumers treat anything above
  // kFull as provisional capacity guidance.
  core::DegradationLevel degradation = core::DegradationLevel::kFull;
};

struct TickEvent {};  // the clock reached the event's epoch

// A refit installed as champion. A positive model.generation promotes it:
// the displaced champion, stamped with demoted_live_mape (percent; -1 = no
// live score), and its forecast become the key's rollback slot. Generation
// 0 (the pre-lineage layouts) installs it without touching the slot.
struct FitOkEvent {
  repo::StoredModel model;
  CachedForecast forecast;
  double quality_score = 1.0;
  double demoted_live_mape = -1.0;
};

struct FitFailEvent {
  int consecutive_failures = 0;
  std::int64_t next_due = -1;  // -1: this failure quarantined the key
  std::string message;
};

struct QuarantineEvent {};
struct ReleaseEvent {};

struct AlertEvent {
  bool upper_only = false;  // only the upper prediction bound crosses
  std::int64_t predicted_breach_epoch = 0;
};

struct AlertClearEvent {};
struct SnapshotEvent {};

// The sentinel's verdict on a refit's window. The line holds the score,
// the trainable flag and the verdict; the live event has the whole report.
struct QualityEvent {
  quality::QualityReport report;
};

// A challenger the promotion gate kept out; the champion stays.
struct PromotionEvent {
  std::string technique;
  std::string spec;
  double challenger_mape = 0.0;
  double champion_live_mape = -1.0;
  std::int64_t next_due = 0;
};

// The rollback slot restored as champion. The line does not hold the
// model's periods; Apply takes them from the slot when it holds this model.
struct RollbackEvent {
  repo::StoredModel model;
  CachedForecast forecast;
  std::int64_t next_due = -1;  // -1: the key has no schedule entry
};

struct Event {
  std::int64_t epoch = 0;
  std::string key;  // empty for tick and snapshot
  // Trace span of the decision; 0 lets the journal stamp the active span.
  std::uint64_t span_id = 0;
  // Alternatives in EventKind order.
  std::variant<TickEvent, FitOkEvent, FitFailEvent, QuarantineEvent,
               ReleaseEvent, AlertEvent, AlertClearEvent, SnapshotEvent,
               QualityEvent, PromotionEvent, RollbackEvent>
      body;

  EventKind kind() const { return static_cast<EventKind>(body.index()); }
};

// The journal line of `event`; fit_ok in its 19-field layout.
JournalEvent EncodeEvent(const Event& event);
// Reads every layout the service has written (fit_ok with 11, 13, 15 or 19
// fields). Any other field count, or a field that does not parse, is an
// error.
Result<Event> DecodeEvent(const JournalEvent& line);

// snapshot.forecasts.csv rows: key, spec, then the forecast payload of the
// fit_ok and rollback lines (start, step, level, mean, lower, upper,
// degradation). The decoder also reads the 8-column pre-ladder rows.
std::vector<std::string> EncodeForecastRow(const std::string& key,
                                           const CachedForecast& forecast);
Result<std::pair<std::string, CachedForecast>> DecodeForecastRow(
    const std::vector<std::string>& row);

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_EVENTS_H_
