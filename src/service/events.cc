#include "service/events.h"

#include <type_traits>

#include "common/number_format.h"

namespace capplan::service {

namespace {

using Fields = std::vector<std::string>;
using Body = decltype(Event::body);

static_assert(std::variant_size_v<Body> ==
                  static_cast<std::size_t>(EventKind::kRollback) + 1,
              "one Event alternative per EventKind");

// The two directions of one field layout. Layout() below lists each
// event's fields once; FieldWriter appends them to a line and FieldReader
// parses them back, so the encoder and the decoder cannot disagree.
class FieldWriter {
 public:
  explicit FieldWriter(Fields* out) : out_(out) {}
  bool More() const { return true; }  // writes today's full layout
  void Str(const std::string& s) { out_->push_back(s); }
  void Literal(const char* s) { out_->push_back(s); }
  void Num(double v) { AppendDouble17(&out_->emplace_back(), v); }
  template <typename I>
  void Int(I v) {
    out_->push_back(std::to_string(v));
  }
  void List(const std::vector<double>& v) {
    out_->push_back(repo::EncodeCoefficients(v));
  }
  void Flag(bool v, const char* yes, const char* no) {
    out_->push_back(v ? yes : no);
  }
  void Level(core::DegradationLevel v) { Int(static_cast<int>(v)); }

 private:
  Fields* out_;
};

// Reads fields front to back. A missing field, one that does not parse and
// one left over at the end each fail the line.
class FieldReader {
 public:
  explicit FieldReader(const Fields& fields) : fields_(fields) {}
  bool More() const { return ok_ && next_ < fields_.size(); }
  void Str(std::string& s) {
    if (const std::string* f = Take()) s = *f;
  }
  void Literal(const char* s) {
    if (const std::string* f = Take()) Check(*f == s);
  }
  void Num(double& v) {
    if (const std::string* f = Take()) Check(ParseDouble(*f, &v));
  }
  template <typename I>
  void Int(I& v) {
    if (const std::string* f = Take()) Check(ParseInt(*f, &v));
  }
  void List(std::vector<double>& v) {
    const std::string* f = Take();
    if (f == nullptr) return;
    auto list = repo::DecodeCoefficients(*f);
    Check(list.ok());
    if (list.ok()) v = std::move(*list);
  }
  void Flag(bool& v, const char* yes, const char* no) {
    const std::string* f = Take();
    if (f == nullptr) return;
    v = *f == yes;
    Check(v || *f == no);
  }
  void Level(core::DegradationLevel& v) {
    int level = -1;
    Int(level);
    Check(level >= 0 &&
          level <= static_cast<int>(core::DegradationLevel::kBaseline));
    if (ok_) v = static_cast<core::DegradationLevel>(level);
  }
  Status Finish() const {
    if (bad_ != nullptr) {
      return Status::IoError("service: bad field '" + *bad_ + "'");
    }
    if (!ok_ || next_ != fields_.size()) {
      return Status::IoError("service: unexpected field count " +
                             std::to_string(fields_.size()));
    }
    return Status::OK();
  }

 private:
  const std::string* Take() {
    if (!ok_ || next_ == fields_.size()) {
      ok_ = false;
      return nullptr;
    }
    return &fields_[next_++];
  }
  void Check(bool parsed) {
    if (ok_ && !parsed) {
      ok_ = false;
      bad_ = &fields_[next_ - 1];
    }
  }

  const Fields& fields_;
  std::size_t next_ = 0;
  bool ok_ = true;
  const std::string* bad_ = nullptr;
};

// technique, spec, test rmse, test mape, fitted_at: the model fields that
// fit_ok and rollback lines share.
template <typename Io, typename Model>
void ModelFields(Io& io, Model& m) {
  io.Str(m.technique);
  io.Str(m.spec);
  io.Num(m.test_rmse);
  io.Num(m.test_mape);
  io.Int(m.fitted_at_epoch);
}

// start, step, level, mean, lower, upper: the forecast payload of fit_ok
// and rollback lines and of snapshot rows, each followed by the
// degradation level wherever the layout has one.
template <typename Io, typename Forecast>
void ForecastFields(Io& io, Forecast& fc) {
  io.Int(fc.start_epoch);
  io.Int(fc.step_seconds);
  io.Num(fc.forecast.level);
  io.List(fc.forecast.mean);
  io.List(fc.forecast.lower);
  io.List(fc.forecast.upper);
}

// The journal fields of every event kind. Kinds not listed (tick,
// quarantine, release, alert_clear, snapshot) have none.
template <typename Io, typename E>
void Layout(Io& io, E& e) {
  using T = std::remove_const_t<E>;
  if constexpr (std::is_same_v<T, FitOkEvent>) {
    ModelFields(io, e.model);
    ForecastFields(io, e.forecast);
    if (!io.More()) return;  // 11 fields: before the degradation ladder
    io.Level(e.forecast.degradation);
    io.Num(e.quality_score);
    if (!io.More()) return;  // 13: before champion lineage
    io.Int(e.model.generation);
    io.Int(e.model.promoted_at_epoch);
    if (!io.More()) return;  // 15: before these four
    io.List(e.model.ar_coef);
    io.List(e.model.ma_coef);
    io.List(e.model.periods);
    io.Num(e.demoted_live_mape);
  } else if constexpr (std::is_same_v<T, FitFailEvent>) {
    io.Int(e.consecutive_failures);
    io.Int(e.next_due);
    io.Str(e.message);
  } else if constexpr (std::is_same_v<T, AlertEvent>) {
    io.Flag(e.upper_only, "upper", "mean");
    io.Int(e.predicted_breach_epoch);
  } else if constexpr (std::is_same_v<T, QualityEvent>) {
    io.Num(e.report.score);
    io.Flag(e.report.trainable, "1", "0");
    io.Str(e.report.verdict);
  } else if constexpr (std::is_same_v<T, PromotionEvent>) {
    io.Literal("reject");
    io.Str(e.technique);
    io.Str(e.spec);
    io.Num(e.challenger_mape);
    io.Num(e.champion_live_mape);
    io.Int(e.next_due);
  } else if constexpr (std::is_same_v<T, RollbackEvent>) {
    ModelFields(io, e.model);
    io.Int(e.model.generation);
    io.Int(e.model.promoted_at_epoch);
    io.Num(e.model.live_mape);
    io.List(e.model.ar_coef);
    io.List(e.model.ma_coef);
    ForecastFields(io, e.forecast);
    io.Level(e.forecast.degradation);
    io.Int(e.next_due);
  }
}

template <std::size_t... I>
Body EmptyBody(EventKind kind, std::index_sequence<I...>) {
  Body body;
  ((static_cast<std::size_t>(kind) == I ? void(body.emplace<I>()) : void()),
   ...);
  return body;
}

}  // namespace

JournalEvent EncodeEvent(const Event& event) {
  JournalEvent line{event.epoch, event.kind(), event.key, {}, event.span_id};
  FieldWriter writer(&line.fields);
  std::visit([&writer](const auto& body) { Layout(writer, body); },
             event.body);
  return line;
}

Result<Event> DecodeEvent(const JournalEvent& line) {
  Event event{line.epoch, line.key, line.span_id,
              EmptyBody(line.kind,
                        std::make_index_sequence<std::variant_size_v<Body>>())};
  FieldReader reader(line.fields);
  std::visit([&reader](auto& body) { Layout(reader, body); }, event.body);
  CAPPLAN_RETURN_NOT_OK(reader.Finish());
  // What the line implies instead of holding.
  if (auto* fit = std::get_if<FitOkEvent>(&event.body)) {
    fit->model.key = line.key;
    fit->forecast.spec = fit->model.technique + " " + fit->model.spec;
  } else if (auto* rollback = std::get_if<RollbackEvent>(&event.body)) {
    rollback->model.key = line.key;
    rollback->forecast.spec =
        rollback->model.technique + " " + rollback->model.spec;
  } else if (auto* quality = std::get_if<QualityEvent>(&event.body)) {
    quality->report.key = line.key;
  }
  return event;
}

std::vector<std::string> EncodeForecastRow(const std::string& key,
                                           const CachedForecast& forecast) {
  Fields row = {key, forecast.spec};
  FieldWriter writer(&row);
  ForecastFields(writer, forecast);
  writer.Level(forecast.degradation);
  return row;
}

Result<std::pair<std::string, CachedForecast>> DecodeForecastRow(
    const std::vector<std::string>& row) {
  std::pair<std::string, CachedForecast> keyed;
  FieldReader reader(row);
  reader.Str(keyed.first);
  reader.Str(keyed.second.spec);
  ForecastFields(reader, keyed.second);
  // 8 columns: the layout from before the degradation ladder.
  if (reader.More()) reader.Level(keyed.second.degradation);
  CAPPLAN_RETURN_NOT_OK(reader.Finish());
  return keyed;
}

}  // namespace capplan::service
