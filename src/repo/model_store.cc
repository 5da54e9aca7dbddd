#include "repo/model_store.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/number_format.h"
#include "repo/csv.h"

namespace capplan::repo {

void ModelRepository::Put(const StoredModel& model) {
  models_[model.key] = model;
}

void ModelRepository::Promote(StoredModel model) {
  auto it = models_.find(model.key);
  if (model.generation <= 0) {
    model.generation = it == models_.end() ? 1 : it->second.generation + 1;
  }
  if (it != models_.end()) {
    previous_[model.key] = it->second;
  }
  models_[model.key] = std::move(model);
}

void ModelRepository::Reinstate(const StoredModel& model) {
  models_[model.key] = model;
  previous_.erase(model.key);
}

bool ModelRepository::HasPrevious(const std::string& key) const {
  return previous_.count(key) > 0;
}

Result<StoredModel> ModelRepository::GetPrevious(const std::string& key) const {
  auto it = previous_.find(key);
  if (it == previous_.end()) {
    return Status::NotFound("ModelRepository: no rollback lineage for " + key);
  }
  return it->second;
}

void ModelRepository::UpdateLiveMape(const std::string& key, double live_mape) {
  auto it = models_.find(key);
  if (it != models_.end()) it->second.live_mape = live_mape;
}

Result<StoredModel> ModelRepository::Get(const std::string& key) const {
  auto it = models_.find(key);
  if (it == models_.end()) {
    return Status::NotFound("ModelRepository: no model for " + key);
  }
  return it->second;
}

bool ModelRepository::Contains(const std::string& key) const {
  return models_.count(key) > 0;
}

std::vector<std::string> ModelRepository::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(models_.size());
  for (const auto& [k, _] : models_) keys.push_back(k);
  return keys;
}

bool ModelRepository::IsStale(const std::string& key, std::int64_t now_epoch,
                              double current_rmse) const {
  auto it = models_.find(key);
  if (it == models_.end()) return true;
  const StoredModel& m = it->second;
  if (now_epoch - m.fitted_at_epoch > policy_.max_age_seconds) return true;
  if (current_rmse >= 0.0 && m.test_rmse > 0.0 &&
      current_rmse > policy_.rmse_degradation_factor * m.test_rmse) {
    return true;
  }
  return false;
}

std::string EncodeCoefficients(const std::vector<double>& coef) {
  std::string out;
  for (std::size_t i = 0; i < coef.size(); ++i) {
    if (i > 0) out += ';';
    AppendDouble17(&out, coef[i]);
  }
  return out;
}

Result<std::vector<double>> DecodeCoefficients(const std::string& text) {
  std::vector<double> out;
  if (text.empty()) return out;
  const std::string_view view = text;
  for (std::size_t pos = 0;;) {
    const std::size_t end = std::min(view.find(';', pos), view.size());
    double v = 0.0;
    if (!ParseDouble(view.substr(pos, end - pos), &v)) {
      return Status::IoError("DecodeCoefficients: bad number in: " + text);
    }
    out.push_back(v);
    if (end == view.size()) return out;
    pos = end + 1;
  }
}

bool IsKnownTechnique(const std::string& technique) {
  return technique == "ARIMA" || technique == "SARIMAX" ||
         technique == "SARIMAX_FFT_EXOG" || technique == "HES" ||
         technique == "TBATS" || technique == "BASELINE" ||
         technique == "AUTO";
}

Status ModelRepository::Save(const std::string& path) const {
  CAPPLAN_RETURN_NOT_OK(FaultHit("model_store.save"));
  CsvTable table;
  table.header = {"key",       "technique", "spec",    "test_rmse",
                  "test_mape", "fitted_at_epoch",      "ar_coef", "ma_coef",
                  "generation", "promoted_at_epoch",   "live_mape",
                  "periods"};
  for (const auto& [_, m] : models_) {
    std::string rmse, mape, live;
    AppendDouble17(&rmse, m.test_rmse);
    AppendDouble17(&mape, m.test_mape);
    AppendDouble17(&live, m.live_mape);
    table.rows.push_back({m.key, m.technique, m.spec, rmse, mape,
                          std::to_string(m.fitted_at_epoch),
                          EncodeCoefficients(m.ar_coef),
                          EncodeCoefficients(m.ma_coef),
                          std::to_string(m.generation),
                          std::to_string(m.promoted_at_epoch), live,
                          EncodeCoefficients(m.periods)});
  }
  return WriteCsv(path, table);
}

namespace {

// Parses one registry row (any of the tolerated layouts). Errors are
// per-row: the caller skips the row and keeps loading.
Result<StoredModel> ParseModelRow(const std::vector<std::string>& row) {
  StoredModel m;
  m.key = row[0];
  m.technique = row[1];
  m.spec = row[2];
  if (!IsKnownTechnique(m.technique)) {
    return Status::IoError("unknown technique '" + m.technique +
                           "' for key " + m.key);
  }
  if (!ParseDouble(row[3], &m.test_rmse) ||
      !ParseDouble(row[4], &m.test_mape) ||
      !ParseInt(row[5], &m.fitted_at_epoch)) {
    return Status::IoError("bad number for key " + m.key);
  }
  if (row.size() >= 8) {
    CAPPLAN_ASSIGN_OR_RETURN(m.ar_coef, DecodeCoefficients(row[6]));
    CAPPLAN_ASSIGN_OR_RETURN(m.ma_coef, DecodeCoefficients(row[7]));
  }
  if (row.size() >= 11 && (!ParseInt(row[8], &m.generation) ||
                            !ParseInt(row[9], &m.promoted_at_epoch) ||
                            !ParseDouble(row[10], &m.live_mape))) {
    return Status::IoError("bad lineage for key " + m.key);
  }
  if (row.size() >= 12) {
    CAPPLAN_ASSIGN_OR_RETURN(m.periods, DecodeCoefficients(row[11]));
  }
  return m;
}

}  // namespace

Status ModelRepository::Load(const std::string& path, LoadReport* report) {
  CAPPLAN_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path));
  // 6 columns = the pre-coefficient layout, 8 = pre-lineage, 11 =
  // pre-periods; all tolerated so existing registry files keep loading
  // (their models simply carry no warm-start hint / lineage / periods).
  if (table.header.size() != 6 && table.header.size() != 8 &&
      table.header.size() != 11 && table.header.size() != 12) {
    return Status::IoError("ModelRepository::Load: unexpected column count");
  }
  for (const auto& row : table.rows) {
    auto parsed = [&]() -> Result<StoredModel> {
      if (row.size() != table.header.size()) {
        return Status::IoError("malformed row (" +
                               std::to_string(row.size()) + " columns)" +
                               (row.empty() ? "" : " near key " + row[0]));
      }
      return ParseModelRow(row);
    }();
    if (!parsed.ok()) {
      if (report != nullptr) {
        report->row_errors.push_back(parsed.status().ToString());
      }
      continue;
    }
    models_[parsed->key] = std::move(*parsed);
    if (report != nullptr) ++report->loaded;
  }
  return Status::OK();
}

}  // namespace capplan::repo
