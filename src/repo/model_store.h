#ifndef CAPPLAN_REPO_MODEL_STORE_H_
#define CAPPLAN_REPO_MODEL_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace capplan::repo {

// Metadata of a selected forecasting model, persisted in the central
// repository. "That model is then stored in a central repository and used
// for a period of one week or until the model's RMSE drops to a point where
// it is rendered useless" (paper Section 5.1).
struct StoredModel {
  std::string key;        // workload series key, e.g. "cdbm011/cpu"
  std::string technique;  // "ARIMA", "SARIMAX", "SARIMAX_FFT_EXOG", "HES"...
  std::string spec;       // order string, e.g. "(1,1,2)(1,1,1,24)"
  double test_rmse = 0.0;
  double test_mape = 0.0;
  std::int64_t fitted_at_epoch = 0;
  // Dense converged coefficients of the fitted (S)ARIMA(X) error model
  // (index i -> lag i+1); empty for non-ARIMA techniques. A refit of the
  // same series seeds its grid search from these (the selector's warm-start
  // hint), so they persist alongside the accuracy metadata.
  std::vector<double> ar_coef;
  std::vector<double> ma_coef;
  // Seasonal periods the selection subsystem detected for this series (in
  // observations, strongest first; ';'-joined in the CSV). Empty for
  // single-season series and for rows loaded from pre-periods registries.
  std::vector<double> periods;
  // Champion/challenger lineage. `generation` counts promotions for the key
  // (1 = first champion; 0 = pre-lineage row, e.g. a legacy CSV load);
  // `promoted_at_epoch` is when this model became champion; `live_mape` is
  // the champion's last observed rolling live MAPE in percent (negative =
  // never scored) — carried on the demoted model so a rollback knows the
  // accuracy bar the restored champion used to clear.
  int generation = 0;
  std::int64_t promoted_at_epoch = 0;
  double live_mape = -1.0;
};

// ';'-joined full-precision encoding of a coefficient vector, used for the
// ar_coef/ma_coef/periods CSV columns ("" = empty vector).
std::string EncodeCoefficients(const std::vector<double>& coef);
Result<std::vector<double>> DecodeCoefficients(const std::string& text);

// Technique strings the repository accepts in a registry row. Kept in sync
// with core::TechniqueName by tests/repo/model_store_test.cc (the repo layer
// sits below core, so the list is spelled out here rather than included).
// A row with any other string — e.g. one written by a future version — is
// skipped as a per-row load error instead of aborting the whole load.
bool IsKnownTechnique(const std::string& technique);

// Staleness policy parameters.
struct StalenessPolicy {
  // Retrain after this long regardless of accuracy (paper: one week).
  std::int64_t max_age_seconds = 7 * 24 * 3600;
  // Retrain when the live RMSE exceeds the stored test RMSE by this factor.
  double rmse_degradation_factor = 2.0;
};

class ModelRepository {
 public:
  explicit ModelRepository(StalenessPolicy policy = {}) : policy_(policy) {}

  // Inserts or replaces the model for its key. Lineage-neutral: the
  // rollback slot is untouched and no generation number is assigned — used
  // for raw loads and journal replay of pre-lineage events. New champions
  // go through Promote().
  void Put(const StoredModel& model);

  // Installs `model` as the champion for its key, demoting the current
  // champion (if any) into the key's single rollback slot. When
  // model.generation <= 0 the next generation number is assigned
  // (champion's + 1, or 1); a caller replaying a journalled promotion sets
  // it explicitly and it is preserved.
  void Promote(StoredModel model);

  // Reinstalls `model` (a rollback: the slot's model, or the journalled
  // kRollback payload) as champion, discarding the current one. The slot is
  // cleared — the discarded model is exactly what went bad, so it must
  // never be rolled back *to*; a second rollback needs a new promotion
  // first.
  void Reinstate(const StoredModel& model);

  bool HasPrevious(const std::string& key) const;
  Result<StoredModel> GetPrevious(const std::string& key) const;

  // Records the champion's current rolling live MAPE (percent) so a later
  // demotion carries it into the rollback slot. No-op for unknown keys.
  void UpdateLiveMape(const std::string& key, double live_mape);

  Result<StoredModel> Get(const std::string& key) const;
  bool Contains(const std::string& key) const;
  std::vector<std::string> Keys() const;
  std::size_t size() const { return models_.size(); }

  // True when the stored model for `key` should be refitted: it is missing,
  // older than the policy's max age, or `current_rmse` (the RMSE observed on
  // fresh data; pass a negative value when unknown) has degraded past the
  // policy factor.
  bool IsStale(const std::string& key, std::int64_t now_epoch,
               double current_rmse = -1.0) const;

  const StalenessPolicy& policy() const { return policy_; }

  // Outcome of a Load(): how many rows installed, and one message per row
  // that was skipped (malformed numbers, wrong width, unknown technique).
  struct LoadReport {
    std::size_t loaded = 0;
    std::vector<std::string> row_errors;
  };

  // CSV persistence of the registry. Load degrades per row: a malformed or
  // unknown-technique row is recorded in `report` (when given) and skipped,
  // so one bad row — including one written by a future version with a new
  // technique — cannot take out every other model. Only file-level problems
  // (unreadable file, unexpected header) fail the whole load.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path) { return Load(path, nullptr); }
  Status Load(const std::string& path, LoadReport* report);

 private:
  StalenessPolicy policy_;
  std::map<std::string, StoredModel> models_;
  // One generation of rollback lineage per key: the champion each key had
  // before its latest promotion. Deliberately not persisted in Save() —
  // promotions replay from the journal, and docs/robustness.md documents
  // that a freshly recovered estate has no rollback target until its next
  // promotion.
  std::map<std::string, StoredModel> previous_;
};

}  // namespace capplan::repo

#endif  // CAPPLAN_REPO_MODEL_STORE_H_
