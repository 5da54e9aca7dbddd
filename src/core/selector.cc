#include "core/selector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "common/fault.h"
#include "models/arima.h"
#include "models/regression.h"
#include "obs/trace.h"

namespace capplan::core {

namespace {

// Warm chains are split into segments of this many candidates; warm-start
// propagation is strictly sequential within a segment and never crosses
// segments, so the set of (seed, candidate) pairs — and with it every fitted
// coefficient — is independent of thread count and scheduling.
constexpr std::size_t kWarmSegment = 8;

// The fast path re-scores this many candidates beyond keep_top with the
// oracle Evaluate, absorbing warm-start rank noise (~1e-6 in RMSE) near the
// keep boundary. The early-abort bound protects the same widened pool.
constexpr std::size_t kRescoreMargin = 3;

std::vector<std::vector<double>> TakeColumns(
    const std::vector<std::vector<double>>& cols, std::size_t k) {
  std::vector<std::vector<double>> out;
  out.reserve(std::min(k, cols.size()));
  for (std::size_t i = 0; i < k && i < cols.size(); ++i) {
    out.push_back(cols[i]);
  }
  return out;
}

// Shared per-(exog, fourier) state: the OLS stage computed once and a
// transform cache over the residual series every candidate in the group
// fits its SARIMA error model on. Plain-ARIMA candidates form a group with
// sarimax == false whose cache is built over the raw training series.
struct OlsGroup {
  bool sarimax = false;
  std::size_t n_exog = 0;  // effective column count (capped by availability)
  std::vector<tsa::FourierSpec> fourier;
  Status ols_status = Status::OK();
  models::OlsFit ols;
  std::unique_ptr<models::ArimaFitCache> cache;
};

// Thread-safe, monotonically tightening bound on the K-th best test SSE seen
// so far. A candidate whose running SSE exceeds Current() at any moment is
// provably outside the final top K, because the bound only ever decreases.
class PruneBound {
 public:
  explicit PruneBound(std::size_t k) : k_(std::max<std::size_t>(1, k)) {}

  double Current() {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
    return heap_.front();
  }

  void Offer(double sse) {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) {
      heap_.push_back(sse);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (sse < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = sse;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

 private:
  const std::size_t k_;
  std::mutex mu_;
  std::vector<double> heap_;  // max-heap of the K smallest SSEs
};

struct FastOutcome {
  EvaluatedCandidate ev;
  bool fitted = false;       // fit succeeded (even if scoring was pruned)
  std::vector<double> ar;    // converged dense coefficients, for propagation
  std::vector<double> ma;
};

// One candidate through the fast path: cached/warm fit, mean-only scoring
// with the early-abort bound, full intervals only for survivors.
FastOutcome EvaluateFast(const ModelCandidate& candidate,
                         const std::vector<double>& train,
                         const std::vector<double>& test,
                         const std::vector<std::vector<double>>& exog_train,
                         const std::vector<std::vector<double>>& exog_test,
                         OlsGroup* group, const ModelSelector::Options& opts,
                         const std::vector<double>& warm_ar,
                         const std::vector<double>& warm_ma,
                         PruneBound* bound) {
  obs::TraceSpan span("selector.candidate", "selector");
  FastOutcome out;
  out.ev.candidate = candidate;
  const std::size_t horizon = test.size();

  auto fail = [&](const Status& st) {
    span.set_tag("error");
    out.ev.ok = false;
    out.ev.error = st.ToString();
    return out;
  };

  models::ArimaModel::Options fit_opts;
  if (opts.warm_start) {
    fit_opts.init_ar = warm_ar;
    fit_opts.init_ma = warm_ma;
  }

  models::ArimaModel arima;                     // fitted (when !sarimax)
  std::optional<models::SarimaxModel> sarimax;  // fitted (when sarimax)
  double aic = 0.0;
  if (!group->sarimax) {
    if (opts.shared_transforms) fit_opts.cache = group->cache.get();
    auto model = models::ArimaModel::Fit(train, candidate.spec, fit_opts);
    if (!model.ok()) return fail(model.status());
    arima = std::move(*model);
    out.fitted = true;
    out.ar = arima.ar_coefficients();
    out.ma = arima.ma_coefficients();
    aic = arima.summary().aic;
  } else {
    auto model = [&]() -> Result<models::SarimaxModel> {
      if (!opts.shared_transforms) {
        return models::SarimaxModel::Fit(
            train, candidate.spec, TakeColumns(exog_train, candidate.n_exog),
            candidate.fourier, fit_opts);
      }
      if (!group->ols_status.ok()) return group->ols_status;
      fit_opts.cache = group->cache.get();
      return models::SarimaxModel::FitWithSharedOls(
          train.size(), group->ols, group->n_exog, candidate.fourier,
          candidate.spec, fit_opts);
    }();
    if (!model.ok()) return fail(model.status());
    sarimax = std::move(*model);
    out.fitted = true;
    out.ar = sarimax->error_model().ar_coefficients();
    out.ma = sarimax->error_model().ma_coefficients();
    aic = sarimax->summary().aic;
  }

  const std::vector<std::vector<double>> exog_cols =
      group->sarimax ? TakeColumns(exog_test, candidate.n_exog)
                     : std::vector<std::vector<double>>();

  if (opts.early_abort) {
    // Score the mean forecast first; the psi-weight interval expansion is
    // deferred until the candidate has survived the bound.
    auto mean = group->sarimax ? sarimax->PredictMean(horizon, exog_cols)
                               : arima.PredictMean(horizon);
    if (!mean.ok()) return fail(mean.status());
    for (double v : *mean) {
      if (!std::isfinite(v)) {
        return fail(Status::ComputeError("non-finite forecast"));
      }
    }
    const double limit = bound->Current() * (1.0 + 1e-9);
    double running = 0.0;
    for (std::size_t t = 0; t < horizon; ++t) {
      const double e = test[t] - (*mean)[t];
      running += e * e;
      if (running > limit) {
        span.set_tag("pruned");
        out.ev.pruned = true;
        out.ev.error = "pruned: partial test SSE exceeded the top-k bound";
        return out;
      }
    }
    bound->Offer(running);
  }

  auto f = group->sarimax ? sarimax->Predict(horizon, exog_cols)
                          : arima.Predict(horizon);
  if (!f.ok()) return fail(f.status());
  models::Forecast fc = std::move(*f);
  for (double v : fc.mean) {
    if (!std::isfinite(v)) {
      return fail(Status::ComputeError("non-finite forecast"));
    }
  }
  auto acc = tsa::MeasureAccuracy(test, fc.mean);
  if (!acc.ok()) return fail(acc.status());
  span.set_tag("ok");
  out.ev.ok = true;
  out.ev.accuracy = *acc;
  out.ev.aic = aic;
  out.ev.test_forecast = std::move(fc);
  return out;
}

}  // namespace

std::size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  return std::clamp<std::size_t>(n, 1, 32);
}

EvaluatedCandidate ModelSelector::Evaluate(
    const ModelCandidate& candidate, const std::vector<double>& train,
    const std::vector<double>& test,
    const std::vector<std::vector<double>>& exog_train,
    const std::vector<std::vector<double>>& exog_test) {
  obs::TraceSpan span("selector.candidate", "selector");
  EvaluatedCandidate ev;
  ev.candidate = candidate;
  const std::size_t horizon = test.size();

  auto fail = [&](const Status& st) {
    span.set_tag("error");
    ev.ok = false;
    ev.error = st.ToString();
    return ev;
  };

  models::Forecast fc;
  double aic = 0.0;
  if (candidate.n_exog == 0 && candidate.fourier.empty()) {
    // Plain (S)ARIMA.
    auto model = models::ArimaModel::Fit(train, candidate.spec);
    if (!model.ok()) return fail(model.status());
    auto f = model->Predict(horizon);
    if (!f.ok()) return fail(f.status());
    fc = std::move(*f);
    aic = model->summary().aic;
  } else {
    auto model = models::SarimaxModel::Fit(
        train, candidate.spec, TakeColumns(exog_train, candidate.n_exog),
        candidate.fourier);
    if (!model.ok()) return fail(model.status());
    auto f = model->Predict(horizon, TakeColumns(exog_test, candidate.n_exog));
    if (!f.ok()) return fail(f.status());
    fc = std::move(*f);
    aic = model->summary().aic;
  }
  for (double v : fc.mean) {
    if (!std::isfinite(v)) {
      return fail(Status::ComputeError("non-finite forecast"));
    }
  }
  auto acc = tsa::MeasureAccuracy(test, fc.mean);
  if (!acc.ok()) return fail(acc.status());
  span.set_tag("ok");
  ev.ok = true;
  ev.accuracy = *acc;
  ev.aic = aic;
  ev.test_forecast = std::move(fc);
  return ev;
}

Result<SelectionResult> ModelSelector::Select(
    const std::vector<double>& train, const std::vector<double>& test,
    const std::vector<ModelCandidate>& candidates,
    const std::vector<std::vector<double>>& exog_train,
    const std::vector<std::vector<double>>& exog_test) const {
  CAPPLAN_RETURN_NOT_OK(FaultHit("selector.grid"));
  if (candidates.empty()) {
    return Status::InvalidArgument("ModelSelector: no candidates");
  }
  if (train.empty() || test.empty()) {
    return Status::InvalidArgument("ModelSelector: empty train/test window");
  }
  for (const auto& col : exog_train) {
    if (col.size() != train.size()) {
      return Status::InvalidArgument(
          "ModelSelector: exog_train column length mismatch");
    }
  }
  for (const auto& col : exog_test) {
    if (col.size() != test.size()) {
      return Status::InvalidArgument(
          "ModelSelector: exog_test column length mismatch");
    }
  }

  obs::TraceSpan select_span("selector.select", "selector");
  SelectorProfile prof;
  prof.candidates = candidates.size();
  std::atomic<std::size_t> warm_hits{0};

  const bool fast_path = options_.shared_transforms || options_.warm_start ||
                         options_.early_abort;
  ThreadPool pool(options_.n_threads);
  std::vector<EvaluatedCandidate> results(candidates.size());

  // Cooperative deadline, consulted between candidates. The sticky flag
  // makes the answer monotone: once the budget expires every later check
  // skips, independent of clock resolution.
  const bool has_deadline = options_.time_budget_seconds > 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(
                                options_.time_budget_seconds));
  std::atomic<bool> deadline_expired{false};
  auto past_deadline = [&] {
    if (!has_deadline) return false;
    if (deadline_expired.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= deadline) {
      deadline_expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  auto skip_for_deadline = [&](std::size_t i) {
    results[i].candidate = candidates[i];
    results[i].deadline_skipped = true;
    results[i].error = "skipped: selection time budget exceeded";
  };

  if (!fast_path) {
    // Oracle path: independent, un-cached evaluations.
    obs::TraceSpan grid_span("selector.grid", "selector");
    pool.ParallelFor(candidates.size(), [&](std::size_t i) {
      if (past_deadline()) {
        skip_for_deadline(i);
        return;
      }
      results[i] = Evaluate(candidates[i], train, test, exog_train, exog_test);
    });
    prof.grid_ms = grid_span.End();
  } else {
    obs::TraceSpan prepare_span("selector.prepare", "selector");
    // --- Layer 1: shared transforms, grouped by (exog, fourier). ---
    std::vector<std::unique_ptr<OlsGroup>> groups;
    std::map<std::pair<std::size_t, std::string>, std::size_t> group_index;
    std::vector<std::size_t> candidate_group(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto& c = candidates[i];
      const bool sarimax = c.n_exog > 0 || !c.fourier.empty();
      const std::size_t eff_exog =
          sarimax ? std::min(c.n_exog, exog_train.size()) : 0;
      const std::string fkey =
          sarimax ? tsa::FourierCacheKey(c.fourier) : std::string("arima");
      auto [it, inserted] =
          group_index.try_emplace({eff_exog, fkey}, groups.size());
      if (inserted) {
        auto g = std::make_unique<OlsGroup>();
        g->sarimax = sarimax;
        g->n_exog = eff_exog;
        g->fourier = c.fourier;
        groups.push_back(std::move(g));
      }
      candidate_group[i] = it->second;
    }
    if (options_.shared_transforms) {
      for (auto& g : groups) {
        if (!g->sarimax) {
          g->cache = std::make_unique<models::ArimaFitCache>(train);
          continue;
        }
        auto ols = models::SarimaxModel::FitOls(
            train, TakeColumns(exog_train, g->n_exog), g->fourier,
            options_.fourier_cache);
        if (!ols.ok()) {
          g->ols_status = ols.status();
          continue;
        }
        g->ols = std::move(*ols);
        g->cache = std::make_unique<models::ArimaFitCache>(g->ols.residuals);
      }
    }

    // --- Layer 2: warm chains split into fixed-length segments. ---
    std::map<std::string, std::vector<std::size_t>> chains;
    std::vector<std::string> chain_order;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::string key = WarmChainKey(candidates[i]);
      auto [it, inserted] = chains.try_emplace(key);
      if (inserted) chain_order.push_back(key);
      it->second.push_back(i);
    }
    const std::size_t segment_len = options_.warm_start ? kWarmSegment : 1;
    std::vector<std::vector<std::size_t>> segments;
    for (const auto& key : chain_order) {
      const auto& chain = chains[key];
      for (std::size_t off = 0; off < chain.size(); off += segment_len) {
        const std::size_t end = std::min(off + segment_len, chain.size());
        segments.emplace_back(chain.begin() + off, chain.begin() + end);
      }
    }

    // --- Layer 3: shared early-abort bound over the rescoring pool. ---
    PruneBound bound(options_.keep_top + kRescoreMargin);

    prof.transform_groups = groups.size();
    prof.prepare_ms = prepare_span.End();
    obs::TraceSpan grid_span("selector.grid", "selector");
    pool.ParallelFor(segments.size(), [&](std::size_t s) {
      std::vector<double> warm_ar;
      std::vector<double> warm_ma;
      const auto& hint = options_.hint;
      if (options_.warm_start && (!hint.ar.empty() || !hint.ma.empty())) {
        const auto& spec = candidates[segments[s].front()].spec;
        if (hint.spec.d == spec.d && hint.spec.D == spec.D &&
            hint.spec.season == spec.season) {
          warm_ar = hint.ar;
          warm_ma = hint.ma;
        }
      }
      for (std::size_t idx : segments[s]) {
        if (past_deadline()) {
          skip_for_deadline(idx);
          continue;
        }
        if (options_.warm_start && (!warm_ar.empty() || !warm_ma.empty())) {
          warm_hits.fetch_add(1, std::memory_order_relaxed);
        }
        FastOutcome out = EvaluateFast(
            candidates[idx], train, test, exog_train, exog_test,
            groups[candidate_group[idx]].get(), options_, warm_ar, warm_ma,
            &bound);
        if (out.fitted) {
          warm_ar = std::move(out.ar);
          warm_ma = std::move(out.ma);
        }
        results[idx] = std::move(out.ev);
      }
    });
    prof.grid_ms = grid_span.End();
  }

  SelectionResult sel;
  sel.evaluated = results.size();
  sel.deadline_hit = deadline_expired.load(std::memory_order_relaxed);
  std::vector<const EvaluatedCandidate*> ok_results;
  for (const auto& r : results) {
    if (r.ok) ok_results.push_back(&r);
    if (r.pruned) ++sel.pruned;
    if (r.deadline_skipped) ++sel.deadline_skipped;
  }
  sel.succeeded = ok_results.size();
  auto finalize_profile = [&] {
    prof.succeeded = sel.succeeded;
    prof.pruned = sel.pruned;
    prof.deadline_skipped = sel.deadline_skipped;
    prof.failed =
        prof.candidates - prof.succeeded - prof.pruned - prof.deadline_skipped;
    prof.warm_hits = warm_hits.load(std::memory_order_relaxed);
    prof.total_ms = select_span.End();
    sel.profile = prof;
  };
  if (ok_results.empty()) {
    return Status::ComputeError(
        "ModelSelector: no candidate fitted successfully (first error: " +
        results.front().error + ")");
  }
  std::sort(ok_results.begin(), ok_results.end(),
            [](const EvaluatedCandidate* a, const EvaluatedCandidate* b) {
              return a->accuracy.rmse < b->accuracy.rmse;
            });

  if (fast_path) {
    // Cold re-score: the ranked survivors are re-evaluated with the oracle
    // Evaluate so the reported winner and its accuracy are bitwise-identical
    // to the un-cached serial path (warm-started refinement perturbs RMSE by
    // ~1e-6, which must not leak into the selection output).
    obs::TraceSpan rescore_span("selector.rescore", "selector");
    const std::size_t pool_size = std::min(
        options_.keep_top + kRescoreMargin, ok_results.size());
    prof.rescored = pool_size;
    std::vector<EvaluatedCandidate> rescored(pool_size);
    pool.ParallelFor(pool_size, [&](std::size_t i) {
      rescored[i] = Evaluate(ok_results[i]->candidate, train, test,
                             exog_train, exog_test);
    });
    prof.rescore_ms = rescore_span.End();
    std::vector<EvaluatedCandidate> ok_rescored;
    for (auto& r : rescored) {
      if (r.ok) ok_rescored.push_back(std::move(r));
    }
    if (ok_rescored.empty()) {
      return Status::ComputeError(
          "ModelSelector: no rescored candidate fitted successfully");
    }
    std::sort(ok_rescored.begin(), ok_rescored.end(),
              [](const EvaluatedCandidate& a, const EvaluatedCandidate& b) {
                return a.accuracy.rmse < b.accuracy.rmse;
              });
    sel.best = ok_rescored.front();
    const std::size_t keep = std::min(options_.keep_top, ok_rescored.size());
    sel.top.assign(ok_rescored.begin(), ok_rescored.begin() + keep);
    finalize_profile();
    return sel;
  }

  sel.best = *ok_results.front();
  const std::size_t keep = std::min(options_.keep_top, ok_results.size());
  sel.top.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) sel.top.push_back(*ok_results[i]);
  finalize_profile();
  return sel;
}

}  // namespace capplan::core
