#include "core/lattice/tbats_lattice.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace capplan::core::lattice {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double AicOrInf(const Result<models::TbatsModel>& r) {
  return r.ok() ? r->summary().aic : kInf;
}

}  // namespace

int TbatsLattice::PrefitBudget() const {
  if (options_.prefit_iterations > 0) return options_.prefit_iterations;
  return std::max(20, options_.model.max_fit_iterations / 8);
}

std::vector<models::TbatsConfig> TbatsLattice::EnumerateConfigs(
    const std::vector<double>& y, const std::vector<double>& periods) const {
  const models::TbatsModel::Options& mo = options_.model;
  bool positive = true;
  for (double v : y) {
    if (v <= 0.0) {
      positive = false;
      break;
    }
  }

  // Greedy per-season harmonic selection under the base configuration
  // (trend on, everything else off). The short prefit budget is enough to
  // rank harmonic counts, and because both scoring paths share this stage
  // verbatim they enumerate identical candidate lists.
  const int greedy_budget = PrefitBudget();
  models::TbatsConfig base;
  base.use_trend = true;
  for (double period : periods) {
    models::TbatsSeason s;
    s.period = period;
    s.harmonics = 1;
    base.seasons.push_back(s);
    // Viability screen: a routed period the base configuration cannot even
    // seed (non-finite objective at the optimiser's start point) is dropped
    // here, before the lattice is built — otherwise one bad season poisons
    // every cell, since all cells share the season set.
    if (!std::isfinite(
            AicOrInf(models::TbatsModel::FitConfig(y, base, greedy_budget)))) {
      base.seasons.pop_back();
    }
  }
  for (std::size_t s = 0; s < base.seasons.size(); ++s) {
    double best_aic = kInf;
    std::size_t best_k = 1;
    for (std::size_t k = 1; k <= mo.max_harmonics; ++k) {
      if (2.0 * static_cast<double>(k) >= base.seasons[s].period) break;
      base.seasons[s].harmonics = k;
      const double aic =
          AicOrInf(models::TbatsModel::FitConfig(y, base, greedy_budget));
      if (aic < best_aic - 1e-9) {
        best_aic = aic;
        best_k = k;
      } else if (k > best_k) {
        break;  // AIC stopped improving; keep the best found
      }
    }
    base.seasons[s].harmonics = best_k;
  }

  // The option lattice, in fixed order: Box-Cox x trend x damping x ARMA.
  std::vector<models::TbatsConfig> lattice;
  std::vector<bool> boxcox_opts{false};
  if (mo.try_boxcox && positive) boxcox_opts.push_back(true);
  std::vector<bool> trend_opts{true};
  if (mo.try_trend) trend_opts.push_back(false);
  std::vector<std::pair<int, int>> arma_opts{{0, 0}};
  if (mo.try_arma) {
    arma_opts.push_back({1, 0});
    arma_opts.push_back({0, 1});
    arma_opts.push_back({1, 1});
  }
  for (bool bc : boxcox_opts) {
    for (bool tr : trend_opts) {
      std::vector<bool> damp_opts{false};
      if (mo.try_damping && tr) damp_opts.push_back(true);
      for (bool dp : damp_opts) {
        for (const auto& [ap, aq] : arma_opts) {
          models::TbatsConfig cfg = base;
          cfg.use_boxcox = bc;
          cfg.use_trend = tr;
          cfg.use_damping = dp;
          cfg.arma_p = ap;
          cfg.arma_q = aq;
          lattice.push_back(cfg);
        }
      }
    }
  }
  return lattice;
}

Result<TbatsSelection> TbatsLattice::Select(
    const std::vector<double>& y, const std::vector<double>& periods) const {
  obs::TraceSpan span("select.tbats_lattice", "select");

  const std::vector<models::TbatsConfig> lattice =
      EnumerateConfigs(y, periods);
  if (lattice.empty()) {
    return Status::InvalidArgument("TbatsLattice: empty option lattice");
  }

  LatticeProfile profile;
  profile.enumerated = lattice.size();

  // Fits a subset of candidates at the given budget, results landing in
  // per-candidate slots so the reduction below is order-independent of the
  // execution schedule.
  auto fit_many = [&](const std::vector<std::size_t>& indices, int budget)
      -> std::vector<std::optional<Result<models::TbatsModel>>> {
    std::vector<std::optional<Result<models::TbatsModel>>> slots(
        lattice.size());
    profile.evaluated += indices.size();
    if (options_.n_threads > 1 && indices.size() > 1) {
      ThreadPool pool(std::min(options_.n_threads, indices.size()));
      std::vector<std::future<void>> futures;
      futures.reserve(indices.size());
      for (std::size_t idx : indices) {
        futures.push_back(pool.Submit([&, idx] {
          slots[idx].emplace(
              models::TbatsModel::FitConfig(y, lattice[idx], budget));
        }));
      }
      for (auto& f : futures) f.get();
    } else {
      for (std::size_t idx : indices) {
        slots[idx].emplace(
            models::TbatsModel::FitConfig(y, lattice[idx], budget));
      }
    }
    return slots;
  };

  std::vector<std::size_t> all(lattice.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  // The pruned path: short-budget prefits rank the lattice, dominated
  // branches are cut, and the survivors get the oracle's full-budget fit.
  std::vector<std::size_t> rescore = all;
  if (options_.prune && options_.keep_top < lattice.size()) {
    const auto prefits = fit_many(all, PrefitBudget());
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(lattice.size());
    for (std::size_t i = 0; i < lattice.size(); ++i) {
      const double aic = AicOrInf(*prefits[i]);
      if (std::isfinite(aic)) ranked.emplace_back(aic, i);
    }
    std::stable_sort(ranked.begin(), ranked.end());
    if (!ranked.empty()) {
      rescore.clear();
      for (std::size_t r = 0; r < ranked.size() && r < options_.keep_top;
           ++r) {
        rescore.push_back(ranked[r].second);
      }
      // Rescore (and tie-break) in lattice order, exactly like the oracle.
      std::sort(rescore.begin(), rescore.end());
    }
    // When every prefit diverged, `rescore` stays the full lattice: the
    // pruned path collapses to the oracle instead of failing differently.
    profile.pruned = lattice.size() - rescore.size();
  }
  profile.rescored = rescore.size();

  const auto fits = fit_many(rescore, options_.model.max_fit_iterations);
  double best_aic = kInf;
  std::optional<std::size_t> best_idx;
  for (std::size_t idx : rescore) {
    const double aic = AicOrInf(*fits[idx]);
    if (aic < best_aic) {
      best_aic = aic;
      best_idx = idx;
    }
  }
  profile.total_ms = span.End();

  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter("capplan_select_lattice_evaluated_total", {},
                     "TBATS lattice candidate fits run")
        .Inc(profile.evaluated);
    options_.metrics
        ->GetCounter("capplan_select_lattice_pruned_total", {},
                     "TBATS lattice candidates cut before the full rescore")
        .Inc(profile.pruned);
  }

  if (!best_idx.has_value()) {
    return Status::ComputeError("TbatsLattice: no configuration fitted");
  }
  TbatsSelection selection{std::move(**fits[*best_idx]), best_aic, profile};
  return selection;
}

}  // namespace capplan::core::lattice
