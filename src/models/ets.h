#ifndef CAPPLAN_MODELS_ETS_H_
#define CAPPLAN_MODELS_ETS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "models/model.h"

namespace capplan::models {

// Exponential smoothing models (paper Section 4.3): simple exponential
// smoothing, Holt's linear trend (optionally damped) and the Holt-Winters
// seasonal method — the paper's "HES" branch of the Figure 4 workflow.

enum class EtsTrend { kNone, kAdditive, kAdditiveDamped };
enum class EtsSeasonal { kNone, kAdditive, kMultiplicative };

struct EtsSpec {
  EtsTrend trend = EtsTrend::kNone;
  EtsSeasonal seasonal = EtsSeasonal::kNone;
  std::size_t period = 0;  // required when seasonal != kNone

  // "ETS(A,Ad,M) m=24"-style description.
  std::string ToString() const;
  bool IsValid() const;
  std::size_t NumParams() const;
};

// Convenience constructors for the named methods.
EtsSpec SimpleExponentialSmoothing();
EtsSpec HoltLinearTrend(bool damped = false);
EtsSpec HoltWinters(std::size_t period, bool multiplicative = false,
                    bool damped = false);

// Smoothing parameters of one recursion; the spec's form ignores the ones it
// has no component for (and phi unless the trend is damped).
struct EtsParams {
  double alpha = 0.3;
  double beta = 0.1;
  double gamma = 0.1;
  double phi = 0.98;
};

class EtsModel {
 public:
  struct Options {
    // When true, smoothing parameters are chosen by minimizing the one-step
    // SSE; otherwise the values below are used as-is.
    bool optimize = true;
    double alpha = 0.3;  // level smoothing, (0,1)
    double beta = 0.1;   // trend smoothing, (0,alpha)
    double gamma = 0.1;  // seasonal smoothing, (0,1-alpha)
    double phi = 0.98;   // damping, (0.8,0.995)
  };

  // An unfitted placeholder; use Fit().
  EtsModel() = default;

  static Result<EtsModel> Fit(const std::vector<double>& y,
                              const EtsSpec& spec, const Options& options);
  static Result<EtsModel> Fit(const std::vector<double>& y,
                              const EtsSpec& spec) {
    return Fit(y, spec, Options());
  }

  // Fit's objective: the one-step SSE of `y` under each parameter set, from
  // the heuristic initial states Fit starts from; +inf where the recursion
  // diverges (a non-finite state, or a multiplicative index or base below
  // 1e-9 in magnitude). Sets run four at a time through a 4-lane kernel, a
  // lone set through the one-lane pass Fit ends with; either way a set gets
  // the bits the one-lane pass gives it. Same input checks as Fit.
  static Result<std::vector<double>> SumSquaredErrors(
      const std::vector<double>& y, const EtsSpec& spec,
      std::span<const EtsParams> params);

  Result<Forecast> Predict(std::size_t horizon, double level = 0.95) const;

  // Monte-Carlo prediction intervals: simulates `n_paths` future sample
  // paths from the fitted innovations model and reports per-step empirical
  // quantiles. Exact for every ETS variant (the analytic recursion in
  // Predict() is an approximation for seasonal/multiplicative models) at
  // the cost of sampling noise. Deterministic for a fixed seed.
  Result<Forecast> PredictSimulated(std::size_t horizon, double level = 0.95,
                                    std::size_t n_paths = 2000,
                                    std::uint64_t seed = 42) const;

  const EtsSpec& spec() const { return spec_; }
  const FitSummary& summary() const { return summary_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double gamma() const { return gamma_; }
  double phi() const { return phi_; }

  // Final smoothed states.
  double level_state() const { return level_; }
  double trend_state() const { return trend_; }
  const std::vector<double>& seasonal_states() const { return seasonal_; }

  // One-step in-sample residuals.
  const std::vector<double>& residuals() const { return residuals_; }
  // One-step in-sample fitted values.
  const std::vector<double>& fitted() const { return fitted_; }

 private:
  EtsSpec spec_;
  double alpha_ = 0.3, beta_ = 0.1, gamma_ = 0.1, phi_ = 0.98;
  double level_ = 0.0, trend_ = 0.0;
  std::vector<double> seasonal_;  // most recent full period, phase-indexed
  std::vector<double> residuals_;
  std::vector<double> fitted_;
  FitSummary summary_;
};

}  // namespace capplan::models

#endif  // CAPPLAN_MODELS_ETS_H_
