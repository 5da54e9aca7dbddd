#ifndef CAPPLAN_MODELS_DSHW_H_
#define CAPPLAN_MODELS_DSHW_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "models/model.h"

namespace capplan::models {

// Smoothing parameters of one double-seasonal recursion.
struct DshwParams {
  double alpha = 0.1;
  double beta = 0.01;
  double gamma1 = 0.1;
  double gamma2 = 0.1;
  double phi = 0.0;  // AR(1) residual coefficient
};

// Double-seasonal Holt-Winters (Taylor 2003): additive exponential
// smoothing with two interacting seasonal cycles (e.g. the daily 24-hour
// and weekly 168-hour patterns of paper challenge C3) plus an optional
// AR(1) residual adjustment. This extends the paper's HES branch to the
// multiple-seasonality workloads that otherwise require SARIMAX+Fourier.
//
//   y_hat_t = l_{t-1} + b_{t-1} + s1_{t-m1} + s2_{t-m2} (+ phi * e_{t-1})
//   l_t  = l_{t-1} + b_{t-1} + alpha * e_t
//   b_t  = b_{t-1} + beta * e_t
//   s1_t = s1_{t-m1} + gamma1 * e_t
//   s2_t = s2_{t-m2} + gamma2 * e_t
class DshwModel {
 public:
  struct Options {
    bool optimize = true;      // tune smoothing parameters by one-step SSE
    bool ar1_adjustment = true;  // Taylor's residual autocorrelation term
    double alpha = 0.1;
    double beta = 0.01;
    double gamma1 = 0.1;
    double gamma2 = 0.1;
    double phi = 0.0;          // AR(1) residual coefficient
  };

  DshwModel() = default;

  // period2 must be an integer multiple of period1 (24 and 168 in the
  // canonical hourly case); needs at least two full long periods of data.
  static Result<DshwModel> Fit(const std::vector<double>& y,
                               std::size_t period1, std::size_t period2,
                               const Options& options);
  static Result<DshwModel> Fit(const std::vector<double>& y,
                               std::size_t period1, std::size_t period2) {
    return Fit(y, period1, period2, Options());
  }

  // Fit's objective: the one-step SSE of `y` after the first long period,
  // under each parameter set, from the initial states Fit starts from; +inf
  // where the recursion diverges (an error that is non-finite or above 1e12
  // in magnitude). Sets run four at a time through a 4-lane kernel, a lone
  // set through the one-lane pass Fit ends with; either way a set gets the
  // bits the one-lane pass gives it. Same input checks as Fit.
  static Result<std::vector<double>> SumSquaredErrors(
      const std::vector<double>& y, std::size_t period1, std::size_t period2,
      std::span<const DshwParams> params);

  Result<Forecast> Predict(std::size_t horizon, double level = 0.95) const;

  const FitSummary& summary() const { return summary_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double gamma1() const { return gamma1_; }
  double gamma2() const { return gamma2_; }
  double phi() const { return phi_; }
  std::size_t period1() const { return period1_; }
  std::size_t period2() const { return period2_; }

 private:
  // What the recursion leaves behind for Predict.
  struct FinalState {
    double level = 0.0;
    double trend = 0.0;
    std::vector<double> s1, s2;
    double last_error = 0.0;
  };
  std::size_t period1_ = 24, period2_ = 168;
  double alpha_ = 0.1, beta_ = 0.01, gamma1_ = 0.1, gamma2_ = 0.1,
         phi_ = 0.0;
  FinalState state_;
  std::size_t n_obs_ = 0;
  FitSummary summary_;
};

}  // namespace capplan::models

#endif  // CAPPLAN_MODELS_DSHW_H_
