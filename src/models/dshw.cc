#include "models/dshw.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "math/distributions.h"
#include "math/optimize.h"
#include "math/vec.h"
#include "tsa/metrics.h"

namespace capplan::models {

namespace {

double Squash(double u, double lo, double hi) {
  return lo + (hi - lo) / (1.0 + std::exp(-u));
}
double Unsquash(double v, double lo, double hi) {
  const double f = std::clamp((v - lo) / (hi - lo), 1e-6, 1.0 - 1e-6);
  return std::log(f / (1.0 - f));
}

// Initial states from the first two long periods: level/trend from cycle
// means, short seasonal from per-phase means of the detrended head, long
// seasonal from what remains. They depend on the data only, so a fit
// computes them once.
struct DshwStart {
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> s1, s2;
};

DshwStart InitialStates(const std::vector<double>& y, std::size_t period1,
                        std::size_t period2) {
  double mean1 = 0.0, mean2 = 0.0;
  for (std::size_t i = 0; i < period2; ++i) mean1 += y[i];
  for (std::size_t i = period2; i < 2 * period2; ++i) mean2 += y[i];
  mean1 /= static_cast<double>(period2);
  mean2 /= static_cast<double>(period2);
  DshwStart start;
  start.level = mean1;
  start.trend = (mean2 - mean1) / static_cast<double>(period2);
  const double trend = start.trend;

  std::vector<double>& s1 = start.s1;
  s1.assign(period1, 0.0);
  std::vector<std::size_t> c1(period1, 0);
  for (std::size_t t = 0; t < 2 * period2; ++t) {
    const double base = mean1 + trend * (static_cast<double>(t) -
                                         0.5 * static_cast<double>(period2));
    s1[t % period1] += y[t] - base;
    ++c1[t % period1];
  }
  for (std::size_t p = 0; p < period1; ++p) {
    if (c1[p] > 0) s1[p] /= static_cast<double>(c1[p]);
  }
  std::vector<double>& s2 = start.s2;
  s2.assign(period2, 0.0);
  std::vector<std::size_t> c2(period2, 0);
  for (std::size_t t = 0; t < 2 * period2; ++t) {
    const double base = mean1 + trend * (static_cast<double>(t) -
                                         0.5 * static_cast<double>(period2));
    s2[t % period2] += y[t] - base - s1[t % period1];
    ++c2[t % period2];
  }
  for (std::size_t p = 0; p < period2; ++p) {
    if (c2[p] > 0) s2[p] /= static_cast<double>(c2[p]);
  }
  return start;
}

constexpr std::size_t kLanes = 4;

template <std::size_t L>
struct DshwLaneOut {
  std::array<double, L> sse;  // +inf where the recursion diverged
  std::array<double, L> level;
  std::array<double, L> trend;
  std::array<double, L> last_error;
};

// The recursion, run for L parameter sets side by side in one pass over y so
// their dependency chains overlap. Each lane runs the operations of the
// one-lane pass in the same order, so its SSE has the same bits; a lane that
// diverges reads +inf and leaves the others alone. `s1` and `s2` hold the
// lanes' seasonal states interleaved (phase p, lane k at p * L + k) and keep
// the final ones. The first long period is warmup: it updates the states but
// stays out of the SSE (initialization bias).
template <std::size_t L>
DshwLaneOut<L> RunLanes(const std::vector<double>& y, const DshwStart& start,
                        const std::array<DshwParams, L>& params, double* s1,
                        double* s2) {
  const std::size_t period1 = start.s1.size();
  const std::size_t period2 = start.s2.size();
  double alpha[L] = {}, beta[L] = {}, gamma1[L] = {}, gamma2[L] = {},
         phi[L] = {};
  double level[L] = {}, trend[L] = {}, prev_e[L] = {}, sse[L] = {};
  bool dead[L] = {};
  for (std::size_t k = 0; k < L; ++k) {
    alpha[k] = params[k].alpha;
    beta[k] = params[k].beta;
    gamma1[k] = params[k].gamma1;
    gamma2[k] = params[k].gamma2;
    phi[k] = params[k].phi;
    level[k] = start.level;
    trend[k] = start.trend;
  }
  for (std::size_t p = 0; p < period1; ++p) {
    for (std::size_t k = 0; k < L; ++k) s1[p * L + k] = start.s1[p];
  }
  for (std::size_t p = 0; p < period2; ++p) {
    for (std::size_t k = 0; k < L; ++k) s2[p * L + k] = start.s2[p];
  }

  const std::size_t n = y.size();
  const std::size_t warmup = period2;
  std::size_t phase1 = 0, phase2 = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yt = y[t];
    double* s1_t = s1 + phase1 * L;
    double* s2_t = s2 + phase2 * L;
    bool all_dead = true;
#pragma GCC unroll 4
    for (std::size_t k = 0; k < L; ++k) {
      const double yhat =
          level[k] + trend[k] + s1_t[k] + s2_t[k] + phi[k] * prev_e[k];
      const double e = yt - yhat;
      dead[k] = dead[k] || !std::isfinite(e) || std::fabs(e) > 1e12;
      if (t >= warmup) sse[k] += e * e;
      const double new_level = level[k] + trend[k] + alpha[k] * e;
      trend[k] = trend[k] + beta[k] * e;
      s1_t[k] += gamma1[k] * e;
      s2_t[k] += gamma2[k] * e;
      level[k] = new_level;
      prev_e[k] = e;
      all_dead = all_dead && dead[k];
    }
    if (all_dead) break;
    if (++phase1 == period1) phase1 = 0;
    if (++phase2 == period2) phase2 = 0;
  }

  DshwLaneOut<L> out{};
  for (std::size_t k = 0; k < L; ++k) {
    out.sse[k] = dead[k] ? std::numeric_limits<double>::infinity() : sse[k];
    out.level[k] = level[k];
    out.trend[k] = trend[k];
    out.last_error[k] = prev_e[k];
  }
  return out;
}

// The SSE objective of one fit: the series' initial states and the lanes'
// seasonal work buffers, computed and allocated once per fit.
class DshwObjective {
 public:
  DshwObjective(const std::vector<double>& y, std::size_t period1,
                std::size_t period2)
      : y_(y),
        start_(InitialStates(y, period1, period2)),
        s1_(period1 * kLanes),
        s2_(period2 * kLanes) {}

  // Writes the SSE of params[i] to sse[i].
  void operator()(std::span<const DshwParams> params, std::span<double> sse) {
    math::EvaluateInLanes<kLanes>(
        params, sse,
        [&](const DshwParams& p) {
          return RunLanes<1>(y_, start_, {p}, s1_.data(), s2_.data()).sse[0];
        },
        [&](const std::array<DshwParams, kLanes>& lanes) {
          return RunLanes(y_, start_, lanes, s1_.data(), s2_.data()).sse;
        });
  }

  // The one-lane pass that also leaves the final states (set only when the
  // recursion converged).
  double Record(const DshwParams& params, double* level, double* trend,
                std::vector<double>* s1, std::vector<double>* s2,
                double* last_error) {
    const auto out =
        RunLanes<1>(y_, start_, {params}, s1_.data(), s2_.data());
    if (std::isfinite(out.sse[0])) {
      *level = out.level[0];
      *trend = out.trend[0];
      s1->assign(s1_.begin(), s1_.begin() + static_cast<std::ptrdiff_t>(
                                                start_.s1.size()));
      s2->assign(s2_.begin(), s2_.begin() + static_cast<std::ptrdiff_t>(
                                                start_.s2.size()));
      *last_error = out.last_error[0];
    }
    return out.sse[0];
  }

 private:
  const std::vector<double>& y_;
  DshwStart start_;
  std::vector<double> s1_, s2_;
};

Status CheckFitInput(const std::vector<double>& y, std::size_t period1,
                     std::size_t period2) {
  if (period1 < 2 || period2 <= period1 || period2 % period1 != 0) {
    return Status::InvalidArgument(
        "DshwModel: period2 must be a multiple of period1 (> period1)");
  }
  if (y.size() < 2 * period2 + period1) {
    return Status::InvalidArgument(
        "DshwModel: need at least two full long periods");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> DshwModel::SumSquaredErrors(
    const std::vector<double>& y, std::size_t period1, std::size_t period2,
    std::span<const DshwParams> params) {
  CAPPLAN_RETURN_NOT_OK(CheckFitInput(y, period1, period2));
  std::vector<double> sse(params.size());
  DshwObjective(y, period1, period2)(params, sse);
  return sse;
}

Result<DshwModel> DshwModel::Fit(const std::vector<double>& y,
                                 std::size_t period1, std::size_t period2,
                                 const Options& options) {
  CAPPLAN_RETURN_NOT_OK(CheckFitInput(y, period1, period2));
  DshwModel m;
  m.period1_ = period1;
  m.period2_ = period2;
  DshwParams params{options.alpha, options.beta, options.gamma1,
                    options.gamma2,
                    options.ar1_adjustment ? options.phi : 0.0};
  DshwObjective sse_of(y, period1, period2);
  if (options.optimize) {
    std::vector<double> x0 = {
        Unsquash(std::clamp(params.alpha, 0.011, 0.98), 0.01, 0.99),
        Unsquash(std::clamp(params.beta, 0.0011, 0.48), 0.001, 0.5),
        Unsquash(std::clamp(params.gamma1, 0.0011, 0.98), 0.001, 0.99),
        Unsquash(std::clamp(params.gamma2, 0.0011, 0.98), 0.001, 0.99)};
    if (options.ar1_adjustment) {
      x0.push_back(
          Unsquash(std::clamp(params.phi, -0.94, 0.94), -0.95, 0.95));
    }
    auto decode = [&](const std::vector<double>& x) {
      DshwParams p;
      p.alpha = Squash(x[0], 0.01, 0.99);
      p.beta = Squash(x[1], 0.001, 0.5);
      p.gamma1 = Squash(x[2], 0.001, 0.99);
      p.gamma2 = Squash(x[3], 0.001, 0.99);
      p.phi = options.ar1_adjustment ? Squash(x[4], -0.95, 0.95) : 0.0;
      return p;
    };
    std::vector<DshwParams> sets;
    math::BatchObjective obj = [&](std::span<const std::vector<double>> xs,
                                   std::span<double> values) {
      sets.clear();
      for (const auto& x : xs) sets.push_back(decode(x));
      sse_of(sets, values);
    };
    math::NelderMeadOptions nm;
    nm.max_iterations = 700;
    nm.initial_step = 0.7;
    auto outcome = math::NelderMead(obj, x0, nm);
    if (!outcome.ok()) return outcome.status();
    params = decode(outcome->x);
  }
  m.alpha_ = params.alpha;
  m.beta_ = params.beta;
  m.gamma1_ = params.gamma1;
  m.gamma2_ = params.gamma2;
  m.phi_ = params.phi;
  const double sse =
      sse_of.Record(params, &m.state_.level, &m.state_.trend, &m.state_.s1,
                    &m.state_.s2, &m.state_.last_error);
  if (!std::isfinite(sse)) {
    return Status::ComputeError("DshwModel: recursion diverged");
  }
  m.n_obs_ = y.size();
  const std::size_t n_eff = y.size() - period2;
  const std::size_t k = options.ar1_adjustment ? 5 : 4;
  m.summary_.sse = sse;
  m.summary_.sigma2 = sse / static_cast<double>(n_eff);
  m.summary_.n_params = k + 2;
  m.summary_.n_obs = n_eff;
  m.summary_.aic = tsa::AicFromSse(sse, n_eff, k + 2);
  m.summary_.bic = tsa::BicFromSse(sse, n_eff, k + 2);
  return m;
}

Result<Forecast> DshwModel::Predict(std::size_t horizon, double level) const {
  if (horizon == 0) {
    return Status::InvalidArgument("DshwModel::Predict: zero horizon");
  }
  if (level <= 0.0 || level >= 1.0) {
    return Status::InvalidArgument("DshwModel::Predict: level in (0,1)");
  }
  if (state_.s1.empty()) {
    return Status::FailedPrecondition("DshwModel::Predict: not fitted");
  }
  Forecast fc;
  fc.level = level;
  fc.mean.resize(horizon);
  fc.lower.resize(horizon);
  fc.upper.resize(horizon);
  const double z = math::NormalQuantile(0.5 * (1.0 + level));
  double var_accum = 1.0;
  double phi_pow = phi_;
  for (std::size_t h = 1; h <= horizon; ++h) {
    const std::size_t t = n_obs_ + h - 1;
    const double yhat = state_.level +
                        static_cast<double>(h) * state_.trend +
                        state_.s1[t % period1_] + state_.s2[t % period2_] +
                        phi_pow * state_.last_error;
    fc.mean[h - 1] = yhat;
    const double sd = std::sqrt(summary_.sigma2 * var_accum);
    fc.lower[h - 1] = yhat - z * sd;
    fc.upper[h - 1] = yhat + z * sd;
    // Class-1 variance recursion analogue: c_j = alpha + j*beta + seasonal
    // bumps when the same phase repeats.
    double c = alpha_ + static_cast<double>(h) * beta_;
    if (h % period1_ == 0) c += gamma1_;
    if (h % period2_ == 0) c += gamma2_;
    var_accum += c * c;
    phi_pow *= phi_;
  }
  return fc;
}

}  // namespace capplan::models
