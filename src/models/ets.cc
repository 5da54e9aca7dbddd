#include "models/ets.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "math/distributions.h"
#include "math/optimize.h"
#include "math/vec.h"
#include "tsa/metrics.h"

namespace capplan::models {

std::string EtsSpec::ToString() const {
  auto trend_c = [&] {
    switch (trend) {
      case EtsTrend::kNone:
        return "N";
      case EtsTrend::kAdditive:
        return "A";
      case EtsTrend::kAdditiveDamped:
        return "Ad";
    }
    return "?";
  };
  auto seas_c = [&] {
    switch (seasonal) {
      case EtsSeasonal::kNone:
        return "N";
      case EtsSeasonal::kAdditive:
        return "A";
      case EtsSeasonal::kMultiplicative:
        return "M";
    }
    return "?";
  };
  std::ostringstream os;
  os << "ETS(A," << trend_c() << "," << seas_c() << ")";
  if (seasonal != EtsSeasonal::kNone) os << " m=" << period;
  return os.str();
}

bool EtsSpec::IsValid() const {
  if (seasonal != EtsSeasonal::kNone && period < 2) return false;
  return true;
}

std::size_t EtsSpec::NumParams() const {
  std::size_t k = 1;  // alpha
  if (trend != EtsTrend::kNone) ++k;
  if (trend == EtsTrend::kAdditiveDamped) ++k;
  if (seasonal != EtsSeasonal::kNone) ++k;
  return k;
}

EtsSpec SimpleExponentialSmoothing() { return EtsSpec{}; }

EtsSpec HoltLinearTrend(bool damped) {
  EtsSpec s;
  s.trend = damped ? EtsTrend::kAdditiveDamped : EtsTrend::kAdditive;
  return s;
}

EtsSpec HoltWinters(std::size_t period, bool multiplicative, bool damped) {
  EtsSpec s;
  s.trend = damped ? EtsTrend::kAdditiveDamped : EtsTrend::kAdditive;
  s.seasonal = multiplicative ? EtsSeasonal::kMultiplicative
                              : EtsSeasonal::kAdditive;
  s.period = period;
  return s;
}

namespace {

// Heuristic initial states (Hyndman & Athanasopoulos): level/trend from the
// first periods, seasonal indices from per-phase averages of the first two
// periods. They depend on the data only, so a fit computes them once.
struct EtsStart {
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> seasonal;  // phase-indexed; empty without a season
};

EtsStart InitialStates(const std::vector<double>& y, const EtsSpec& spec) {
  EtsStart start;
  const std::size_t n = y.size();
  const std::size_t m = spec.seasonal != EtsSeasonal::kNone ? spec.period : 0;
  if (m >= 2 && n >= 2 * m) {
    double mean1 = 0.0, mean2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) mean1 += y[i];
    for (std::size_t i = m; i < 2 * m; ++i) mean2 += y[i];
    mean1 /= static_cast<double>(m);
    mean2 /= static_cast<double>(m);
    start.level = mean1;
    start.trend = (mean2 - mean1) / static_cast<double>(m);
    std::vector<double>& seasonal = start.seasonal;
    seasonal.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double base1 = mean1;
      const double base2 = mean2;
      if (spec.seasonal == EtsSeasonal::kAdditive) {
        seasonal[i] = 0.5 * ((y[i] - base1) + (y[i + m] - base2));
      } else {
        const double r1 = base1 > 0.0 ? y[i] / base1 : 1.0;
        const double r2 = base2 > 0.0 ? y[i + m] / base2 : 1.0;
        seasonal[i] = 0.5 * (r1 + r2);
      }
    }
    // Normalize indices.
    if (spec.seasonal == EtsSeasonal::kAdditive) {
      const double mu = math::Mean(seasonal);
      for (double& s : seasonal) s -= mu;
    } else {
      const double mu = math::Mean(seasonal);
      if (mu > 0.0) {
        for (double& s : seasonal) s /= mu;
      }
    }
  } else {
    start.level = y[0];
    const std::size_t k = std::min<std::size_t>(n - 1, 8);
    start.trend = k > 0 ? (y[k] - y[0]) / static_cast<double>(k) : 0.0;
  }
  if (spec.trend == EtsTrend::kNone) start.trend = 0.0;
  return start;
}

// Logistic map onto (lo, hi).
double Squash(double u, double lo, double hi) {
  return lo + (hi - lo) / (1.0 + std::exp(-u));
}
double Unsquash(double v, double lo, double hi) {
  const double f = std::clamp((v - lo) / (hi - lo), 1e-6, 1.0 - 1e-6);
  return std::log(f / (1.0 - f));
}

constexpr std::size_t kLanes = 4;

template <std::size_t L>
struct EtsLaneOut {
  std::array<double, L> sse;  // +inf where the recursion diverged
  std::array<double, L> level;
  std::array<double, L> trend;
};

// The smoothing recursion (error-correction form), run for L parameter sets
// side by side in one pass over y so their dependency chains overlap. Each
// lane runs the operations of the one-lane pass in the same order, so its
// SSE has the same bits; a lane that diverges reads +inf and leaves the
// others alone. `seas` holds the lanes' seasonal states interleaved (phase
// p, lane k at p * L + k) and keeps the final ones. The one-lane pass also
// records fitted values and residuals when asked.
template <EtsTrend kTrend, EtsSeasonal kSeasonal, std::size_t L>
EtsLaneOut<L> RunLanes(const std::vector<double>& y, const EtsStart& start,
                       const std::array<EtsParams, L>& params, double* seas,
                       std::vector<double>* fitted,
                       std::vector<double>* residuals) {
  constexpr bool kHasTrend = kTrend != EtsTrend::kNone;
  constexpr bool kHasSeasonal = kSeasonal != EtsSeasonal::kNone;
  constexpr bool kMult = kSeasonal == EtsSeasonal::kMultiplicative;
  const std::size_t m = start.seasonal.size();
  double alpha[L] = {}, beta[L] = {}, gamma[L] = {}, damp[L] = {};
  double level[L] = {}, trend[L] = {}, sse[L] = {};
  bool dead[L] = {};
  for (std::size_t k = 0; k < L; ++k) {
    alpha[k] = params[k].alpha;
    beta[k] = params[k].beta;
    gamma[k] = params[k].gamma;
    damp[k] = kTrend == EtsTrend::kAdditiveDamped ? params[k].phi : 1.0;
    level[k] = start.level;
    trend[k] = start.trend;
  }
  if constexpr (kHasSeasonal) {
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t k = 0; k < L; ++k) seas[p * L + k] = start.seasonal[p];
    }
  }

  const std::size_t n = y.size();
  std::size_t phase = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yt = y[t];
    bool all_dead = true;
#pragma GCC unroll 4
    for (std::size_t k = 0; k < L; ++k) {
      const double base = level[k] + (kHasTrend ? damp[k] * trend[k] : 0.0);
      double s_t = 1.0;
      if constexpr (kHasSeasonal) s_t = seas[phase * L + k];
      const double yhat =
          kHasSeasonal ? (kMult ? base * s_t : base + s_t) : base;
      const double e = yt - yhat;
      if constexpr (L == 1) {
        if (fitted) (*fitted)[t] = yhat;
        if (residuals) (*residuals)[t] = e;
      }
      sse[k] += e * e;

      double adj = e;
      if constexpr (kMult) {
        dead[k] = dead[k] || std::fabs(s_t) < 1e-9;
        adj = e / s_t;
      }
      const double new_level = base + alpha[k] * adj;
      if constexpr (kHasTrend) trend[k] = damp[k] * trend[k] + beta[k] * adj;
      if constexpr (kHasSeasonal) {
        double s_adj;
        if constexpr (kMult) {
          dead[k] = dead[k] || std::fabs(base) < 1e-9;
          s_adj = gamma[k] * e / base;
        } else {
          s_adj = gamma[k] * e;
        }
        seas[phase * L + k] = s_t + s_adj;
      }
      level[k] = new_level;
      dead[k] = dead[k] || !std::isfinite(level[k]) ||
                (kHasTrend && !std::isfinite(trend[k]));
      all_dead = all_dead && dead[k];
    }
    if (all_dead) break;
    if (kHasSeasonal && ++phase == m) phase = 0;
  }

  EtsLaneOut<L> out{};
  for (std::size_t k = 0; k < L; ++k) {
    out.sse[k] = dead[k] ? std::numeric_limits<double>::infinity() : sse[k];
    out.level[k] = level[k];
    out.trend[k] = trend[k];
  }
  return out;
}

template <std::size_t L>
using EtsKernel = EtsLaneOut<L> (*)(const std::vector<double>&,
                                    const EtsStart&,
                                    const std::array<EtsParams, L>&, double*,
                                    std::vector<double>*,
                                    std::vector<double>*);

// The kernel instance for a spec's form, indexed [trend][seasonal] in enum
// order.
template <std::size_t L>
EtsKernel<L> SelectKernel(const EtsSpec& spec) {
  using T = EtsTrend;
  using S = EtsSeasonal;
  static constexpr EtsKernel<L> kByForm[3][3] = {
      {&RunLanes<T::kNone, S::kNone, L>, &RunLanes<T::kNone, S::kAdditive, L>,
       &RunLanes<T::kNone, S::kMultiplicative, L>},
      {&RunLanes<T::kAdditive, S::kNone, L>,
       &RunLanes<T::kAdditive, S::kAdditive, L>,
       &RunLanes<T::kAdditive, S::kMultiplicative, L>},
      {&RunLanes<T::kAdditiveDamped, S::kNone, L>,
       &RunLanes<T::kAdditiveDamped, S::kAdditive, L>,
       &RunLanes<T::kAdditiveDamped, S::kMultiplicative, L>},
  };
  return kByForm[static_cast<int>(spec.trend)][static_cast<int>(spec.seasonal)];
}

// The SSE objective of one fit: the series' initial states and the lanes'
// seasonal work buffers, computed and allocated once per fit.
class EtsObjective {
 public:
  EtsObjective(const std::vector<double>& y, const EtsSpec& spec)
      : y_(y),
        start_(InitialStates(y, spec)),
        run1_(SelectKernel<1>(spec)),
        run_lanes_(SelectKernel<kLanes>(spec)),
        seas_(start_.seasonal.size() * kLanes) {}

  // Writes the SSE of params[i] to sse[i].
  void operator()(std::span<const EtsParams> params, std::span<double> sse) {
    math::EvaluateInLanes<kLanes>(
        params, sse,
        [&](const EtsParams& p) {
          return run1_(y_, start_, {p}, seas_.data(), nullptr, nullptr).sse[0];
        },
        [&](const std::array<EtsParams, kLanes>& lanes) {
          return run_lanes_(y_, start_, lanes, seas_.data(), nullptr, nullptr)
              .sse;
        });
  }

  // The one-lane pass that also records the fit: final states, fitted values
  // and residuals (states only when the recursion converged).
  double Record(const EtsParams& params, double* level, double* trend,
                std::vector<double>* seasonal, std::vector<double>* fitted,
                std::vector<double>* residuals) {
    fitted->assign(y_.size(), 0.0);
    residuals->assign(y_.size(), 0.0);
    const auto out =
        run1_(y_, start_, {params}, seas_.data(), fitted, residuals);
    if (std::isfinite(out.sse[0])) {
      *level = out.level[0];
      *trend = out.trend[0];
      seasonal->assign(seas_.begin(),
                       seas_.begin() + static_cast<std::ptrdiff_t>(
                                           start_.seasonal.size()));
    }
    return out.sse[0];
  }

 private:
  const std::vector<double>& y_;
  EtsStart start_;
  EtsKernel<1> run1_;
  EtsKernel<kLanes> run_lanes_;
  std::vector<double> seas_;
};

Status CheckFitInput(const std::vector<double>& y, const EtsSpec& spec) {
  if (!spec.IsValid()) {
    return Status::InvalidArgument("EtsModel: invalid spec");
  }
  const std::size_t min_n =
      spec.seasonal != EtsSeasonal::kNone ? 2 * spec.period + 2 : 5;
  if (y.size() < min_n) {
    return Status::InvalidArgument("EtsModel: series too short for spec " +
                                   spec.ToString());
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> EtsModel::SumSquaredErrors(
    const std::vector<double>& y, const EtsSpec& spec,
    std::span<const EtsParams> params) {
  CAPPLAN_RETURN_NOT_OK(CheckFitInput(y, spec));
  std::vector<double> sse(params.size());
  EtsObjective(y, spec)(params, sse);
  return sse;
}

Result<EtsModel> EtsModel::Fit(const std::vector<double>& y,
                               const EtsSpec& spec, const Options& options) {
  CAPPLAN_RETURN_NOT_OK(CheckFitInput(y, spec));
  EtsModel m;
  m.spec_ = spec;
  EtsParams params{options.alpha, options.beta, options.gamma, options.phi};

  const bool has_trend = spec.trend != EtsTrend::kNone;
  const bool damped = spec.trend == EtsTrend::kAdditiveDamped;
  const bool has_seasonal = spec.seasonal != EtsSeasonal::kNone;
  EtsObjective sse_of(y, spec);

  if (options.optimize) {
    // Unconstrained parameterization via logistic squashing.
    std::vector<double> x0;
    x0.push_back(Unsquash(params.alpha, 0.01, 0.99));
    if (has_trend) x0.push_back(Unsquash(params.beta, 0.001, 0.99));
    if (has_seasonal) x0.push_back(Unsquash(params.gamma, 0.001, 0.99));
    if (damped) x0.push_back(Unsquash(params.phi, 0.8, 0.995));
    auto decode = [&](const std::vector<double>& x) {
      EtsParams p;
      std::size_t i = 0;
      p.alpha = Squash(x[i++], 0.01, 0.99);
      p.beta = has_trend ? Squash(x[i++], 0.001, 0.99) * p.alpha : 0.0;
      p.gamma =
          has_seasonal ? Squash(x[i++], 0.001, 0.99) * (1.0 - p.alpha) : 0.0;
      p.phi = damped ? Squash(x[i++], 0.8, 0.995) : 1.0;
      return p;
    };
    std::vector<EtsParams> sets;
    math::BatchObjective obj = [&](std::span<const std::vector<double>> xs,
                                   std::span<double> values) {
      sets.clear();
      for (const auto& x : xs) sets.push_back(decode(x));
      sse_of(sets, values);
    };
    math::NelderMeadOptions nm;
    nm.max_iterations = 800;
    nm.initial_step = 0.6;
    nm.restarts = 1;
    auto outcome = math::NelderMead(obj, x0, nm);
    if (!outcome.ok()) return outcome.status();
    params = decode(outcome->x);
  } else {
    if (!has_trend) params.beta = 0.0;
    if (!has_seasonal) params.gamma = 0.0;
    if (!damped) params.phi = 1.0;
  }

  m.alpha_ = params.alpha;
  m.beta_ = params.beta;
  m.gamma_ = params.gamma;
  m.phi_ = params.phi;
  const double sse = sse_of.Record(params, &m.level_, &m.trend_, &m.seasonal_,
                                   &m.fitted_, &m.residuals_);
  if (!std::isfinite(sse)) {
    return Status::ComputeError("EtsModel: smoothing recursion diverged");
  }
  const std::size_t n = y.size();
  const std::size_t k = spec.NumParams() + 2;  // + initial level/trend
  m.summary_.sse = sse;
  m.summary_.sigma2 = sse / static_cast<double>(n);
  m.summary_.n_params = k;
  m.summary_.n_obs = n;
  m.summary_.aic = tsa::AicFromSse(sse, n, k);
  m.summary_.bic = tsa::BicFromSse(sse, n, k);
  return m;
}

Result<Forecast> EtsModel::PredictSimulated(std::size_t horizon, double level,
                                            std::size_t n_paths,
                                            std::uint64_t seed) const {
  if (horizon == 0 || n_paths < 100) {
    return Status::InvalidArgument(
        "EtsModel::PredictSimulated: need horizon >= 1 and >= 100 paths");
  }
  if (level <= 0.0 || level >= 1.0) {
    return Status::InvalidArgument(
        "EtsModel::PredictSimulated: level in (0,1)");
  }
  const bool has_trend = spec_.trend != EtsTrend::kNone;
  const bool damped = spec_.trend == EtsTrend::kAdditiveDamped;
  const bool has_seasonal = spec_.seasonal != EtsSeasonal::kNone;
  const bool mult = spec_.seasonal == EtsSeasonal::kMultiplicative;
  const std::size_t m = has_seasonal ? spec_.period : 0;
  const std::size_t n = summary_.n_obs;
  const double damp = damped ? phi_ : 1.0;
  const double sigma = std::sqrt(summary_.sigma2);

  std::mt19937_64 rng(seed);
  std::normal_distribution<double> innovation(0.0, sigma);
  // paths[h] collects the simulated values at step h across paths.
  std::vector<std::vector<double>> paths(
      horizon, std::vector<double>(n_paths, 0.0));
  for (std::size_t path = 0; path < n_paths; ++path) {
    double level_s = level_;
    double trend_s = trend_;
    std::vector<double> seas = seasonal_;
    for (std::size_t h = 0; h < horizon; ++h) {
      const double base = level_s + (has_trend ? damp * trend_s : 0.0);
      double s_t = 1.0;
      if (has_seasonal) s_t = seas[(n + h) % m];
      const double mean_h =
          has_seasonal ? (mult ? base * s_t : base + s_t) : base;
      const double e = innovation(rng);
      paths[h][path] = mean_h + e;
      // State update mirrors the filtering recursion.
      double adj = e;
      if (has_seasonal && mult) {
        if (std::fabs(s_t) < 1e-9) {
          adj = e;
        } else {
          adj = e / s_t;
        }
      }
      level_s = base + alpha_ * adj;
      if (has_trend) trend_s = damp * trend_s + beta_ * adj;
      if (has_seasonal) {
        const double s_adj =
            mult ? (std::fabs(base) < 1e-9 ? 0.0 : gamma_ * e / base)
                 : gamma_ * e;
        seas[(n + h) % m] = s_t + s_adj;
      }
    }
  }
  Forecast fc;
  fc.level = level;
  fc.mean.resize(horizon);
  fc.lower.resize(horizon);
  fc.upper.resize(horizon);
  const double lo_q = 0.5 * (1.0 - level);
  const double hi_q = 1.0 - lo_q;
  for (std::size_t h = 0; h < horizon; ++h) {
    fc.mean[h] = math::Mean(paths[h]);
    fc.lower[h] = math::Quantile(paths[h], lo_q);
    fc.upper[h] = math::Quantile(paths[h], hi_q);
  }
  return fc;
}

Result<Forecast> EtsModel::Predict(std::size_t horizon, double level) const {
  if (horizon == 0) {
    return Status::InvalidArgument("EtsModel::Predict: zero horizon");
  }
  if (level <= 0.0 || level >= 1.0) {
    return Status::InvalidArgument("EtsModel::Predict: level in (0,1)");
  }
  const bool has_trend = spec_.trend != EtsTrend::kNone;
  const bool damped = spec_.trend == EtsTrend::kAdditiveDamped;
  const bool has_seasonal = spec_.seasonal != EtsSeasonal::kNone;
  const bool mult = spec_.seasonal == EtsSeasonal::kMultiplicative;
  const std::size_t m = has_seasonal ? spec_.period : 0;
  const std::size_t n = summary_.n_obs;
  const double damp = damped ? phi_ : 1.0;

  Forecast fc;
  fc.level = level;
  fc.mean.resize(horizon);
  fc.lower.resize(horizon);
  fc.upper.resize(horizon);
  const double z = math::NormalQuantile(0.5 * (1.0 + level));

  double damp_sum = 0.0;
  double damp_pow = 1.0;
  double var_accum = 1.0;  // c_0^2 = 1
  for (std::size_t h = 1; h <= horizon; ++h) {
    damp_sum += damp_pow * damp;  // phi + phi^2 + ... + phi^h (phi=1 -> h)
    damp_pow *= damp;
    double base = level_ + (has_trend ? damp_sum * trend_ : 0.0);
    double yhat = base;
    if (has_seasonal) {
      // Phase of forecast step h: the recursion left seasonal_[p] holding
      // the most recent index for phase p = (t mod m).
      const std::size_t phase = (n + h - 1) % m;
      yhat = mult ? base * seasonal_[phase] : base + seasonal_[phase];
    }
    fc.mean[h - 1] = yhat;
    const double sd = std::sqrt(summary_.sigma2 * var_accum);
    fc.lower[h - 1] = yhat - z * sd;
    fc.upper[h - 1] = yhat + z * sd;
    // Forecast-variance recursion (Hyndman et al. class-1 approximation):
    // c_j = alpha + beta*(phi+..+phi^j) + gamma*I(j mod m == 0).
    double c = alpha_;
    if (has_trend) c += beta_ * damp_sum;
    if (has_seasonal && h % m == 0) c += gamma_;
    var_accum += c * c;
  }
  return fc;
}

}  // namespace capplan::models
