// Parameterized property tests for the ARIMA engine: coefficient recovery
// across the (p, q) plane, forecast/interval invariants, and consistency
// between the psi-weight variance expansion and empirical forecast errors.

#include <cmath>
#include <ostream>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "math/polynomial.h"
#include "models/arima.h"
#include "tsa/metrics.h"

namespace capplan::models {
namespace {

std::vector<double> SimulateArma(std::size_t n,
                                 const std::vector<double>& phi,
                                 const std::vector<double>& theta,
                                 unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  const std::size_t burn = 300;
  std::vector<double> x(n + burn, 0.0);
  std::vector<double> a(n + burn, 0.0);
  for (std::size_t t = 0; t < n + burn; ++t) {
    a[t] = dist(rng);
    double v = a[t];
    for (std::size_t i = 1; i <= phi.size() && i <= t; ++i) {
      v += phi[i - 1] * x[t - i];
    }
    for (std::size_t j = 1; j <= theta.size() && j <= t; ++j) {
      v += theta[j - 1] * a[t - j];
    }
    x[t] = v;
  }
  return {x.begin() + burn, x.end()};
}

// ---------------------------------------------------------------------
// Coefficient recovery across a sweep of true ARMA processes.

struct RecoveryCase {
  std::vector<double> phi;
  std::vector<double> theta;
  unsigned seed;
};

// Gives each case a stable name, e.g. "phi{0.6,-0.2}_theta{}_seed14".
// Without it gtest prints the struct's raw bytes, which include the
// vectors' heap addresses and so change from run to run.
void PrintTo(const RecoveryCase& c, std::ostream* os) {
  const auto coefficients = [os](const std::vector<double>& v) {
    *os << '{';
    for (std::size_t i = 0; i < v.size(); ++i) {
      *os << (i > 0 ? "," : "") << v[i];
    }
    *os << '}';
  };
  *os << "phi";
  coefficients(c.phi);
  *os << "_theta";
  coefficients(c.theta);
  *os << "_seed" << c.seed;
}

class ArimaRecoveryTest : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(ArimaRecoveryTest, RecoversTrueCoefficients) {
  const auto& c = GetParam();
  const auto y = SimulateArma(6000, c.phi, c.theta, c.seed);
  const ArimaSpec spec{static_cast<int>(c.phi.size()), 0,
                       static_cast<int>(c.theta.size()), 0, 0, 0, 0};
  auto m = ArimaModel::Fit(y, spec);
  ASSERT_TRUE(m.ok()) << m.status();
  for (std::size_t i = 0; i < c.phi.size(); ++i) {
    EXPECT_NEAR(m->ar_coefficients()[i], c.phi[i], 0.12)
        << "phi[" << i << "]";
  }
  for (std::size_t j = 0; j < c.theta.size(); ++j) {
    EXPECT_NEAR(m->ma_coefficients()[j], c.theta[j], 0.15)
        << "theta[" << j << "]";
  }
  // Innovation variance ~ 1.
  EXPECT_NEAR(m->summary().sigma2, 1.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArimaRecoveryTest,
    ::testing::Values(RecoveryCase{{0.5}, {}, 11},
                      RecoveryCase{{-0.6}, {}, 12},
                      RecoveryCase{{0.9}, {}, 13},
                      RecoveryCase{{0.6, -0.2}, {}, 14},
                      RecoveryCase{{1.2, -0.5}, {}, 15},
                      RecoveryCase{{}, {0.5}, 16},
                      RecoveryCase{{}, {-0.4}, 17},
                      RecoveryCase{{}, {0.5, 0.3}, 18},
                      RecoveryCase{{0.7}, {0.3}, 19},
                      RecoveryCase{{0.4, 0.2}, {0.5}, 20}));

// ---------------------------------------------------------------------
// Forecast invariants across specs.

class ArimaSpecInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ArimaSpecInvariantTest, ForecastWellFormed) {
  const auto [p, d, q] = GetParam();
  const auto y = SimulateArma(800, {0.5}, {0.3}, 42);
  // Integrate d times so differencing has something to do.
  std::vector<double> z = y;
  for (int i = 0; i < d; ++i) {
    double acc = 0.0;
    for (auto& v : z) {
      acc += v;
      v = acc;
    }
  }
  auto m = ArimaModel::Fit(z, ArimaSpec{p, d, q, 0, 0, 0, 0});
  ASSERT_TRUE(m.ok()) << m.status();
  auto fc = m->Predict(12, 0.9);
  ASSERT_TRUE(fc.ok());
  ASSERT_EQ(fc->mean.size(), 12u);
  for (std::size_t h = 0; h < 12; ++h) {
    EXPECT_TRUE(std::isfinite(fc->mean[h]));
    EXPECT_LE(fc->lower[h], fc->mean[h]);
    EXPECT_GE(fc->upper[h], fc->mean[h]);
  }
  // Interval width is non-decreasing.
  for (std::size_t h = 1; h < 12; ++h) {
    EXPECT_GE(fc->upper[h] - fc->lower[h],
              fc->upper[h - 1] - fc->lower[h - 1] - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArimaSpecInvariantTest,
    ::testing::Combine(::testing::Values(0, 1, 3),
                       ::testing::Values(0, 1),
                       ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------
// Psi-weight variance expansion matches empirical forecast error spread.

TEST(ArimaVarianceProperty, PsiExpansionMatchesEmpiricalErrors) {
  // Fit an AR(1) on a long realization, then measure empirical h-step
  // forecast errors over many origins and compare with the model's
  // theoretical interval standard deviation.
  const double phi = 0.7;
  const auto y = SimulateArma(6000, {phi}, {}, 7);
  const std::vector<double> train(y.begin(), y.begin() + 3000);
  auto m = ArimaModel::Fit(train, ArimaSpec{1, 0, 0, 0, 0, 0, 0});
  ASSERT_TRUE(m.ok());
  const double est_phi = m->ar_coefficients()[0];
  const double sigma2 = m->summary().sigma2;
  for (std::size_t h : {1u, 3u, 6u}) {
    // Theoretical forecast variance of AR(1): sigma2 * sum phi^{2j}.
    double var = 0.0;
    for (std::size_t j = 0; j < h; ++j) {
      var += std::pow(est_phi, 2.0 * static_cast<double>(j));
    }
    var *= sigma2;
    // Empirical h-step errors using the fitted coefficient.
    double ss = 0.0;
    std::size_t count = 0;
    const double mu = m->mean();
    for (std::size_t t = 3000; t + h < y.size(); t += 7) {
      const double pred =
          mu + std::pow(est_phi, static_cast<double>(h)) * (y[t] - mu);
      const double e = y[t + h] - pred;
      ss += e * e;
      ++count;
    }
    const double empirical = ss / static_cast<double>(count);
    EXPECT_NEAR(empirical / var, 1.0, 0.2) << "h=" << h;
  }
}

// ---------------------------------------------------------------------
// The fitted model's psi-weights agree with the closed form for AR(1).

TEST(ArimaVarianceProperty, PsiWeightsOfFittedModel) {
  const auto y = SimulateArma(4000, {0.6}, {}, 9);
  auto m = ArimaModel::Fit(y, ArimaSpec{1, 0, 0, 0, 0, 0, 0});
  ASSERT_TRUE(m.ok());
  const auto psi =
      math::PsiWeights(m->ar_coefficients(), m->ma_coefficients(), 6);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(psi[j],
                std::pow(m->ar_coefficients()[0],
                         static_cast<double>(j)),
                1e-12);
  }
}

// ---------------------------------------------------------------------
// Seasonal sweep: SARIMA handles several periods.

class SarimaPeriodTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SarimaPeriodTest, TracksSeasonAtAnyPeriod) {
  const std::size_t period = GetParam();
  std::mt19937 rng(static_cast<unsigned>(period));
  std::normal_distribution<double> dist(0.0, 0.4);
  std::vector<double> y(period * 30);
  for (std::size_t t = 0; t < y.size(); ++t) {
    y[t] = 10.0 +
           4.0 * std::sin(2.0 * M_PI * static_cast<double>(t) /
                          static_cast<double>(period)) +
           dist(rng);
  }
  auto m = ArimaModel::Fit(
      y, ArimaSpec{0, 0, 0, 0, 1, 1, period});
  ASSERT_TRUE(m.ok()) << m.status();
  auto fc = m->Predict(period);
  ASSERT_TRUE(fc.ok());
  std::vector<double> expected(period);
  for (std::size_t h = 0; h < period; ++h) {
    expected[h] = 10.0 + 4.0 * std::sin(2.0 * M_PI *
                                        static_cast<double>(y.size() + h) /
                                        static_cast<double>(period));
  }
  auto rmse = tsa::Rmse(expected, fc->mean);
  ASSERT_TRUE(rmse.ok());
  EXPECT_LT(*rmse, 0.8);
}

INSTANTIATE_TEST_SUITE_P(Periods, SarimaPeriodTest,
                         ::testing::Values(4, 7, 12, 24, 52));

}  // namespace
}  // namespace capplan::models
