// The 4-lane SSE kernels behind EtsModel::Fit and DshwModel::Fit: every
// lane of a batch gets the bits the one-lane pass gives its parameter set,
// diverging sets included, and the one-lane pass itself is pinned.

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/dshw.h"
#include "models/ets.h"

namespace capplan::models {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// 41 days of hourly load: a daily cycle over a mild trend, with noise.
std::vector<double> SeasonalSeries(unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::vector<double> y(984);
  for (std::size_t t = 0; t < y.size(); ++t) {
    const double hour = static_cast<double>(t % 24);
    y[t] = 60.0 + 0.01 * static_cast<double>(t) +
           15.0 * std::sin(2.0 * M_PI * hour / 24.0) + noise(rng);
  }
  return y;
}

// The seasonal series with a spike ten orders of magnitude above the load
// every five days: smoothing that reacts hard to one overshoots past the
// divergence bounds, gentler smoothing does not.
std::vector<double> SpikySeries(unsigned seed) {
  std::vector<double> y = SeasonalSeries(seed);
  for (std::size_t t = 400; t < y.size(); t += 120) y[t] = 5e11;
  return y;
}

// Positive load whose hour-5 readings in the first two days are ~1e-10, so
// the multiplicative index of that phase starts below 1e-9.
std::vector<double> NearZeroPhaseSeries(unsigned seed) {
  std::vector<double> y = SeasonalSeries(seed);
  y[5] = 1e-10;
  y[29] = 2e-10;
  return y;
}

// The seasonal series with one missing reading (NaN) after the two days the
// initial states are taken from: every recursion diverges there.
std::vector<double> GappySeries(unsigned seed) {
  std::vector<double> y = SeasonalSeries(seed);
  y[500] = std::nan("");
  return y;
}

// A whole series below 1e-9: the multiplicative base is too small to divide
// by from the first step.
std::vector<double> TinySeries(unsigned seed) {
  std::vector<double> y = SeasonalSeries(seed);
  for (double& v : y) v *= 1e-12;
  return y;
}

std::vector<EtsSpec> AllForms() {
  std::vector<EtsSpec> specs;
  for (EtsTrend trend : {EtsTrend::kNone, EtsTrend::kAdditive,
                         EtsTrend::kAdditiveDamped}) {
    for (EtsSeasonal seasonal : {EtsSeasonal::kNone, EtsSeasonal::kAdditive,
                                 EtsSeasonal::kMultiplicative}) {
      EtsSpec spec;
      spec.trend = trend;
      spec.seasonal = seasonal;
      spec.period = seasonal == EtsSeasonal::kNone ? 0 : 24;
      specs.push_back(spec);
    }
  }
  return specs;
}

// Mostly admissible parameters, a quarter with alpha > 2 (explosive), and
// some near alpha = 0.99.
EtsParams RandomEtsParams(std::mt19937& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  EtsParams p;
  const double pick = unit(rng);
  p.alpha = pick < 0.25   ? 2.1 + unit(rng)
            : pick < 0.45 ? 0.99 - 0.01 * unit(rng)
                          : 0.01 + 0.98 * unit(rng);
  p.beta = 0.5 * unit(rng) * p.alpha;
  p.gamma = unit(rng) * 0.99;
  p.phi = 0.8 + 0.195 * unit(rng);
  return p;
}

DshwParams RandomDshwParams(std::mt19937& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  DshwParams p;
  const double pick = unit(rng);
  p.alpha = pick < 0.25   ? 1.5 + unit(rng)
            : pick < 0.45 ? 0.99 - 0.01 * unit(rng)
                          : 0.01 + 0.98 * unit(rng);
  p.beta = 0.001 + 0.499 * unit(rng);
  p.gamma1 = 0.001 + 0.989 * unit(rng);
  p.gamma2 = 0.001 + 0.989 * unit(rng);
  p.phi = -0.95 + 1.9 * unit(rng);
  return p;
}

// Tallies of what the lane checks saw, so a test can show it reached both
// converging and diverging sets.
struct Seen {
  int finite = 0;
  int diverged = 0;
};

// Evaluates `sets` as one batch and each set alone (the one-lane pass), and
// expects the same bits per set.
template <typename Params, typename Eval>
void ExpectLanesMatchOneLane(const std::vector<Params>& sets, Eval eval,
                             Seen* seen) {
  const auto batch = eval(std::span<const Params>(sets));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto alone = eval(std::span<const Params>(&sets[i], 1));
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(Bits((*batch)[i]), Bits((*alone)[0]))
        << "set " << i << " of " << sets.size() << ": " << (*batch)[i]
        << " vs " << (*alone)[0];
    EXPECT_FALSE(std::isnan((*alone)[0]));
    if ((*alone)[0] == kInf) {
      ++seen->diverged;
    } else {
      ++seen->finite;
    }
  }
}

TEST(SmoothingLanesTest, EtsLanesMatchOneLanePass) {
  std::mt19937 rng(2024);
  const std::vector<std::vector<double>> series = {
      SeasonalSeries(1), SpikySeries(2), NearZeroPhaseSeries(3),
      TinySeries(4), GappySeries(5)};
  for (const EtsSpec& spec : AllForms()) {
    Seen seen;
    for (std::size_t s = 0; s < series.size(); ++s) {
      SCOPED_TRACE(spec.ToString() + " series " + std::to_string(s));
      auto eval = [&](std::span<const EtsParams> sets) {
        return EtsModel::SumSquaredErrors(series[s], spec, sets);
      };
      for (std::size_t size = 1; size <= 6; ++size) {
        for (int rep = 0; rep < 3; ++rep) {
          std::vector<EtsParams> sets(size);
          for (auto& p : sets) p = RandomEtsParams(rng);
          ExpectLanesMatchOneLane(sets, eval, &seen);
        }
      }
      // One explosive set at every lane position among tame ones.
      for (std::size_t size = 2; size <= 6; ++size) {
        for (std::size_t bad = 0; bad < size; ++bad) {
          std::vector<EtsParams> sets(size, EtsParams{0.2, 0.02, 0.1, 0.9});
          sets[bad].alpha = 2.5;
          ExpectLanesMatchOneLane(sets, eval, &seen);
        }
      }
    }
    EXPECT_GT(seen.finite, 0) << spec.ToString();
    EXPECT_GT(seen.diverged, 0) << spec.ToString();
  }
}

TEST(SmoothingLanesTest, DshwLanesMatchOneLanePass) {
  std::mt19937 rng(7);
  const std::vector<std::vector<double>> series = {
      SeasonalSeries(5), SpikySeries(6), GappySeries(7)};
  Seen seen;
  for (std::size_t s = 0; s < series.size(); ++s) {
    SCOPED_TRACE("series " + std::to_string(s));
    auto eval = [&](std::span<const DshwParams> sets) {
      return DshwModel::SumSquaredErrors(series[s], 24, 168, sets);
    };
    for (std::size_t size = 1; size <= 6; ++size) {
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<DshwParams> sets(size);
        for (auto& p : sets) p = RandomDshwParams(rng);
        ExpectLanesMatchOneLane(sets, eval, &seen);
      }
    }
    for (std::size_t size = 2; size <= 6; ++size) {
      for (std::size_t bad = 0; bad < size; ++bad) {
        std::vector<DshwParams> sets(size,
                                     DshwParams{0.1, 0.01, 0.1, 0.1, 0.2});
        sets[bad].alpha = 2.5;
        ExpectLanesMatchOneLane(sets, eval, &seen);
      }
    }
  }
  EXPECT_GT(seen.finite, 0);
  EXPECT_GT(seen.diverged, 0);
}

// A set alone goes through the pass Fit ends with: same SSE bits as a fit
// with those parameters fixed.
TEST(SmoothingLanesTest, OneLaneSseIsTheFitSse) {
  const std::vector<double> y = SeasonalSeries(9);
  for (const EtsSpec& spec : AllForms()) {
    EtsModel::Options fixed;
    fixed.optimize = false;
    auto model = EtsModel::Fit(y, spec, fixed);
    ASSERT_TRUE(model.ok()) << spec.ToString();
    const EtsParams p{model->alpha(), model->beta(), model->gamma(),
                      model->phi()};
    auto sse = EtsModel::SumSquaredErrors(y, spec, std::span(&p, 1));
    ASSERT_TRUE(sse.ok());
    EXPECT_EQ(Bits((*sse)[0]), Bits(model->summary().sse)) << spec.ToString();
  }
  DshwModel::Options fixed;
  fixed.optimize = false;
  fixed.phi = 0.2;
  auto model = DshwModel::Fit(y, 24, 168, fixed);
  ASSERT_TRUE(model.ok());
  const DshwParams p{model->alpha(), model->beta(), model->gamma1(),
                     model->gamma2(), model->phi()};
  auto sse = DshwModel::SumSquaredErrors(y, 24, 168, std::span(&p, 1));
  ASSERT_TRUE(sse.ok());
  EXPECT_EQ(Bits((*sse)[0]), Bits(model->summary().sse));
}

TEST(SmoothingLanesTest, SumSquaredErrorsChecksInputLikeFit) {
  const std::vector<double> short_y(30, 1.0);
  const EtsParams ets;
  EXPECT_FALSE(
      EtsModel::SumSquaredErrors(short_y, HoltWinters(24), std::span(&ets, 1))
          .ok());
  const DshwParams dshw;
  EXPECT_FALSE(
      DshwModel::SumSquaredErrors(short_y, 24, 168, std::span(&dshw, 1)).ok());
  EXPECT_FALSE(DshwModel::SumSquaredErrors(SeasonalSeries(1), 24, 100,
                                           std::span(&dshw, 1))
                   .ok());
}

// 100 + 0.05 t + 1.5 (t mod 24) + 0.1 ((7919 t) mod 13): built from exact
// IEEE operations only, so its bits do not depend on a math library.
std::vector<double> PortableSeries() {
  std::vector<double> y(504);
  for (std::size_t t = 0; t < y.size(); ++t) {
    y[t] = 100.0 + 0.05 * static_cast<double>(t) +
           1.5 * static_cast<double>(t % 24) +
           0.1 * static_cast<double>((7919 * t) % 13);
  }
  return y;
}

std::uint64_t Fnv(const std::vector<double>& values,
                  std::uint64_t hash = 1469598103934665603ULL) {
  for (double v : values) {
    const std::uint64_t b = Bits(v);
    for (int i = 0; i < 8; ++i) {
      hash ^= (b >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

// The one-lane recursions with fixed parameters on a portable series, pinned
// to the bits of the scalar recursions they replaced. No step calls a math
// library, so any conforming build must reproduce them; a build that fuses
// a*b+c into FMA (floating-point contraction) does not.
TEST(SmoothingLanesTest, PinnedRecursionBits) {
  struct Pin {
    const char* spec;
    std::uint64_t sse, level, trend;
    std::uint64_t states;  // FNV-1a of seasonal states, fitted, residuals
  };
  const Pin pins[] = {
      {"ETS(A,N,N)", 0x40e345a7ff6585beULL, 0x406391f2f66c1947ULL,
       0x0000000000000000ULL, 0xc1336661771146deULL},
      {"ETS(A,N,A) m=24", 0x40612c44a0769198ULL, 0x4061c960b7f373ebULL,
       0x0000000000000000ULL, 0x5defd5bfdb8d7f1fULL},
      {"ETS(A,N,M) m=24", 0x4077a6ab34a4a110ULL, 0x40619486e58eb29aULL,
       0x0000000000000000ULL, 0x9d9e20b68d0a276aULL},
      {"ETS(A,A,N)", 0x40e9c11ed5d07380ULL, 0x40640bdaf872570aULL,
       0x3ff5cc140c73073eULL, 0xcaa81e6bf71ba75dULL},
      {"ETS(A,A,A) m=24", 0x406834625550ac09ULL, 0x4061bcb405e98620ULL,
       0xbfc17b7d2cdef562ULL, 0x1451e23756cc9329ULL},
      {"ETS(A,A,M) m=24", 0x408c301fc2cca912ULL, 0x40612cf18ded9762ULL,
       0xbfe0b655102682cdULL, 0x9fa11c3d99aa42b3ULL},
      {"ETS(A,Ad,N)", 0x40e852f4f9e4ec31ULL, 0x40640316882480deULL,
       0x3ff538d0cd0080bcULL, 0xf68da2e7d18a6f78ULL},
      {"ETS(A,Ad,A) m=24", 0x4066d98e139adcbeULL, 0x4061c00fea51165aULL,
       0xbfbc4b192a0fa54cULL, 0xb6aa925f76676c63ULL},
      {"ETS(A,Ad,M) m=24", 0x408812e9ab5b40f4ULL, 0x40613cdb1529041bULL,
       0xbfdc0f22c6dc3afbULL, 0x069ff23a46c29ef4ULL},
  };
  const std::vector<double> y = PortableSeries();
  const std::vector<EtsSpec> specs = AllForms();
  ASSERT_EQ(specs.size(), std::size(pins));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Pin& pin = pins[i];
    ASSERT_EQ(specs[i].ToString(), pin.spec);
    EtsModel::Options fixed;  // alpha 0.3, beta 0.1, gamma 0.1, phi 0.98
    fixed.optimize = false;
    auto model = EtsModel::Fit(y, specs[i], fixed);
    ASSERT_TRUE(model.ok()) << pin.spec;
    EXPECT_EQ(Bits(model->summary().sse), pin.sse) << pin.spec;
    EXPECT_EQ(Bits(model->level_state()), pin.level) << pin.spec;
    EXPECT_EQ(Bits(model->trend_state()), pin.trend) << pin.spec;
    EXPECT_EQ(Fnv(model->residuals(),
                  Fnv(model->fitted(), Fnv(model->seasonal_states()))),
              pin.states)
        << pin.spec;
  }

  DshwModel::Options fixed;  // alpha 0.1, beta 0.01, gamma1 = gamma2 = 0.1
  fixed.optimize = false;
  fixed.phi = 0.2;
  auto dshw = DshwModel::Fit(y, 24, 168, fixed);
  ASSERT_TRUE(dshw.ok());
  EXPECT_EQ(Bits(dshw->summary().sse), 0x404f93068aa54db1ULL);
  // The forecast mean is the final state played forward with exact
  // arithmetic: two long periods of it cover every seasonal state.
  auto fc = dshw->Predict(336);
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(Bits(fc->mean[0]), 0x405f5bceb0893d6aULL);
  EXPECT_EQ(Fnv(fc->mean), 0xfce3f58f61e5decbULL);
}

}  // namespace
}  // namespace capplan::models
