#include "math/fft.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace capplan::math {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Naive O(n^2) DFT reference.
std::vector<std::complex<double>> NaiveDft(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> s{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(j * k) /
                         static_cast<double>(n);
      s += x[j] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

std::vector<std::complex<double>> RealToComplex(
    const std::vector<double>& x) {
  std::vector<std::complex<double>> cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = {x[i], 0.0};
  return cx;
}

void ExpectClose(const std::vector<std::complex<double>>& a,
                 const std::vector<std::complex<double>>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "index " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "index " << i;
  }
}

TEST(FftTest, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto spec = Fft(x);
  for (const auto& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ConstantSignalConcentratesAtDc) {
  std::vector<std::complex<double>> x(16, {2.0, 0.0});
  const auto spec = Fft(x);
  EXPECT_NEAR(spec[0].real(), 32.0, 1e-10);
  for (std::size_t k = 1; k < spec.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-10);
  }
}

// Parameterized agreement with the naive DFT across lengths, including
// non-powers of two (exercising the Bluestein path).
class FftAgreementTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgreementTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(i)) +
           0.3 * std::cos(2.1 * static_cast<double>(i)) +
           0.01 * static_cast<double>(i);
  }
  const auto fast = FftReal(x);
  const auto slow = NaiveDft(RealToComplex(x));
  ExpectClose(fast, slow, 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftAgreementTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 24, 31,
                                           60, 64, 100, 168, 256, 720));

class FftRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTripTest, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {std::cos(0.3 * static_cast<double>(i)),
            std::sin(1.1 * static_cast<double>(i))};
  }
  const auto back = InverseFft(Fft(x));
  ExpectClose(back, x, 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTripTest,
                         ::testing::Values(1, 2, 3, 8, 17, 48, 100, 255, 256));

TEST(PeriodogramTest, DetectsSinePeriod) {
  const std::size_t n = 240;
  const std::size_t period = 24;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 5.0 + std::sin(2.0 * kPi * static_cast<double>(i) /
                          static_cast<double>(period));
  }
  const auto pgram = Periodogram(x);
  ASSERT_EQ(pgram.size(), n / 2);
  // Peak should be at k = n / period = 10, i.e. index 9.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < pgram.size(); ++i) {
    if (pgram[i] > pgram[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, 9u);
}

TEST(PeriodogramTest, MeanRemovedSoDcAbsent) {
  // Large mean must not leak into low frequencies.
  std::vector<double> x(64, 1000.0);
  x[10] += 1.0;  // tiny blip
  const auto pgram = Periodogram(x);
  double total = 0.0;
  for (double v : pgram) total += v;
  EXPECT_LT(total, 10.0);
}

TEST(PeriodogramTest, ParsevalHolds) {
  std::vector<double> x(128);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.4 * static_cast<double>(i)) +
           0.5 * std::cos(0.9 * static_cast<double>(i));
  }
  // Sum over all bins of |X_k|^2/n equals sum of x^2 (on demeaned x).
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double ss = 0.0;
  for (double v : x) ss += (v - mean) * (v - mean);
  std::vector<double> centered(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) centered[i] = x[i] - mean;
  const auto spec = FftReal(centered);
  double spec_ss = 0.0;
  for (const auto& v : spec) spec_ss += std::norm(v);
  spec_ss /= static_cast<double>(x.size());
  EXPECT_NEAR(spec_ss, ss, 1e-8);
}

TEST(PeriodogramTest, TooShortReturnsEmpty) {
  EXPECT_TRUE(Periodogram({1.0}).empty());
  EXPECT_TRUE(Periodogram({}).empty());
}

// Periodogram bits on a fixed series, captured from the default x86-64
// build. Any conforming build must reproduce them, an -march=x86-64-v3 one
// included; a build that fuses the complex multiplies into FMAs does not
// (1008 takes the Bluestein path, 1024 the plain radix-2 one).
TEST(PeriodogramTest, BitsArePinned) {
  struct Pin {
    std::size_t n;
    std::uint64_t fnv;  // FNV-1a of the ordinates' bytes
  };
  const Pin pins[] = {{1008, 0x348a1f63bb9c8301ULL},
                      {1024, 0xf62efffd041ab4d9ULL}};
  for (const Pin& pin : pins) {
    std::vector<double> x(pin.n);
    for (std::size_t t = 0; t < pin.n; ++t) {
      x[t] = 100.0 + 0.05 * static_cast<double>(t) +
             1.5 * static_cast<double>(t % 24) +
             2.0 * static_cast<double>((t / 24) % 7) +
             0.1 * static_cast<double>((7919 * t) % 13);
    }
    const std::vector<double> pgram = Periodogram(x);
    ASSERT_EQ(pgram.size(), pin.n / 2);
    std::uint64_t hash = 1469598103934665603ULL;
    for (double v : pgram) {
      const std::uint64_t b = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i) {
        hash ^= (b >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
      }
    }
    EXPECT_EQ(hash, pin.fnv) << "n=" << pin.n;
  }
}

}  // namespace
}  // namespace capplan::math
