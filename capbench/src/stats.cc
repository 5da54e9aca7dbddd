#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace capbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 1-based nearest rank of percentile p over n samples.
std::size_t NearestRank(std::size_t n, double p) {
  // p * n first: it is exact for whole percentiles, so 99% of 1000 is 990.
  const double r = std::ceil(p * static_cast<double>(n) / 100.0);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (n - NearestRank(n, p) >= 10) {
      tail.percentile = p;
      tail.value = values[NearestRank(n, p) - 1];
      return tail;
    }
  }
  tail.percentile = 50.0;
  tail.value = Median(std::move(values));
  return tail;
}

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfKeys::ZipfKeys(std::size_t n, double s, std::uint64_t rank_seed,
                   std::uint64_t draw_seed)
    : cdf_(n), order_(n), rng_(draw_seed) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  SplitMix64 shuffle(rank_seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(shuffle.Next() % i);
    std::swap(order_[i - 1], order_[j]);
  }
}

std::size_t ZipfKeys::Next() {
  const double u = rng_.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return order_[rank];
}

void OpsLedger::Refits(std::uint64_t attempted, std::uint64_t failed_or_degraded) {
  attempted_ += attempted;
  failed_ += failed_or_degraded;
}

void OpsLedger::Writes(std::uint64_t written, std::uint64_t failed) {
  attempted_ += written + failed;
  failed_ += failed;
}

void OpsLedger::Tick(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void OpsLedger::Request(bool transport_ok, int status) {
  ++attempted_;
  if (!transport_ok || status != 200) ++failed_;
}

void OpsLedger::Merge(const OpsLedger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

double OpsLedger::FailedFrac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace capbench
