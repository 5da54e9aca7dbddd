#ifndef CAPBENCH_STATS_H_
#define CAPBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace capbench {

// Median of `values` (mean of the two middle values for an even count);
// 0 for an empty input.
double Median(std::vector<double> values);

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

// A latency tail: the highest percentile of the ladder 99/95/90/75/50 that
// still has at least ten samples beyond its nearest rank, so the reported
// tail is never a single outlier. Inputs with fewer than twenty samples fall
// back to the median (percentile 50), and `samples` says how many there were.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// splitmix64: a tiny, platform-independent generator, so a seed names the
// same request sequence on every compiler and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();  // [0, 1)

 private:
  std::uint64_t state_;
};

// Zipf-skewed draw over `n` items: rank r (1-based) has weight 1 / r^s.
// `rank_seed` fixes which item holds which rank (which keys are hot) and
// `draw_seed` the sequence of draws; equal seeds give equal sequences.
class ZipfKeys {
 public:
  ZipfKeys(std::size_t n, double s, std::uint64_t rank_seed,
           std::uint64_t draw_seed);
  std::size_t Next();
  // The item holding rank 1 (the hottest key).
  std::size_t Hottest() const { return order_.front(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> order_;
  SplitMix64 rng_;
};

// Failure accounting behind ops_failed_frac: every refit, tick, durable write
// and request the benchmark makes is attempted; a refit that failed or landed
// below the full selection rung, a tick that errored, a journal or snapshot
// write the service absorbed as an I/O error, and a request with a transport
// error or any status other than 200 (429 included) count as failed.
class OpsLedger {
 public:
  void Refits(std::uint64_t attempted, std::uint64_t failed_or_degraded);
  void Writes(std::uint64_t written, std::uint64_t failed);
  void Tick(bool ok);
  void Request(bool transport_ok, int status);
  void Merge(const OpsLedger& other);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double FailedFrac() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace capbench

#endif  // CAPBENCH_STATS_H_
