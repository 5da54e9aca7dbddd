#ifndef CAPBENCH_BENCH_H_
#define CAPBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/split.h"
#include "stats.h"

namespace capbench {

// What the timed part of a workload does; every workload also sets up, serves
// and recovers, so each one reports every end-to-end metric.
enum class MainPhase {
  kRefitRounds,  // tick hourly; whenever a tick dispatches refits, drain them
  kIngest,       // tick back to back
  kServe,        // closed-loop HTTP clients while ticking on a wall cadence
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  MainPhase main = MainPhase::kIngest;
  bool oltp = false;       // OLTP scenario (Experiment Two) instead of OLAP
  int instances = 0;       // x {cpu, memory, logical_iops} watches
  capplan::core::Technique technique = capplan::core::Technique::kHes;
  std::int64_t staleness_hours = 7 * 24;
  // Serve time over a run's rounds on a non-serve workload; 0 = --seconds.
  double side_serve_seconds = 0.0;
  // Replayed keys that also run the SARIMAX grid and TBATS lattice when
  // traced; 0 = all of them.
  std::size_t core_keys = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  // correctness checks that did not hold
  OpsLedger ops;
  std::vector<Metric> metrics;  // in print order
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace capbench

#endif  // CAPBENCH_BENCH_H_
