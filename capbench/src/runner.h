#ifndef CAPBENCH_RUNNER_H_
#define CAPBENCH_RUNNER_H_

// Internal to the benchmark: the state one workload run carries between its
// phases (bench.cc) and the traced per-layer replays (layers.cc).

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "serve/http.h"
#include "service/estate_service.h"
#include "spans.h"
#include "workload/cluster.h"

namespace capbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Cores this process may run on (what `nproc` prints).
std::size_t Nproc();

// Bytes of every regular file under `path` (0 when absent).
std::uint64_t DirBytes(const std::string& path);

// Parses a GET for `target` the way the server would.
capplan::serve::HttpRequest ParseGet(const std::string& target);

// Which keys the load generator favours is a property of the estate, the
// same for every seed; the seed drives only the sequence of draws.
inline constexpr std::uint64_t kHotKeysSeed = 1;

enum Endpoint { kForecast, kBreach, kHeadroom, kDecompose, kEstate, kEndpoints };
extern const char* const kEndpointNames[kEndpoints];

// Every query identity the load generator can send: four per key plus the
// estate summary. /v1/decompose targets only keys the in-process handler
// answered 200 when the table was built.
struct QueryTable {
  struct Query {
    const std::string* target = nullptr;
    int key = -1;  // index into keys; -1 for /v1/estate
    Endpoint endpoint = kEstate;
  };

  std::vector<std::string> keys;
  std::vector<std::array<std::string, 4>> targets;  // per key, per endpoint
  std::vector<bool> decomposable;
  std::string estate_target = "/v1/estate";

  // Key by the Zipf draw, endpoint by one fixed mix for every client (25%
  // forecast, 30% breach, 25% headroom, 10% decompose, 10% estate). The mix
  // and the Zipf exponent are assumptions; no measured traffic backs them.
  Query Draw(ZipfKeys* zipf, SplitMix64* rng) const;
};

struct ServeStats {
  double wall_s = 0.0;
  std::uint64_t ok = 0;             // 200s completed inside the window
  std::vector<double> latency_ms;   // client-side, those 200s
  std::vector<double> segment_req_per_s;  // per snapshot cycle of ticks
  std::vector<double> segment_p50_ms;
  std::vector<double> handle_ms;    // in-process Handle() time (traced only)
  std::vector<double> answer_lag_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t throttled = 0;

  // Appends another serve block's figures to these.
  void Add(const ServeStats& other);
};

// One round's figures that settle within a round. The run reports, for
// each, the round where it came out best: other tenants' slow spells only
// ever add time, so the best round is the one they disturbed least.
struct RoundFigures {
  double recover_s = 0.0;  // median of the round's recoveries
  Tail req_tail;
};

// Which selection a key's champion came from, replayed alone.
struct SoloFit {
  bool ok = false;
  std::string technique;
  std::string spec;
  double test_rmse = 0.0;
  std::string error;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& options);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  RunResult Run();

 private:
  struct TickWindow {
    std::int64_t from = 0;
    std::int64_t to = 0;
  };

  std::unique_ptr<capplan::service::EstateService> NewService(
      const std::string& state_dir) const;
  std::size_t PollsPerTick() const;
  std::size_t Clients() const;
  std::uint64_t RefitsDone() const;

  // One set-up of a fresh service into svc_, after accounting the one it
  // replaces; false when it failed.
  bool SetUp();
  // One measured Tick(): timed, checked (samples == keys x polls) and
  // accounted; false when it errored.
  bool MeasuredTick(capplan::service::TickReport* report);
  // The timed phase: kRounds rounds of main ticks (not on serve_live),
  // recoveries and a serve block, so every figure's samples spread over the
  // whole run. Returns wall ms per operation of the workload's main work.
  double RunRounds();
  // Ticks back to back, draining whatever a tick dispatched before the next
  // one: IngestTicks(seconds) ticks on ingest, refit rounds until `seconds`.
  void MainTicks(double seconds);
  ServeStats Serve(double seconds);
  void BuildQueryTable();
  // Ticks without timing them (still counted, and their windows kept)
  // until `done()`, draining whatever refits a tick dispatches; false on an
  // error.
  bool QuietTicks(const std::function<bool()>& done);
  // Ticks a serve block of about `seconds` makes, at kServeTickCadenceS.
  static std::int64_t ServeTicks(double seconds);
  // Ticks the ingest window makes: one snapshot cycle per second of
  // `seconds`, fixed by the arguments alone.
  static std::int64_t IngestTicks(double seconds);
  // True when a refit round (more than a tenth of the keys due on the same
  // tick) falls due within the next `ticks` ticks.
  bool RefitRoundWithin(std::int64_t ticks) const;
  // Ticks to a fixed early point and copies the state directory there, so
  // every recovery of the run rebuilds the same state.
  void FreezeRecoveryPoint();
  // `n` fresh services Recover() from the frozen copy, timed.
  void Recoveries(int n);
  void CheckRecovery();
  void CheckWinners();
  // The figures of the round whose recoveries start at `recoveries0` in
  // recover_s_ and which served `block`.
  RoundFigures RoundOf(std::size_t recoveries0, const ServeStats& block) const;
  void EmitEndToEnd();
  // Tick() absorbs journal and snapshot write failures into the service's
  // io_errors and still returns ok: fails the run, naming `phase`, if any
  // happened since the last check.
  void CheckWrites(const char* phase);
  // Counts svc_'s refits and its journal and snapshot writes into the
  // ledger: refits failed or below the full rung and absorbed write failures
  // as failed. Once per service, when the run is done with it.
  void AccountService();
  void Fail(const std::string& what);
  void Emit(const std::string& name, double value, const std::string& unit);

  // Fit window of `key`'s current champion, rebuilt from the live history
  // exactly as the service sliced it at dispatch time.
  bool ChampionWindow(const std::string& key, capplan::tsa::TimeSeries* window);
  // The pipeline options the service ran `key`'s champion refit with: one
  // thread, the staleness horizon, the ladder, the quality gate applied to
  // the sentinel's verdict (`trainable`), and the warm-start hint the then
  // champion (now the previous generation) supplied.
  capplan::core::PipelineOptions FitOptions(const std::string& key,
                                            capplan::core::Technique technique,
                                            bool trainable) const;
  // The refit the service runs on `key`'s champion window: sentinel repair,
  // the quality gate, then Pipeline::Run.
  capplan::Result<capplan::core::PipelineReport> RefitLikeService(
      const std::string& key, const capplan::tsa::TimeSeries& window,
      capplan::core::Technique technique) const;

  // Traced run only (layers.cc): replays each layer's public calls on this
  // run's inputs and emits the per-layer metrics.
  void TraceLayers(double untraced_op_ms, double traced_op_ms);

  const WorkloadSpec& spec_;
  RunOptions options_;
  std::size_t threads_;
  std::string state_dir_;
  std::string recovery_dir_;  // the frozen copy Recoveries() read
  Spans spans_;

  capplan::workload::ClusterSimulator cluster_;
  std::vector<capplan::service::WatchConfig> watches_;
  std::vector<std::string> keys_;
  capplan::service::EstateServiceConfig config_;
  std::unique_ptr<capplan::service::EstateService> svc_;
  QueryTable queries_;

  RunResult result_;

  // Measurements carried between phases.
  std::vector<double> setup_s_;
  std::vector<double> first_round_refits_per_s_;
  double first_round_wall_s_ = 0.0;
  std::vector<double> tick_ms_;
  std::vector<bool> tick_snapshot_;  // parallel to tick_ms_
  bool record_ticks_ = true;         // main-phase ticks feed the tick figures
  std::uint64_t tick_samples_ = 0;
  std::vector<TickWindow> windows_;
  std::size_t queue_depth_max_ = 0;
  double main_wall_s_ = 0.0;
  std::uint64_t main_refits_ = 0;
  std::uint64_t main_ticks_ = 0;
  std::uint64_t main_journal_bytes_ = 0;
  ServeStats serve_;
  std::vector<double> recover_s_;
  std::vector<RoundFigures> rounds_;  // of the last RunRounds()
  std::uint64_t recovery_ticks_ = 0;  // tick count at the frozen point
  std::uint64_t io_errors_seen_ = 0;  // svc_'s, at the last CheckWrites
  // Taken from the live service before the last set-up replaces it.
  double stored_bytes_per_sample_ = 0.0;
  double holdout_mape_pct_ = 0.0;
  std::map<std::string, SoloFit> solo_;  // workload-technique winners by key
};

}  // namespace capbench

#endif  // CAPBENCH_RUNNER_H_
