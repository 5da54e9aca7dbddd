#ifndef CAPPLAN_COMMON_FAULT_H_
#define CAPPLAN_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace capplan {

// Deterministic fault-injection registry. Production code paths that touch
// the outside world (journal appends, CSV/snapshot writes, model fits, agent
// polls) consult a named *site* before doing their work; tests arm a site
// with a plan describing which calls fail, run a chaos scenario, and assert
// the recovery invariants. Everything is deterministic: whether call #n at a
// site fires depends only on (plan, seed, site name, n), never on wall time
// or thread scheduling, so a failing scenario replays exactly.
//
// When no site is armed the per-call cost is one relaxed atomic load; the
// harness is compiled into release builds and safe to leave in hot paths.
//
// Wired sites (grep for FaultHit/FaultFires to find the exact points):
//   journal.append      EventJournal::Append fails before writing
//   journal.torn        EventJournal::Append writes a partial line (torn
//                       tail, as a crash mid-append would leave) and fails
//   csv.write           repo::WriteCsvRecords (under WriteCsv) fails
//                       before creating the file (snapshots, registry,
//                       schedule, alert tables)
//   csv.write_series    repo::WriteSeriesCsv fails (repository SaveAll)
//   model_store.save    ModelRepository::Save fails
//   agent.collect       MonitoringAgent::Collect fails outright
//   agent.poison        one collected sample is replaced with garbage
//   pipeline.run        core::Pipeline::Run fails before doing anything
//                       (a refit worker dying, in service terms)
//   selector.grid       the SARIMAX grid-selection stage fails, which
//                       drives the degradation ladder to the HES rung
//   selector.periods    FFT period detection fails; the router degrades to
//                       the single-season path (no detected periods, so no
//                       TBATS/Fourier routing) WITHOUT entering the ladder
//   pipeline.tbats      the TBATS lattice branch fails; under
//                       degrade_on_failure a kTbats selection rides the
//                       normal full -> HES -> SES -> naive ladder
//   pipeline.hes        the HES selection rung fails (ladder -> SES)
//   pipeline.ses        the SES rung fails (ladder -> seasonal-naive)
//   pipeline.poison_fit a refit "succeeds" with ruined held-out accuracy
//                       (exercises the champion/challenger promotion gate)
//   pipeline.poison_forecast
//                       a refit succeeds with clean reported accuracy but a
//                       ruined forecast (exercises the live-accuracy
//                       guardrail and automatic rollback)
//   serve.accept        the HTTP server drops a freshly accepted connection
//   serve.read          an HTTP socket read fails (client torn mid-request)
//   serve.write         an HTTP socket write fails mid-response
//   store.seal          SeriesStore fails to compress a hot run (absorbed:
//                       the samples stay hot and sealing retries)
//   store.flush         TieredStore::Flush fails before writing its segment
//                       file (snapshot retries at the next interval)
//   store.reopen        TieredStore::Open fails before reading (recovery
//                       falls back to a full agent re-poll)

// Which calls at an armed site fail. Counting starts at the moment the site
// is armed; `skip` calls pass, then `fail` calls fire, then the site is
// exhausted and passes everything (but stays registered for its counters).
// When `probability` > 0 it replaces the skip/fail window: each call fires
// independently with that probability, decided by a counter-based hash of
// (seed, site, call index).
struct FaultPlan {
  int skip = 0;               // calls to let through before failing
  int fail = 1;               // calls that fail; -1 = every call forever
  double probability = 0.0;   // when > 0: seeded per-call coin instead
  StatusCode code = StatusCode::kIoError;
  std::string message;        // optional detail appended to the site name

  // Factories for the common shapes, so call sites read as intent.
  static FaultPlan FailN(int n) {
    FaultPlan p;
    p.fail = n;
    return p;
  }
  static FaultPlan FailForever() { return FailN(-1); }
  static FaultPlan FailAfter(int skip, int n) {
    FaultPlan p;
    p.skip = skip;
    p.fail = n;
    return p;
  }
  static FaultPlan WithProbability(double prob) {
    FaultPlan p;
    p.probability = prob;
    return p;
  }
};

class FaultInjector {
 public:
  // Process-wide instance used by all wired sites.
  static FaultInjector& Global();

  void Arm(const std::string& site, FaultPlan plan);
  void Disarm(const std::string& site);
  // Disarms every site and zeroes all counters and the seed.
  void Reset();

  void set_seed(std::uint64_t seed);

  // Advances the site's call counter and reports whether this call fails.
  // Disarmed sites return false without taking the registry lock.
  bool Fires(const char* site);

  // Fires() wrapped in a Status built from the plan (OK when passing).
  Status Hit(const char* site);

  // Introspection for tests: calls seen / failures fired since arming.
  std::uint64_t CallCount(const std::string& site) const;
  std::uint64_t FireCount(const std::string& site) const;

 private:
  struct SiteState {
    FaultPlan plan;
    bool armed = false;
    std::uint64_t calls = 0;
    std::uint64_t fires = 0;
  };

  FaultInjector() = default;

  std::atomic<int> armed_sites_{0};
  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  std::uint64_t seed_ = 1;
};

// Call-site helpers: `CAPPLAN_RETURN_NOT_OK(FaultHit("journal.append"))`.
inline Status FaultHit(const char* site) {
  return FaultInjector::Global().Hit(site);
}
inline bool FaultFires(const char* site) {
  return FaultInjector::Global().Fires(site);
}

// RAII arm/disarm for tests; disarms its site on scope exit.
class ScopedFault {
 public:
  ScopedFault(std::string site, FaultPlan plan) : site_(std::move(site)) {
    FaultInjector::Global().Arm(site_, std::move(plan));
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

}  // namespace capplan

#endif  // CAPPLAN_COMMON_FAULT_H_
