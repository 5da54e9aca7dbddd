// Observability overhead gate: the tracing spans wired through the selector
// grid (selector.select / prepare / grid / one span per candidate) and the
// flight recorder's wide events + histogram exemplars must stay cheap enough
// to leave enabled in production. This harness times the same 44-candidate
// SARIMAX selection under two instrumentation axes — spans off/on, and
// per-candidate wide-event emission with exemplar capture vs plain histogram
// observation — alternating configurations and keeping the minimum of each
// (min-of-N is robust to scheduler noise), writes BENCH_obs_overhead.json
// for the CI bench-smoke step, and exits non-zero when either overhead
// exceeds the 3% budget.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <vector>

#include "common/json_writer.h"
#include "core/candidate_gen.h"
#include "core/selector.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace capplan;

namespace {

constexpr int kReps = 7;
constexpr double kBudgetPct = 3.0;

std::vector<double> SeasonalSeries(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> y(n);
  for (std::size_t t = 0; t < n; ++t) {
    y[t] = 50.0 + 12.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0) +
           dist(rng);
  }
  return y;
}

double RunOnceMs(const std::vector<double>& train,
                 const std::vector<double>& test,
                 const std::vector<core::ModelCandidate>& candidates) {
  core::ModelSelector::Options opts;
  opts.n_threads = 2;
  core::ModelSelector selector(opts);
  const auto t0 = std::chrono::steady_clock::now();
  auto sel = selector.Select(train, test, candidates);
  const auto t1 = std::chrono::steady_clock::now();
  if (!sel.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 sel.status().ToString().c_str());
    std::exit(2);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Same selection workload, plus the flight-recorder hot path once per
// candidate: one wide event (key + two attrs) and one exemplar-carrying
// histogram observation — the shape DecideOutcome and the serve handler
// execute per unit of work. With `instrumented` false the loop records the
// plain histogram observation only, which is the pre-flight-recorder
// baseline the overhead is measured against.
double RunOnceEventsMs(const std::vector<double>& train,
                       const std::vector<double>& test,
                       const std::vector<core::ModelCandidate>& candidates,
                       obs::Histogram* hist, bool instrumented) {
  core::ModelSelector::Options opts;
  opts.n_threads = 2;
  core::ModelSelector selector(opts);
  obs::EventLog& events = obs::EventLog::Instance();
  const auto t0 = std::chrono::steady_clock::now();
  auto sel = selector.Select(train, test, candidates);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double ms = 0.25 * static_cast<double>(i % 16);
    if (instrumented) {
      obs::WideEvent ev;
      ev.kind = obs::WideEventKind::kRefit;
      ev.set_key("bench/candidate");
      ev.AddAttr("index", static_cast<double>(i));
      ev.AddAttr("wall_ms", ms);
      const std::uint64_t id = events.Emit(ev);
      hist->ObserveWithExemplar(ms, /*span_id=*/i + 1, id);
    } else {
      hist->Observe(ms);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!sel.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 sel.status().ToString().c_str());
    std::exit(2);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  const auto y = SeasonalSeries(1008, 9);
  const std::vector<double> train(y.begin(), y.end() - 24);
  const std::vector<double> test(y.end() - 24, y.end());
  core::CandidateGenerator::Options gen_opts;
  gen_opts.max_lag = 2;  // 44 candidates: CI-sized, same span sites as 660
  core::CandidateGenerator gen(gen_opts);
  const auto candidates = gen.Generate(core::Technique::kSarimax);

  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.Disable();
  tracer.Clear();
  obs::EventLog& events = obs::EventLog::Instance();
  events.Disable();
  events.Clear();

  // Warm both configurations (page in code, populate allocator caches).
  (void)RunOnceMs(train, test, candidates);
  tracer.Enable();
  (void)RunOnceMs(train, test, candidates);
  std::size_t spans_per_run = tracer.Drain().size();
  tracer.Disable();

  // Axis 1: trace spans off vs on around the selector grid.
  double off_ms = 0.0, on_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = RunOnceMs(train, test, candidates);
    tracer.Enable();
    const double on = RunOnceMs(train, test, candidates);
    tracer.Clear();
    tracer.Disable();
    off_ms = rep == 0 ? off : std::min(off_ms, off);
    on_ms = rep == 0 ? on : std::min(on_ms, on);
  }

  // Axis 2: wide-event emission + exemplar capture vs plain observation.
  obs::MetricsRegistry registry;
  obs::Histogram hist =
      registry.GetHistogram("bench_obs_candidate_ms", {}, {},
                            "per-candidate latency (bench harness)");
  const std::size_t events_per_run = candidates.size();
  // Enable once and warm the ring before timing: the per-thread ring is
  // allocated lazily on the first emission, and that one-time setup cost is
  // not what the steady-state gate is about.
  events.Enable();
  (void)RunOnceEventsMs(train, test, candidates, &hist,
                        /*instrumented=*/true);
  double ev_off_ms = 0.0, ev_on_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = RunOnceEventsMs(train, test, candidates, &hist,
                                       /*instrumented=*/false);
    const double on = RunOnceEventsMs(train, test, candidates, &hist,
                                      /*instrumented=*/true);
    ev_off_ms = rep == 0 ? off : std::min(ev_off_ms, off);
    ev_on_ms = rep == 0 ? on : std::min(ev_on_ms, on);
  }
  events.Clear();
  events.Disable();

  const double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
  const double events_overhead_pct =
      (ev_on_ms - ev_off_ms) / ev_off_ms * 100.0;
  const bool pass =
      overhead_pct < kBudgetPct && events_overhead_pct < kBudgetPct;

  JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.String("bench", "obs_overhead");
  w.Integer("grid_candidates", static_cast<long long>(candidates.size()));
  w.Integer("reps", kReps);
  w.Integer("spans_per_run", static_cast<long long>(spans_per_run));
  w.Number("spans_off_min_ms", off_ms);
  w.Number("spans_on_min_ms", on_ms);
  w.Number("overhead_pct", overhead_pct);
  w.Integer("events_per_run", static_cast<long long>(events_per_run));
  w.Number("events_off_min_ms", ev_off_ms);
  w.Number("events_on_min_ms", ev_on_ms);
  w.Number("events_overhead_pct", events_overhead_pct);
  w.Number("budget_pct", kBudgetPct);
  w.Bool("pass", pass);
  w.EndObject();
  const std::string json = w.Take();
  std::ofstream("BENCH_obs_overhead.json") << json << "\n";

  std::printf("%s\n", json.c_str());
  std::printf("\nselector grid (%zu candidates, %zu spans/run): "
              "spans off %.2f ms, on %.2f ms -> %.2f%% overhead; "
              "wide events + exemplars (%zu events/run): off %.2f ms, "
              "on %.2f ms -> %.2f%% overhead (budget %.0f%%) %s\n",
              candidates.size(), spans_per_run, off_ms, on_ms, overhead_pct,
              events_per_run, ev_off_ms, ev_on_ms, events_overhead_pct,
              kBudgetPct, pass ? "OK" : "OVER BUDGET");
  return pass ? 0 : 1;
}
