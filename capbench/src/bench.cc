#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "http_client.h"
#include "models/arima_spec.h"
#include "quality/sentinel.h"
#include "runner.h"
#include "serve/handlers.h"
#include "serve/http_server.h"
#include "workload/scenario.h"

namespace capbench {

namespace cp = capplan;
using cp::core::Technique;

namespace {

constexpr std::int64_t kHour = 3600;
// Set-ups per untraced run, one at each end of it; setup_s is their median.
constexpr int kSetups = 2;
// The timed phase runs in rounds. On a shared VM other tenants slow a run
// down for spells of seconds (a single-thread loop on a shared 4-core VM ran
// up to 1.6x slower for 5-20 s), so samples taken in one stretch can all land
// in one slow spell; spread over the run, most land in ordinary time.
constexpr int kRounds = 4;
// Recoveries per round; recover_s is the best round's median.
constexpr int kRecoveriesPerRound = 3;
// Wall-clock gap between ticks while clients are connected.
constexpr double kServeTickCadenceS = 0.1;
// Snapshot cadence in ticks: twice a simulated day, so snapshot ticks are
// more than 5% of all ticks and the p95 tick tail sits inside them instead
// of on the edge between them and ordinary ticks. Ingest runs end half a
// cycle past a snapshot so every recovery replays the same journal suffix.
constexpr std::int64_t kSnapshotEvery = 12;
constexpr std::size_t kWinnerSampleKeys = 8;
constexpr std::size_t kMaxFailureMessages = 12;

}  // namespace

const char* const kEndpointNames[kEndpoints] = {"forecast", "breach",
                                                "headroom", "decompose",
                                                "estate"};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"refit_oltp_auto",
       "12 OLTP keys refit with kAuto every simulated day: time goes to "
       "routing, HES, the SARIMAX grid and the TBATS lattice",
       MainPhase::kRefitRounds, /*oltp=*/true, /*instances=*/4,
       Technique::kAuto, /*staleness_hours=*/24, /*side_serve_seconds=*/2.2,
       /*core_keys=*/0},
      // The staleness outlasts every tick an untraced run makes (about 460),
      // so no round of the whole estate falls due: only drift refits fire,
      // one key at a time, drained between the timed ticks. Its serve blocks
      // are 4 snapshot cycles (4.8 s) each: its tick figures come from the
      // ingest ticks, so they need not be as long as serve_live's.
      {"estate_ingest",
       "300 OLAP keys ticked back to back for a fixed number of snapshot "
       "cycles: agent, store, guardrail scoring, journal and snapshot work; "
       "only drift refits run, between ticks",
       MainPhase::kIngest, /*oltp=*/false, /*instances=*/100, Technique::kHes,
       /*staleness_hours=*/21 * 24, /*side_serve_seconds=*/16.0,
       /*core_keys=*/3},
      {"serve_live",
       "closed-loop HTTP reads over 300 live keys while each tick's new view "
       "invalidates the answer cache: render, cache and HTTP costs",
       MainPhase::kServe, /*oltp=*/false, /*instances=*/100, Technique::kHes,
       /*staleness_hours=*/14 * 24, /*side_serve_seconds=*/0.0,
       /*core_keys=*/3},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t DirBytes(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    return std::filesystem::file_size(path, ec);
  }
  std::uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

cp::serve::HttpRequest ParseGet(const std::string& target) {
  cp::serve::RequestParser parser;
  const std::string raw = "GET " + target + " HTTP/1.1\r\nHost: b\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  return parser.TakeRequest();
}

QueryTable::Query QueryTable::Draw(ZipfKeys* zipf, SplitMix64* rng) const {
  Query q;
  const double u = rng->Uniform();
  const int key = static_cast<int>(zipf->Next());
  if (u >= 0.90) {
    q.target = &estate_target;
    return q;
  }
  q.key = key;
  q.endpoint = u < 0.25   ? kForecast
               : u < 0.55 ? kBreach
               : u < 0.80 ? kHeadroom
                          : kDecompose;
  if (q.endpoint == kDecompose && !decomposable[key]) q.endpoint = kForecast;
  q.target = &targets[key][q.endpoint];
  return q;
}

Runner::Runner(const WorkloadSpec& spec, const RunOptions& options)
    : spec_(spec),
      options_(options),
      threads_(Nproc()),
      state_dir_(options.work_dir + "/state-" + spec.name),
      recovery_dir_(options.work_dir + "/recovery-" + spec.name),
      spans_(false),
      cluster_(
          [&spec] {
            auto s = spec.oltp ? cp::workload::WorkloadScenario::Oltp()
                               : cp::workload::WorkloadScenario::Olap();
            s.n_instances = spec.instances;
            return s;
          }(),
          options.seed) {
  for (int i = 0; i < spec.instances; ++i) {
    watches_.emplace_back(i, cp::workload::Metric::kCpu, 85.0);
    watches_.emplace_back(i, cp::workload::Metric::kMemory, 1e7);
    watches_.emplace_back(i, cp::workload::Metric::kLogicalIops, 1e12);
  }
  for (const auto& w : watches_) {
    keys_.push_back(cp::service::EstateService::KeyFor(cluster_, w));
  }
  config_.tick_seconds = kHour;
  config_.fit_threads = threads_;
  config_.n_shards = threads_;
  config_.pipeline.technique = spec.technique;
  config_.staleness.max_age_seconds = spec.staleness_hours * kHour;
  config_.snapshot_every_ticks = static_cast<int>(kSnapshotEvery);
  config_.state_dir = state_dir_;
  if (spec.main == MainPhase::kRefitRounds) {
    // Age-driven refits only, so every key refits on the same tick once per
    // staleness period: a round is the whole estate, whatever the seed.
    config_.staleness.rmse_degradation_factor = 1e9;
    config_.guardrail.early_refit_on_drift = false;
  }
}

Runner::~Runner() {
  svc_.reset();
  std::error_code ec;
  std::filesystem::remove_all(state_dir_, ec);
  std::filesystem::remove_all(recovery_dir_, ec);
}

std::unique_ptr<cp::service::EstateService> Runner::NewService(
    const std::string& state_dir) const {
  cp::service::EstateServiceConfig config = config_;
  config.state_dir = state_dir;
  return std::make_unique<cp::service::EstateService>(&cluster_, watches_,
                                                      config);
}

std::size_t Runner::PollsPerTick() const {
  return static_cast<std::size_t>(config_.tick_seconds / config_.poll_seconds);
}

// Client connections plus the driver thread stay within the core count.
std::size_t Runner::Clients() const {
  return std::clamp<std::size_t>(threads_ - 1, 1, 3);
}

std::uint64_t Runner::RefitsDone() const {
  const auto& t = svc_->telemetry();
  return t.refits_succeeded.value() + t.refits_failed.value();
}

void Runner::Fail(const std::string& what) {
  result_.correct = false;
  if (result_.failures.size() < kMaxFailureMessages) {
    result_.failures.push_back(what);
  }
}

void Runner::Emit(const std::string& name, double value,
                  const std::string& unit) {
  result_.metrics.push_back({name, value, unit});
}

bool Runner::SetUp() {
  if (svc_ != nullptr) {
    AccountService();
    svc_.reset();
  }
  io_errors_seen_ = 0;
  std::error_code ec;
  std::filesystem::remove_all(state_dir_, ec);
  Spans::Scope span(&spans_, "setup");
  const auto t0 = Clock::now();
  auto svc = NewService(state_dir_);
  if (cp::Status st = svc->Start(); !st.ok()) {
    Fail("Start: " + st.ToString());
    return false;
  }
  // Start() only backfills; the first tick dispatches every key's first
  // fit, and set-up ends when each key has a published forecast.
  const auto round0 = Clock::now();
  bool all = false;
  for (int attempt = 0; attempt < 4 && !all; ++attempt) {
    auto report = svc->Tick();
    if (!report.ok()) {
      Fail("setup tick: " + report.status().ToString());
      return false;
    }
    queue_depth_max_ = std::max(
        queue_depth_max_, svc->RefitQueueDepth() + svc->in_flight_refits());
    if (cp::Status st = svc->DrainRefits(); !st.ok()) {
      Fail("setup drain: " + st.ToString());
      return false;
    }
    const auto view = svc->View();
    all = view != nullptr && view->instances.size() == keys_.size() &&
          std::all_of(view->instances.begin(), view->instances.end(),
                      [](const auto& s) { return s.has_forecast; });
  }
  if (!all) {
    Fail("setup: a key has no forecast after four ticks");
    return false;
  }
  first_round_wall_s_ = SecondsSince(round0);
  first_round_refits_per_s_.push_back(static_cast<double>(keys_.size()) /
                                      first_round_wall_s_);
  setup_s_.push_back(SecondsSince(t0));
  svc_ = std::move(svc);
  CheckWrites("set-up");
  return true;
}

bool Runner::MeasuredTick(cp::service::TickReport* out) {
  Spans::Scope span(&spans_, "service.tick");
  auto report = svc_->Tick();
  const double ms = span.End();
  result_.ops.Tick(report.ok());
  if (!report.ok()) {
    Fail("tick: " + report.status().ToString());
    return false;
  }
  if (record_ticks_) {
    tick_ms_.push_back(ms);
    tick_snapshot_.push_back(
        static_cast<std::int64_t>(svc_->tick_count()) % kSnapshotEvery == 0);
    tick_samples_ += report->samples_ingested;
  }
  const std::size_t expected = keys_.size() * PollsPerTick();
  if (report->samples_ingested != expected) {
    Fail("tick ingested " + std::to_string(report->samples_ingested) +
         " samples, expected keys x polls = " + std::to_string(expected));
  }
  windows_.push_back({report->now_epoch - config_.tick_seconds,
                      report->now_epoch});
  queue_depth_max_ = std::max(
      queue_depth_max_, svc_->RefitQueueDepth() + svc_->in_flight_refits());
  *out = *report;
  return true;
}

void Runner::MainTicks(double seconds) {
  const auto t0 = Clock::now();
  const std::uint64_t refits0 = RefitsDone();
  const std::int64_t ingest_ticks = IngestTicks(seconds);
  for (std::int64_t ticks = 1;; ++ticks) {
    cp::service::TickReport report;
    if (!MeasuredTick(&report)) return;
    bool drained = false;
    if (report.refits_dispatched > 0) {
      // Refits never overlap the ticks being timed: whatever a tick
      // dispatched is drained before the next one. On the refit workload the
      // staleness policy makes every key due on the same tick, so each drain
      // waits for a whole round of the estate's refits.
      Spans::Scope span(&spans_, "service.drain_refits");
      if (cp::Status st = svc_->DrainRefits(); !st.ok()) {
        Fail("drain: " + st.ToString());
        return;
      }
      drained = true;
    }
    // Ingest ends after its fixed number of ticks, so the hours it simulates
    // never depend on how fast ticks or refits run; refit rounds end on the
    // first drain after `seconds`.
    if (spec_.main == MainPhase::kIngest
            ? ticks >= ingest_ticks
            : drained && SecondsSince(t0) >= seconds) {
      break;
    }
    if (SecondsSince(t0) > 4 * seconds + 60) {
      Fail("the timed ticks did not complete in time");
      break;
    }
  }
  main_wall_s_ += SecondsSince(t0);
  main_refits_ += RefitsDone() - refits0;
}

double Runner::RunRounds() {
  tick_ms_.clear();
  tick_snapshot_.clear();
  tick_samples_ = 0;
  windows_.clear();
  main_wall_s_ = 0.0;
  main_refits_ = 0;
  serve_ = ServeStats();
  recover_s_.clear();
  rounds_.clear();
  const std::string journal = state_dir_ + "/journal.log";
  const std::uint64_t journal0 = DirBytes(journal);
  const std::size_t ticks0 = svc_->tick_count();
  const double round_s = options_.seconds / kRounds;
  // On serve_live the serve block is the main work; elsewhere it is as long
  // as serve_live's unless the workload names its own length.
  const double serve_s = (spec_.side_serve_seconds > 0.0
                              ? spec_.side_serve_seconds
                              : options_.seconds) /
                         kRounds;
  for (int round = 0; round < kRounds && result_.correct; ++round) {
    const std::size_t round_recoveries0 = recover_s_.size();
    if (spec_.main != MainPhase::kServe) {
      // Only the main ticks feed the tick figures; the serve block's ticks
      // are checked and counted but not timed into them.
      record_ticks_ = true;
      MainTicks(round_s);
      record_ticks_ = false;
    }
    Recoveries(kRecoveriesPerRound);
    // A refit round must not land inside the serve block: run through it
    // first if it is near. With refit rounds closer together than a serve
    // block (refit_oltp_auto), there is no gap to wait for, and refits run
    // beside the serve block.
    const std::int64_t guard_ticks = ServeTicks(serve_s) + kSnapshotEvery;
    if (spec_.staleness_hours > guard_ticks) {
      QuietTicks([this, guard_ticks] {
        return !RefitRoundWithin(guard_ticks);
      });
    }
    const ServeStats block = Serve(serve_s);
    rounds_.push_back(RoundOf(round_recoveries0, block));
    serve_.Add(block);
  }
  record_ticks_ = true;
  main_ticks_ = svc_->tick_count() - ticks0;
  main_journal_bytes_ = DirBytes(journal) - journal0;
  switch (spec_.main) {
    case MainPhase::kRefitRounds:
      return main_refits_ == 0
                 ? 0.0
                 : 1000.0 * main_wall_s_ / static_cast<double>(main_refits_);
    case MainPhase::kIngest: {
      double total = 0.0;
      for (double ms : tick_ms_) total += ms;
      return tick_ms_.empty() ? 0.0 : total / tick_ms_.size();
    }
    case MainPhase::kServe:
      break;
  }
  return serve_.ok == 0
             ? 0.0
             : 1000.0 * serve_.wall_s / static_cast<double>(serve_.ok);
}

RoundFigures Runner::RoundOf(std::size_t recoveries0,
                             const ServeStats& block) const {
  RoundFigures f;
  f.recover_s = Median(std::vector<double>(recover_s_.begin() + recoveries0,
                                           recover_s_.end()));
  f.req_tail = TailOf(block.latency_ms);
  return f;
}

void ServeStats::Add(const ServeStats& other) {
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  wall_s += other.wall_s;
  ok += other.ok;
  append(&latency_ms, other.latency_ms);
  append(&segment_req_per_s, other.segment_req_per_s);
  append(&segment_p50_ms, other.segment_p50_ms);
  append(&handle_ms, other.handle_ms);
  append(&answer_lag_ms, other.answer_lag_ms);
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  throttled += other.throttled;
}

void Runner::BuildQueryTable() {
  const auto view = svc_->View();
  const std::size_t n = view->instances.size();
  queries_.keys.resize(n);
  queries_.targets.resize(n);
  queries_.decomposable.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = view->instances[i];
    queries_.keys[i] = s.key;
    const std::string qs = "instance=" + s.instance + "&metric=" + s.metric;
    double peak = 1.0;
    for (double v : s.recent) {
      if (std::isfinite(v)) peak = std::max(peak, v);
    }
    char capacity[32];
    std::snprintf(capacity, sizeof(capacity), "%.0f", std::ceil(2.0 * peak));
    queries_.targets[i] = {"/v1/forecast?" + qs, "/v1/breach?" + qs,
                           "/v1/headroom?" + qs + "&capacity=" + capacity,
                           "/v1/decompose?key=" + s.key};
  }
  // Which keys can be decomposed at all is decided once, in process.
  cp::serve::EstateQueryHandler::Options probe_options;
  probe_options.cache.capacity = 0;
  cp::serve::EstateQueryHandler probe(svc_->view_channel(), nullptr,
                                      probe_options);
  std::vector<char> ok(n, 0);
  cp::ThreadPool pool(threads_);
  pool.ParallelFor(n, [&](std::size_t i) {
    ok[i] = probe.Handle(ParseGet(queries_.targets[i][kDecompose])).status ==
            200;
  });
  for (std::size_t i = 0; i < n; ++i) queries_.decomposable[i] = ok[i] != 0;
}

ServeStats Runner::Serve(double seconds) {
  ServeStats stats;
  cp::serve::EstateQueryHandler handler(svc_->view_channel());
  std::mutex handle_mu;
  const bool traced = spans_.enabled();
  // As many workers as cores, like the fit pool and the shards: no request
  // waits for a worker just because the clients outnumber them.
  cp::serve::HttpServerConfig server_config;
  server_config.worker_threads = threads_;
  cp::serve::HttpServer server(
      [&](const cp::serve::HttpRequest& request) {
        if (!traced) return handler.Handle(request);
        Spans::Scope span(&spans_, "serve.handle");
        cp::serve::HttpResponse response = handler.Handle(request);
        const double ms = span.End();
        std::lock_guard<std::mutex> lock(handle_mu);
        stats.handle_ms.push_back(ms);
        return response;
      },
      server_config);
  if (cp::Status st = server.Start(); !st.ok()) {
    Fail("server start: " + st.ToString());
    return stats;
  }

  struct ClientLog {
    std::vector<double> latency_ms;
    std::vector<double> done_s;  // completion, seconds since phase start
    std::vector<long long> version;
    OpsLedger ops;
    std::vector<std::string> failures;
  };
  const std::size_t n_clients = Clients();
  std::vector<ClientLog> logs(n_clients);
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      const auto fail = [&log](std::string what) {
        if (log.failures.size() < 4) log.failures.push_back(std::move(what));
      };
      HttpClient client;
      if (!client.Connect(server.port())) {
        log.ops.Request(false, 0);
        fail("client could not connect");
        return;
      }
      ZipfKeys zipf(queries_.keys.size(), 1.0, kHotKeysSeed,
                    options_.seed * 0x100000001b3ULL + c + 1);
      SplitMix64 rng(options_.seed ^ ((c + 1) * 0x9e3779b97f4a7c15ULL));
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryTable::Query q = queries_.Draw(&zipf, &rng);
        HttpClient::Response response;
        Spans::Scope span(&spans_, "http.request");
        const bool sent = client.Get(*q.target, &response);
        const double ms = span.End();
        log.ops.Request(sent, response.status);
        if (!sent) {
          fail("transport error on " + *q.target);
          if (!client.Connect(server.port())) return;
          continue;
        }
        if (response.status != 200) {
          fail("status " + std::to_string(response.status) + " on " +
               *q.target);
          continue;
        }
        // Every 200 must name the key it answers and the view it came from.
        long long version = -1;
        if (q.key >= 0) {
          version = JsonIntField(response.body, "view_version");
          if (response.body.find("\"key\":\"" + queries_.keys[q.key] + "\"") ==
              std::string::npos) {
            fail("200 body does not name " + queries_.keys[q.key]);
          }
        } else {
          version = JsonIntField(response.body, "version");
        }
        if (version < 1) fail("200 body without a view version: " + *q.target);
        log.latency_ms.push_back(ms);
        log.done_s.push_back(SecondsSince(t0));
        log.version.push_back(version);
      }
    });
  }

  // The driver thread ticks on a fixed wall cadence; each tick publishes a
  // new view, which invalidates every cached answer.
  struct TickMark {
    double start_s;
    long long version;
  };
  std::vector<TickMark> marks;
  const std::int64_t n_ticks = ServeTicks(seconds);
  const auto cadence = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kServeTickCadenceS));
  for (std::int64_t i = 0; i < n_ticks; ++i) {
    std::this_thread::sleep_until(t0 + i * cadence);
    const double start_s = SecondsSince(t0);
    cp::service::TickReport report;
    if (!MeasuredTick(&report)) break;
    marks.push_back({start_s, static_cast<long long>(svc_->View()->version)});
  }
  std::this_thread::sleep_until(t0 + n_ticks * cadence);
  stats.wall_s = SecondsSince(t0);
  stop.store(true);
  for (auto& t : clients) t.join();
  stats.throttled = server.Stats().throttled;
  server.Stop();
  stats.cache_hits = handler.cache().hits();
  stats.cache_misses = handler.cache().misses();
  stats.cache_evictions = handler.cache().evictions();

  // Throughput and median latency are taken per segment of one snapshot
  // cycle of ticks, so every segment holds one snapshot tick, and reported
  // as the median over segments, so a burst of host noise moves a few
  // segments instead of the whole figure.
  const std::size_t n_segments = std::max<std::size_t>(
      1, static_cast<std::size_t>(n_ticks / kSnapshotEvery));
  const double segment_s = stats.wall_s / static_cast<double>(n_segments);
  std::vector<std::vector<double>> segments(n_segments);
  for (ClientLog& log : logs) {
    result_.ops.Merge(log.ops);
    for (auto& f : log.failures) Fail(f);
    for (std::size_t i = 0; i < log.latency_ms.size(); ++i) {
      if (log.done_s[i] > stats.wall_s) break;
      stats.latency_ms.push_back(log.latency_ms[i]);
      ++stats.ok;
      segments[std::min(n_segments - 1,
                        static_cast<std::size_t>(log.done_s[i] / segment_s))]
          .push_back(log.latency_ms[i]);
    }
  }
  for (const auto& seg : segments) {
    stats.segment_req_per_s.push_back(static_cast<double>(seg.size()) /
                                      segment_s);
    stats.segment_p50_ms.push_back(Median(seg));
  }
  // Answer lag: from a tick's start until any client first holds an answer
  // rendered from that tick's view (or a later one).
  for (const TickMark& m : marks) {
    double first = -1.0;
    for (const ClientLog& log : logs) {
      for (std::size_t i = 0; i < log.done_s.size(); ++i) {
        if (log.done_s[i] >= m.start_s && log.version[i] >= m.version) {
          if (first < 0.0 || log.done_s[i] < first) first = log.done_s[i];
          break;
        }
      }
    }
    if (first >= 0.0) {
      stats.answer_lag_ms.push_back(1000.0 * (first - m.start_s));
    }
  }
  return stats;
}

bool Runner::QuietTicks(const std::function<bool()>& done) {
  while (!done()) {
    auto report = svc_->Tick();
    result_.ops.Tick(report.ok());
    if (!report.ok()) {
      Fail("tick: " + report.status().ToString());
      return false;
    }
    // The layer replay needs every window the service ingested, in order.
    windows_.push_back({report->now_epoch - config_.tick_seconds,
                        report->now_epoch});
    if (report->refits_dispatched > 0) {
      if (cp::Status st = svc_->DrainRefits(); !st.ok()) {
        Fail("drain: " + st.ToString());
        return false;
      }
    }
  }
  return true;
}

// Whole snapshot cycles, so every serve block holds the same share of
// snapshot ticks wherever it starts, and rounds compare like with like.
// Rounded up: at --seconds 20, four blocks make 240 ticks, enough for a p95
// tick tail among the snapshot ticks.
std::int64_t Runner::ServeTicks(double seconds) {
  const double cycles =
      seconds / kServeTickCadenceS / static_cast<double>(kSnapshotEvery);
  const auto whole = static_cast<std::int64_t>(std::ceil(cycles - 1e-6));
  return kSnapshotEvery * std::max<std::int64_t>(1, whole);
}

// One snapshot cycle per second: at --seconds 20 the rounds make 240 ticks,
// so the p95 tick tail (12 ticks beyond it) sits among the 20 snapshot ticks.
std::int64_t Runner::IngestTicks(double seconds) {
  return kSnapshotEvery * std::max<std::int64_t>(1, std::llround(seconds));
}

void Runner::CheckWrites(const char* phase) {
  const auto& t = svc_->telemetry();
  const std::uint64_t errors = t.io_errors.value();
  if (errors > io_errors_seen_) {
    Fail(std::string(phase) + ": " + std::to_string(errors - io_errors_seen_) +
         " journal or snapshot writes failed (" +
         std::to_string(t.journal_write_failures.value()) + " journal, " +
         std::to_string(t.snapshot_failures.value()) + " snapshot so far)");
  }
  io_errors_seen_ = errors;
}

void Runner::AccountService() {
  const auto& t = svc_->telemetry();
  result_.ops.Refits(t.refits_succeeded.value() + t.refits_failed.value(),
                     t.refits_failed.value() + t.refits_degraded.value());
  result_.ops.Writes(t.journal_events.value() + t.snapshots_written.value(),
                     t.io_errors.value());
}

bool Runner::RefitRoundWithin(std::int64_t ticks) const {
  // Drift refits leave single keys due at scattered times; a round is a
  // tenth of the estate due on one tick (the staleness policy's refit of
  // every key fitted together).
  const std::int64_t horizon = svc_->now() + ticks * config_.tick_seconds;
  std::map<std::int64_t, std::size_t> due;
  for (const auto& entry : svc_->ScheduleEntries()) {
    if (!entry.quarantined && entry.due_epoch <= horizon) {
      if (++due[entry.due_epoch] > keys_.size() / 10) return true;
    }
  }
  return false;
}

namespace {

bool SameSchedule(const std::vector<cp::service::ScheduleEntry>& a,
                  const std::vector<cp::service::ScheduleEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].due_epoch != b[i].due_epoch ||
        a[i].consecutive_failures != b[i].consecutive_failures ||
        a[i].quarantined != b[i].quarantined) {
      return false;
    }
  }
  return true;
}

bool SameAlerts(std::vector<cp::service::ServiceAlert> a,
                std::vector<cp::service::ServiceAlert> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].upper_only != b[i].upper_only ||
        a[i].predicted_breach_epoch != b[i].predicted_breach_epoch ||
        a[i].raised_at_epoch != b[i].raised_at_epoch) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Runner::FreezeRecoveryPoint() {
  // A fixed point early in the run: the first fits, one snapshot and half a
  // snapshot cycle of journal, so every run recovers the same amount of
  // state whatever its timed phase did later.
  if (!QuietTicks([this] {
        return static_cast<std::int64_t>(svc_->tick_count()) >=
               kSnapshotEvery + kSnapshotEvery / 2;
      })) {
    return;
  }
  recovery_ticks_ = svc_->tick_count();
  std::error_code ec;
  std::filesystem::remove_all(recovery_dir_, ec);
  std::filesystem::copy(state_dir_, recovery_dir_,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) Fail("copying the recovery point: " + ec.message());
}

void Runner::Recoveries(int n) {
  for (int i = 0; i < n; ++i) {
    auto fresh = NewService(recovery_dir_);
    Spans::Scope span(&spans_, "service.recover");
    const cp::Status st = fresh->Recover();
    recover_s_.push_back(span.End() / 1000.0);
    if (!st.ok()) {
      Fail("Recover: " + st.ToString());
      return;
    }
    if (fresh->tick_count() != recovery_ticks_) {
      Fail("recovery rebuilt tick " + std::to_string(fresh->tick_count()) +
           ", the frozen point is tick " + std::to_string(recovery_ticks_));
      return;
    }
  }
}

void Runner::CheckRecovery() {
  // Recovery replays the journal suffix since the last snapshot; end half a
  // cycle past one, with every refit applied and journalled.
  if (!QuietTicks([this] {
        return static_cast<std::int64_t>(svc_->tick_count()) % kSnapshotEvery ==
               kSnapshotEvery / 2;
      })) {
    return;
  }
  if (cp::Status st = svc_->DrainRefits(); !st.ok()) {
    Fail("drain: " + st.ToString());
    return;
  }
  stored_bytes_per_sample_ =
      static_cast<double>(DirBytes(state_dir_)) /
      static_cast<double>(svc_->telemetry().samples_ingested.value());
  auto fresh = NewService(state_dir_);
  if (const cp::Status st = fresh->Recover(); !st.ok()) {
    Fail("Recover: " + st.ToString());
    return;
  }
  // Recovered state == live state: schedule, registry specs, alerts.
  if (!SameSchedule(fresh->ScheduleEntries(), svc_->ScheduleEntries())) {
    Fail("recovered schedule differs from the live service");
  }
  const auto& live = svc_->registry();
  const auto& back = fresh->registry();
  if (live.Keys() != back.Keys()) {
    Fail("recovered registry has other keys than the live service");
  } else {
    for (const std::string& key : live.Keys()) {
      const auto a = live.Get(key);
      const auto b = back.Get(key);
      if (a->technique != b->technique || a->spec != b->spec ||
          a->fitted_at_epoch != b->fitted_at_epoch) {
        Fail("recovered registry differs for " + key + ": " + a->spec +
             " vs " + b->spec);
        break;
      }
    }
  }
  if (!SameAlerts(fresh->ActiveAlerts(), svc_->ActiveAlerts())) {
    Fail("recovered alerts differ from the live service");
  }
}

cp::core::PipelineOptions Runner::FitOptions(const std::string& key,
                                             Technique technique,
                                             bool trainable) const {
  cp::core::PipelineOptions opts = config_.pipeline;
  if (auto prev = svc_->registry().GetPrevious(key); prev.ok()) {
    if (auto spec = cp::models::ParseArimaSpec(prev->spec); spec.ok()) {
      opts.selector_hint.spec = *spec;
      opts.selector_hint.ar = prev->ar_coef;
      opts.selector_hint.ma = prev->ma_coef;
    }
  }
  opts.technique = technique;
  opts.model_repository = nullptr;
  opts.metrics = nullptr;
  opts.n_threads = 1;
  opts.horizon_override =
      static_cast<std::size_t>(config_.staleness.max_age_seconds / kHour + 48);
  opts.degrade_on_failure = config_.always_forecast;
  if (config_.quality_gate && !trainable && technique != Technique::kHes) {
    opts.technique = Technique::kHes;
  }
  return opts;
}

cp::Result<cp::core::PipelineReport> Runner::RefitLikeService(
    const std::string& key, const cp::tsa::TimeSeries& window,
    Technique technique) const {
  cp::quality::DataQualitySentinel sentinel(config_.quality);
  cp::quality::QualityReport quality;
  CAPPLAN_ASSIGN_OR_RETURN(cp::tsa::TimeSeries repaired,
                           sentinel.Repair(window, &quality));
  return cp::core::Pipeline(FitOptions(key, technique, quality.trainable))
      .Run(repaired);
}

bool Runner::ChampionWindow(const std::string& key,
                            cp::tsa::TimeSeries* window) {
  const auto model = svc_->registry().Get(key);
  const cp::tsa::TimeSeries* hourly = svc_->FindHourly(key);
  if (!model.ok() || hourly == nullptr || hourly->empty()) return false;
  const std::int64_t span = model->fitted_at_epoch - hourly->start_epoch();
  const std::size_t have = std::min<std::size_t>(
      hourly->size(), static_cast<std::size_t>(std::max<std::int64_t>(
                          0, span / kHour)));
  const std::size_t len = std::min(config_.fit_window_hours, have);
  auto slice = hourly->Slice(have - len, len);
  if (!slice.ok()) return false;
  *window = std::move(*slice);
  window->set_name(key);
  return true;
}

void Runner::CheckWinners() {
  // Every key on the refit workload; a seeded sample elsewhere.
  std::vector<std::string> keys = keys_;
  if (spec_.main != MainPhase::kRefitRounds &&
      keys.size() > kWinnerSampleKeys) {
    SplitMix64 rng(options_.seed * 31 + 7);
    for (std::size_t i = 0; i < kWinnerSampleKeys; ++i) {
      std::swap(keys[i], keys[i + rng.Next() % (keys.size() - i)]);
    }
    keys.resize(kWinnerSampleKeys);
  }
  std::vector<std::string> todo;
  for (const auto& key : keys) {
    if (solo_.count(key) == 0) todo.push_back(key);
  }
  std::vector<cp::tsa::TimeSeries> windows(todo.size());
  std::vector<SoloFit> fits(todo.size());
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (!ChampionWindow(todo[i], &windows[i])) {
      fits[i].error = "no champion window";
    }
  }
  {
    cp::ThreadPool pool(threads_);
    pool.ParallelFor(todo.size(), [&](std::size_t i) {
      if (!fits[i].error.empty()) return;
      auto report = RefitLikeService(todo[i], windows[i], spec_.technique);
      if (!report.ok()) {
        fits[i].error = report.status().ToString();
        return;
      }
      fits[i].ok = true;
      fits[i].technique = cp::core::TechniqueName(report->chosen_family);
      fits[i].spec = report->chosen_spec;
      fits[i].test_rmse = report->test_accuracy.rmse;
    });
  }
  for (std::size_t i = 0; i < todo.size(); ++i) solo_[todo[i]] = fits[i];
  for (const auto& key : keys) {
    const SoloFit& fit = solo_[key];
    const auto model = svc_->registry().Get(key);
    if (!fit.ok || !model.ok()) {
      Fail("solo refit of " + key + " failed: " + fit.error);
    } else if (fit.technique != model->technique || fit.spec != model->spec) {
      Fail("winner of " + key + " differs: service " + model->technique + " " +
           model->spec + " (rmse " + std::to_string(model->test_rmse) +
           ", generation " + std::to_string(model->generation) + "), solo " +
           fit.technique + " " + fit.spec + " (rmse " +
           std::to_string(fit.test_rmse) + ")");
    }
  }
}

void Runner::EmitEndToEnd() {
  // Tick, request-rate, request-median and answer-lag figures pool every
  // round: they spread widely from one tick or segment to the next, so one
  // round's few do not pin them down. The tick tail also needs ten samples
  // beyond it; at p95 of 240 ticks it sits near the middle of the snapshot
  // ticks, where two slow rounds of four barely move it.
  const Tail tick_tail = TailOf(tick_ms_);
  std::vector<double> snapshot;
  double tick_s = 0.0;
  for (std::size_t i = 0; i < tick_ms_.size(); ++i) {
    if (tick_snapshot_[i]) snapshot.push_back(tick_ms_[i]);
    tick_s += tick_ms_[i] / 1000.0;
  }
  // Recovery time and the request tail settle within a round: the best
  // round's, the lowest.
  double recover_s = 0.0;
  Tail req_tail;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    if (i == 0 || rounds_[i].recover_s < recover_s) {
      recover_s = rounds_[i].recover_s;
    }
    if (i == 0 || rounds_[i].req_tail.value < req_tail.value) {
      req_tail = rounds_[i].req_tail;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double refits_per_s =
      spec_.main == MainPhase::kRefitRounds
          ? static_cast<double>(main_refits_) / main_wall_s_
          : *std::max_element(first_round_refits_per_s_.begin(),
                              first_round_refits_per_s_.end());

  Emit("setup_s", Median(setup_s_), "s");
  Emit("refits_per_s", refits_per_s, "1/s");
  Emit("holdout_mape_pct", holdout_mape_pct_, "%");
  Emit("samples_per_s", static_cast<double>(tick_samples_) / tick_s, "1/s");
  Emit("tick_p50_ms", Median(tick_ms_), "ms");
  Emit("tick_tail_ms", tick_tail.value, "ms");
  Emit("stored_bytes_per_sample", stored_bytes_per_sample_, "B");
  Emit("recover_s", recover_s, "s");
  Emit("req_per_s", Median(serve_.segment_req_per_s), "1/s");
  Emit("req_p50_ms", Median(serve_.segment_p50_ms), "ms");
  Emit("req_tail_ms", req_tail.value, "ms");
  Emit("answer_lag_p50_ms", Median(serve_.answer_lag_ms), "ms");
  Emit("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  std::printf("  %zu rounds; tick_tail_ms is p%g of %zu ticks (%zu with a "
              "snapshot, median %.4g ms); req_tail_ms is p%g of %zu requests "
              "of its round; answer lag over %zu ticks\n",
              rounds_.size(), tick_tail.percentile, tick_tail.samples,
              snapshot.size(), Median(snapshot), req_tail.percentile,
              req_tail.samples, serve_.answer_lag_ms.size());
  std::printf("  per round: req tail ms");
  for (const RoundFigures& r : rounds_) std::printf(" %.4g", r.req_tail.value);
  std::printf("; recover s");
  for (const RoundFigures& r : rounds_) std::printf(" %.4g", r.recover_s);
  std::printf("\n");
  const double lookups = static_cast<double>(serve_.cache_hits +
                                             serve_.cache_misses);
  std::printf("  request latency quartiles %.4g / %.4g / %.4g ms; cache hit "
              "ratio %.3f\n",
              Percentile(serve_.latency_ms, 25),
              Percentile(serve_.latency_ms, 50),
              Percentile(serve_.latency_ms, 75),
              static_cast<double>(serve_.cache_hits) / std::max(1.0, lookups));
  std::printf("  refits_per_s from %s; ops_failed_frac %.6g (%llu of %llu)\n",
              spec_.main == MainPhase::kRefitRounds
                  ? "the timed refit rounds"
                  : "the best first-fit round of the set-ups",
              result_.ops.FailedFrac(),
              static_cast<unsigned long long>(result_.ops.failed()),
              static_cast<unsigned long long>(result_.ops.attempted()));
}

RunResult Runner::Run() {
  std::printf("capbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "fit_threads=%zu n_shards=%zu clients=%zu keys=%zu git_sha=%s\n",
              spec_.name.c_str(),
              static_cast<unsigned long long>(options_.seed), options_.seconds,
              options_.trace ? 1 : 0, threads_, config_.fit_threads,
              config_.n_shards, Clients(), keys_.size(),
              options_.git_sha.c_str());
  std::fflush(stdout);
  if (!SetUp()) return result_;
  FreezeRecoveryPoint();
  CheckWrites("recovery point");
  BuildQueryTable();

  // A traced run repeats the rounds with spans on; the first pass, without
  // spans, is the base of trace_overhead_frac.
  const double untraced_op_ms = RunRounds();
  double traced_op_ms = untraced_op_ms;
  if (options_.trace) {
    spans_.set_enabled(true);
    traced_op_ms = RunRounds();
  }
  CheckWrites("timed phase");
  CheckRecovery();
  CheckWrites("recovery check");
  if (options_.trace) {
    TraceLayers(untraced_op_ms, traced_op_ms);
    CheckWrites("layer replay");
  }
  CheckWinners();

  if (!options_.trace) {
    std::vector<double> mape;
    for (const std::string& key : svc_->registry().Keys()) {
      mape.push_back(svc_->registry().Get(key)->test_mape);
    }
    holdout_mape_pct_ = Median(mape);
    // The other set-ups come last, so set-up samples sit at both ends of
    // the run; each replaces the live service, which is done with.
    for (int i = 1; i < kSetups; ++i) {
      if (!SetUp()) break;
    }
  }
  // Refits and writes of the last service; SetUp() accounted the others.
  if (svc_ != nullptr) AccountService();
  if (!options_.trace) EmitEndToEnd();
  if (options_.trace) {
    const std::string path =
        options_.work_dir + "/trace-" + spec_.name + ".json";
    if (spans_.WriteChromeTrace(path)) {
      std::printf("  spans written to %s\n", path.c_str());
    }
  }
  return result_;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  Runner runner(spec, options);
  return runner.Run();
}

}  // namespace capbench
