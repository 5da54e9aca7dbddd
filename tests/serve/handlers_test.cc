#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/capacity.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/estate_view.h"
#include "serve/handlers.h"
#include "serve/http.h"

namespace capplan::serve {
namespace {

HttpRequest Get(const std::string& target) {
  RequestParser p;
  const std::string raw = "GET " + target + " HTTP/1.1\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  EXPECT_EQ(p.state(), RequestParser::State::kComplete) << target;
  return p.TakeRequest();
}

// A GET negotiating the OpenMetrics exposition, the way a Prometheus
// server with exemplar support scrapes.
HttpRequest GetOpenMetrics(const std::string& target) {
  RequestParser p;
  const std::string raw =
      "GET " + target +
      " HTTP/1.1\r\n"
      "Accept: application/openmetrics-text;version=1.0.0,text/plain\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  EXPECT_EQ(p.state(), RequestParser::State::kComplete) << target;
  return p.TakeRequest();
}

std::shared_ptr<EstateView> MakeEstate() {
  auto view = std::make_shared<EstateView>();
  view->now_epoch = 1000000;
  view->tick = 7;

  InstanceStatus ready;
  ready.key = "cdbm011/cpu";
  ready.instance = "cdbm011";
  ready.metric = "cpu";
  ready.threshold = 80.0;
  ready.has_forecast = true;
  for (int i = 0; i < 24; ++i) {
    ready.forecast.mean.push_back(50.0 + 2.0 * i);  // crosses 80 at i=15
    ready.forecast.lower.push_back(45.0 + 2.0 * i);
    ready.forecast.upper.push_back(55.0 + 2.0 * i);
  }
  ready.forecast.level = 0.95;
  ready.forecast_start_epoch = 1000000;
  ready.forecast_step_seconds = 3600;
  ready.spec = "HES a=0.1";
  for (int i = 0; i < 8; ++i) ready.recent.push_back(40.0 + i);
  ready.recent_start_epoch = 1000000 - 8 * 3600;

  InstanceStatus pending;  // watched but no forecast cached yet
  pending.key = "cdbm012/memory";
  pending.instance = "cdbm012";
  pending.metric = "memory";
  pending.threshold = 90.0;

  InstanceStatus poisoned;  // forecast exists but carries a NaN
  poisoned.key = "cdbm013/cpu";
  poisoned.instance = "cdbm013";
  poisoned.metric = "cpu";
  poisoned.threshold = 80.0;
  poisoned.has_forecast = true;
  poisoned.forecast.mean = {1.0, std::nan(""), 3.0};
  poisoned.forecast.lower = {0.0, 0.0, 0.0};
  poisoned.forecast.upper = {2.0, 3.0, 4.0};
  poisoned.forecast_start_epoch = 1000000;
  for (int i = 0; i < 4; ++i) poisoned.recent.push_back(1.0);
  poisoned.recent_start_epoch = 1000000 - 4 * 3600;

  view->instances = {ready, pending, poisoned};
  std::sort(view->instances.begin(), view->instances.end(),
            [](const InstanceStatus& a, const InstanceStatus& b) {
              return a.key < b.key;
            });
  return view;
}

class HandlersTest : public ::testing::Test {
 protected:
  HandlersTest()
      : registry_(std::make_shared<obs::MetricsRegistry>()),
        handler_(&channel_, registry_) {}

  void PublishEstate() { channel_.Publish(MakeEstate()); }

  ViewChannel channel_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  EstateQueryHandler handler_;
};

TEST_F(HandlersTest, HealthzBeforeAndAfterFirstView) {
  EXPECT_EQ(handler_.Handle(Get("/healthz")).status, 503);
  PublishEstate();
  const HttpResponse ok = handler_.Handle(Get("/healthz"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");
}

TEST_F(HandlersTest, UnknownPathIs404) {
  PublishEstate();
  EXPECT_EQ(handler_.Handle(Get("/nope")).status, 404);
  EXPECT_EQ(handler_.Handle(Get("/v1/nope")).status, 404);
}

TEST_F(HandlersTest, NonGetIs405WithAllow) {
  PublishEstate();
  RequestParser p;
  const std::string raw = "POST /v1/estate HTTP/1.1\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  const HttpResponse resp = handler_.Handle(p.TakeRequest());
  EXPECT_EQ(resp.status, 405);
  bool has_allow = false;
  for (const auto& [k, v] : resp.headers) {
    if (k == "Allow") {
      has_allow = true;
      EXPECT_EQ(v, "GET, HEAD");
    }
  }
  EXPECT_TRUE(has_allow);
}

TEST_F(HandlersTest, V1BeforeFirstViewIs503WithRetryAfter) {
  const HttpResponse resp = handler_.Handle(Get("/v1/estate"));
  EXPECT_EQ(resp.status, 503);
  bool has_retry = false;
  for (const auto& [k, v] : resp.headers) {
    if (k == "Retry-After") has_retry = true;
  }
  EXPECT_TRUE(has_retry);
}

TEST_F(HandlersTest, EstateSummaryListsAllWatches) {
  PublishEstate();
  const HttpResponse resp = handler_.Handle(Get("/v1/estate"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"cdbm011/cpu\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"cdbm012/memory\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"cdbm013/cpu\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"tick\":7"), std::string::npos);
}

TEST_F(HandlersTest, ForecastEndpoint) {
  PublishEstate();
  const HttpResponse resp =
      handler_.Handle(Get("/v1/forecast?instance=cdbm011&metric=cpu"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"key\":\"cdbm011/cpu\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"start_epoch\":1000000"), std::string::npos);
  EXPECT_NE(resp.body.find("\"mean\":[50,52"), std::string::npos);
}

// Every other forecast here is integral, which prints as "%.0f". These
// values take the shortest round-trip "%g" path instead; the body was
// captured from the snprintf/sscanf writer and must not change by a byte.
TEST_F(HandlersTest, ForecastBodyBytesArePinned) {
  auto view = std::make_shared<EstateView>();
  view->now_epoch = 1000000;
  InstanceStatus s;
  s.key = "cdbm011/cpu";
  s.instance = "cdbm011";
  s.metric = "cpu";
  s.has_forecast = true;
  s.forecast.level = 0.95;
  s.forecast.mean = {0.0001, 1.0 / 3, 123456.7, -2.5e-7, 1.5e16};
  s.forecast.lower = {0.1 + 0.2, 2.5, 100.5, 1e15, -0.0};
  s.forecast.upper = {0.125, 1e16, 52879.49, 5e-324, 1e-5};
  s.forecast_start_epoch = 1700000000;
  s.forecast_step_seconds = 3600;
  s.spec = "HES a=0.1";
  view->instances = {s};
  channel_.Publish(view);
  const HttpResponse resp =
      handler_.Handle(Get("/v1/forecast?instance=cdbm011&metric=cpu"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body,
            "{\"key\":\"cdbm011/cpu\",\"view_version\":1,"
            "\"start_epoch\":1700000000,\"step_seconds\":3600,"
            "\"spec\":\"HES a=0.1\",\"degradation\":\"full\","
            "\"forecast\":{\"level\":0.95,"
            "\"mean\":[0.0001,0.3333333333333333,123456.7,-2.5e-07,1.5e+16],"
            "\"lower\":[0.30000000000000004,2.5,100.5,1e+15,-0],"
            "\"upper\":[0.125,1e+16,52879.49,5e-324,1e-05]}}");
}

TEST_F(HandlersTest, ForecastHorizonTruncates) {
  PublishEstate();
  const HttpResponse resp = handler_.Handle(
      Get("/v1/forecast?instance=cdbm011&metric=cpu&horizon=2"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"mean\":[50,52]"), std::string::npos);
  EXPECT_EQ(handler_
                .Handle(Get(
                    "/v1/forecast?instance=cdbm011&metric=cpu&horizon=0"))
                .status,
            400);
  EXPECT_EQ(handler_
                .Handle(Get(
                    "/v1/forecast?instance=cdbm011&metric=cpu&horizon=x"))
                .status,
            400);
}

TEST_F(HandlersTest, MissingParamsAre400UnknownKeyIs404) {
  PublishEstate();
  EXPECT_EQ(handler_.Handle(Get("/v1/forecast")).status, 400);
  EXPECT_EQ(handler_.Handle(Get("/v1/forecast?instance=cdbm011")).status,
            400);
  EXPECT_EQ(
      handler_.Handle(Get("/v1/forecast?instance=nope&metric=cpu")).status,
      404);
}

TEST_F(HandlersTest, ForecastPendingInstanceIs503) {
  PublishEstate();
  const HttpResponse resp =
      handler_.Handle(Get("/v1/forecast?instance=cdbm012&metric=memory"));
  EXPECT_EQ(resp.status, 503);
}

TEST_F(HandlersTest, BreachUsesConfiguredThreshold) {
  PublishEstate();
  const HttpResponse resp =
      handler_.Handle(Get("/v1/breach?instance=cdbm011&metric=cpu"));
  ASSERT_EQ(resp.status, 200);
  // Configured threshold 80: mean 50+2i crosses at i=15 -> step 16.
  EXPECT_NE(resp.body.find("\"mean_breach\":true"), std::string::npos);
  EXPECT_NE(resp.body.find("\"steps_to_mean_breach\":16"), std::string::npos);
  EXPECT_NE(resp.body.find("\"threshold\":80"), std::string::npos);
}

TEST_F(HandlersTest, BreachThresholdOverride) {
  PublishEstate();
  const HttpResponse resp = handler_.Handle(
      Get("/v1/breach?instance=cdbm011&metric=cpu&threshold=1000"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"mean_breach\":false"), std::string::npos);
  EXPECT_EQ(
      handler_
          .Handle(Get("/v1/breach?instance=cdbm011&metric=cpu&threshold=x"))
          .status,
      400);
  // "nan" as a threshold is rejected at parse time (400), before it could
  // reach the planner.
  EXPECT_EQ(
      handler_
          .Handle(Get("/v1/breach?instance=cdbm011&metric=cpu&threshold=nan"))
          .status,
      400);
}

TEST_F(HandlersTest, NaNForecastMapsTo422) {
  PublishEstate();
  const HttpResponse resp =
      handler_.Handle(Get("/v1/breach?instance=cdbm013&metric=cpu"));
  EXPECT_EQ(resp.status, 422);
  EXPECT_NE(resp.body.find("\"code\":\"ComputeError\""), std::string::npos);
}

TEST_F(HandlersTest, HeadroomEndpoint) {
  PublishEstate();
  const HttpResponse resp = handler_.Handle(
      Get("/v1/headroom?instance=cdbm011&metric=cpu&capacity=200"));
  ASSERT_EQ(resp.status, 200);
  // Last recent value 47; peak upper 55+2*23=101 -> headroom (200-101)/200.
  EXPECT_NE(resp.body.find("\"current_usage\":47"), std::string::npos);
  EXPECT_NE(resp.body.find("\"peak_upper\":101"), std::string::npos);
  EXPECT_NE(resp.body.find("\"headroom_fraction\":0.495"), std::string::npos);
}

TEST_F(HandlersTest, ZeroCapacityMapsTo422) {
  PublishEstate();
  const HttpResponse resp = handler_.Handle(
      Get("/v1/headroom?instance=cdbm011&metric=cpu&capacity=0"));
  EXPECT_EQ(resp.status, 422);
  EXPECT_NE(resp.body.find("\"code\":\"InvalidArgument\""),
            std::string::npos);
  // Missing capacity is a 400 (malformed request, not planner rejection).
  EXPECT_EQ(
      handler_.Handle(Get("/v1/headroom?instance=cdbm011&metric=cpu")).status,
      400);
}

TEST_F(HandlersTest, AnswersAreCachedPerViewVersion) {
  PublishEstate();
  const std::string target = "/v1/forecast?instance=cdbm011&metric=cpu";
  ASSERT_EQ(handler_.Handle(Get(target)).status, 200);
  ASSERT_EQ(handler_.Handle(Get(target)).status, 200);
  EXPECT_EQ(handler_.cache().hits(), 1u);
  // Equivalent spelling (reordered params) hits the same cache entry.
  ASSERT_EQ(
      handler_.Handle(Get("/v1/forecast?metric=cpu&instance=cdbm011")).status,
      200);
  EXPECT_EQ(handler_.cache().hits(), 2u);
  // A view swap invalidates: next lookup is a miss.
  PublishEstate();
  ASSERT_EQ(handler_.Handle(Get(target)).status, 200);
  EXPECT_EQ(handler_.cache().hits(), 2u);
  EXPECT_GE(handler_.cache().misses(), 2u);
}

TEST_F(HandlersTest, ErrorsAreNotCached) {
  PublishEstate();
  EXPECT_EQ(handler_.Handle(Get("/v1/forecast?instance=nope&metric=cpu"))
                .status,
            404);
  EXPECT_EQ(handler_.Handle(Get("/v1/forecast?instance=nope&metric=cpu"))
                .status,
            404);
  EXPECT_EQ(handler_.cache().hits(), 0u);
}

TEST_F(HandlersTest, MetricsEndpointExposesPrometheusText) {
  PublishEstate();
  ASSERT_EQ(handler_.Handle(Get("/v1/estate")).status, 200);
  const HttpResponse resp = handler_.Handle(Get("/metrics"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(resp.body.find("capplan_serve_endpoint_requests_total"),
            std::string::npos);
  EXPECT_NE(resp.body.find("capplan_serve_cache_misses_total"),
            std::string::npos);
}

TEST_F(HandlersTest, MetricsWithoutRegistryIs404) {
  ViewChannel channel;
  EstateQueryHandler bare(&channel);
  EXPECT_EQ(bare.Handle(Get("/metrics")).status, 404);
}

std::shared_ptr<EstateView> WithShardHealth(std::vector<int> states) {
  auto view = MakeEstate();
  for (std::size_t i = 0; i < states.size(); ++i) {
    ShardHealthStatus hs;
    hs.shard = i;
    hs.state = states[i];
    hs.state_name = states[i] == 0   ? "healthy"
                    : states[i] == 1 ? "degraded"
                                     : "critical";
    hs.reason = states[i] == 0 ? "nominal" : "refit queue depth";
    hs.refit_queue_depth = states[i] == 0 ? 0 : 200;
    if (hs.state > view->overall_health) view->overall_health = hs.state;
    view->shard_health.push_back(std::move(hs));
  }
  return view;
}

// Liveness vs readiness: /healthz answers "is the process serving a view",
// /healthz?deep=1 additionally folds in the per-shard health machines.
TEST_F(HandlersTest, DeepHealthzTable) {
  struct Case {
    const char* name;
    std::vector<int> states;  // per-shard health; empty = hand-built view
    int want_status;
  };
  const Case cases[] = {
      {"all healthy", {0, 0}, 200},
      {"degraded is still ready", {0, 1}, 200},
      {"one critical shard fails readiness", {0, 2}, 503},
      {"all critical", {2, 2, 2}, 503},
      {"no shard health published (hand-built view)", {}, 200},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    channel_.Publish(WithShardHealth(c.states));
    const HttpResponse deep = handler_.Handle(Get("/healthz?deep=1"));
    EXPECT_EQ(deep.status, c.want_status);
    if (c.want_status == 200) {
      EXPECT_EQ(deep.body, "ok\n");
    } else {
      EXPECT_NE(deep.body.find("critical"), std::string::npos);
    }
    // Plain liveness never deepens, whatever the shards say.
    const HttpResponse shallow = handler_.Handle(Get("/healthz"));
    EXPECT_EQ(shallow.status, 200);
    EXPECT_EQ(shallow.body, "ok\n");
  }
}

TEST_F(HandlersTest, DeepHealthzCarriesRetryAfter) {
  channel_.Publish(WithShardHealth({2}));
  const HttpResponse resp = handler_.Handle(Get("/healthz?deep=1"));
  ASSERT_EQ(resp.status, 503);
  bool has_retry = false;
  for (const auto& [k, v] : resp.headers) {
    if (k == "Retry-After") has_retry = true;
  }
  EXPECT_TRUE(has_retry);
}

TEST_F(HandlersTest, HealthEndpointReportsPerShardState) {
  channel_.Publish(WithShardHealth({0, 2}));
  const HttpResponse resp = handler_.Handle(Get("/v1/health"));
  ASSERT_EQ(resp.status, 200);  // diagnostics stay reachable when critical
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_NE(resp.body.find("\"overall\":\"critical\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"refit_queue_depth\":200"), std::string::npos);
  EXPECT_NE(resp.body.find("refit queue depth"), std::string::npos);
}

TEST_F(HandlersTest, HealthEndpointOnHealthyEstate) {
  channel_.Publish(WithShardHealth({0}));
  const HttpResponse resp = handler_.Handle(Get("/v1/health"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"overall\":\"healthy\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"state\":\"healthy\""), std::string::npos);
}

TEST_F(HandlersTest, HealthEndpointBeforeFirstViewIs503) {
  EXPECT_EQ(handler_.Handle(Get("/v1/health")).status, 503);
}

// ---------------------------------------------------------------------------
// Flight-recorder surface: /v1/slo, /v1/debug/*, cache exemption.

TEST(CacheExemptTest, ClassifiesTheLiveStateEndpoints) {
  EXPECT_TRUE(EstateQueryHandler::CacheExempt("/metrics"));
  EXPECT_TRUE(EstateQueryHandler::CacheExempt("/v1/slo"));
  EXPECT_TRUE(EstateQueryHandler::CacheExempt("/v1/debug/events"));
  EXPECT_TRUE(EstateQueryHandler::CacheExempt("/v1/debug/slow"));
  EXPECT_FALSE(EstateQueryHandler::CacheExempt("/v1/estate"));
  EXPECT_FALSE(EstateQueryHandler::CacheExempt("/v1/forecast"));
  EXPECT_FALSE(EstateQueryHandler::CacheExempt("/healthz"));
}

TEST_F(HandlersTest, SloEndpointWithoutTrackersIs404) {
  // Routes before the view gate, so the answer is the same either way.
  EXPECT_EQ(handler_.Handle(Get("/v1/slo")).status, 404);
  PublishEstate();
  const HttpResponse resp = handler_.Handle(Get("/v1/slo"));
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("no SLO trackers wired"), std::string::npos);
}

obs::WideEvent DebugEvent(obs::WideEventKind kind, const char* key, int shard,
                          double dur_ms, const char* outcome) {
  obs::WideEvent ev;
  ev.kind = kind;
  ev.set_key(key);
  ev.shard = shard;
  ev.dur_ns = static_cast<std::uint64_t>(dur_ms * 1e6);
  ev.outcome = outcome;
  return ev;
}

long MatchedCount(const std::string& body) {
  const std::size_t pos = body.find("\"matched\":");
  EXPECT_NE(pos, std::string::npos) << body;
  if (pos == std::string::npos) return -1;
  return std::strtol(body.c_str() + pos + 10, nullptr, 10);
}

// The recorder is process-global: start and finish each test disabled and
// empty so neighbours see a clean ring.
class DebugHandlersTest : public HandlersTest {
 protected:
  void SetUp() override {
    obs::EventLog::Instance().Disable();
    obs::EventLog::Instance().Clear();
  }
  void TearDown() override {
    obs::EventLog::Instance().Disable();
    obs::EventLog::Instance().Clear();
  }
};

TEST_F(DebugHandlersTest, DebugEventsServeWithoutViewOrRecorder) {
  // No view published and the recorder disabled: still a 200 with an empty
  // ring, because the debug surface bypasses the view gate entirely.
  const HttpResponse resp = handler_.Handle(Get("/v1/debug/events"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_NE(resp.body.find("\"enabled\":false"), std::string::npos);
  EXPECT_NE(resp.body.find("\"buffered\":0"), std::string::npos);
  EXPECT_EQ(MatchedCount(resp.body), 0);
  EXPECT_NE(resp.body.find("\"events\":[]"), std::string::npos);
}

TEST_F(DebugHandlersTest, EventFilterTable) {
  obs::EventLog& log = obs::EventLog::Instance();
  log.Enable();
  log.Emit(DebugEvent(obs::WideEventKind::kRefit, "db1/cpu", 0, 1000.0, "ok"));
  log.Emit(
      DebugEvent(obs::WideEventKind::kRefit, "db2/cpu", 1, 2.0, "error"));
  log.Emit(DebugEvent(obs::WideEventKind::kPromotion, "db1/cpu", 0, 1.0,
                      "promoted"));
  log.Emit(DebugEvent(obs::WideEventKind::kTickOverrun, "shard.tick", 1,
                      5000.0, "overrun"));
  // Every debug request emits its own http_request event afterwards; the
  // filters below are chosen so those never match (different key/kind/shard,
  // "ok" outcome, sub-second duration).
  struct Case {
    const char* name;
    const char* target;
    long want_matched;
  };
  const Case cases[] = {
      {"by key", "/v1/debug/events?key=db1/cpu", 2},
      {"by shard", "/v1/debug/events?shard=1", 2},
      {"by kind", "/v1/debug/events?kind=refit", 2},
      {"by outcome", "/v1/debug/events?outcome=error", 1},
      {"by min duration", "/v1/debug/events?min_duration_ms=500", 2},
      {"kind and shard", "/v1/debug/events?kind=refit&shard=1", 1},
      {"key with limit", "/v1/debug/events?key=db1/cpu&limit=1", 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const HttpResponse resp = handler_.Handle(Get(c.target));
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(MatchedCount(resp.body), c.want_matched) << resp.body;
  }
  // Newest-first: with limit=1 the key filter returns the promotion, which
  // was emitted after the refit for the same key.
  const HttpResponse newest =
      handler_.Handle(Get("/v1/debug/events?key=db1/cpu&limit=1"));
  EXPECT_NE(newest.body.find("\"kind\":\"promotion\""), std::string::npos);
}

TEST_F(DebugHandlersTest, BadFilterParamsAreUniform400) {
  const char* bad[] = {
      "shard=-1",          "shard=x",  "kind=nope", "min_duration_ms=-1",
      "min_duration_ms=x", "limit=0",  "limit=1001", "limit=x",
      "frobnicate=1",
  };
  for (const char* endpoint : {"/v1/debug/events", "/v1/debug/slow"}) {
    for (const char* query : bad) {
      SCOPED_TRACE(std::string(endpoint) + "?" + query);
      const HttpResponse resp =
          handler_.Handle(Get(std::string(endpoint) + "?" + query));
      EXPECT_EQ(resp.status, 400);
      EXPECT_EQ(resp.content_type, "application/json");
      EXPECT_NE(resp.body.find("\"code\":\"InvalidArgument\""),
                std::string::npos);
    }
  }
}

TEST_F(DebugHandlersTest, SlowEndpointOrdersByDurationDesc) {
  obs::EventLog& log = obs::EventLog::Instance();
  log.Enable();
  log.Emit(DebugEvent(obs::WideEventKind::kRefit, "a", 0, 5.0, "ok"));
  log.Emit(DebugEvent(obs::WideEventKind::kRefit, "b", 0, 50.0, "ok"));
  log.Emit(DebugEvent(obs::WideEventKind::kRefit, "c", 0, 1.0, "ok"));
  const HttpResponse resp = handler_.Handle(Get("/v1/debug/slow?kind=refit"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(MatchedCount(resp.body), 3);
  const std::size_t pb = resp.body.find("\"key\":\"b\"");
  const std::size_t pa = resp.body.find("\"key\":\"a\"");
  const std::size_t pc = resp.body.find("\"key\":\"c\"");
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pc, std::string::npos);
  EXPECT_LT(pb, pa);
  EXPECT_LT(pa, pc);
  // The limit keeps only the slowest.
  const HttpResponse top =
      handler_.Handle(Get("/v1/debug/slow?kind=refit&limit=2"));
  EXPECT_EQ(MatchedCount(top.body), 2);
  EXPECT_NE(top.body.find("\"key\":\"b\""), std::string::npos);
  EXPECT_EQ(top.body.find("\"key\":\"c\""), std::string::npos);
}

// Handler wired the way the daemon wires it: registry + SLO trackers.
class SloHandlersTest : public ::testing::Test {
 protected:
  SloHandlersTest() : registry_(std::make_shared<obs::MetricsRegistry>()) {
    slos_ = std::make_shared<obs::SloSet>();
    obs::SloTracker::Options accuracy;
    accuracy.objective = 0.9;
    slos_->Add("forecast_accuracy", accuracy);
    slos_->Add("serve_latency", obs::SloTracker::Options());
    EstateQueryHandler::Options options;
    options.slos = slos_;
    handler_ = std::make_unique<EstateQueryHandler>(&channel_, registry_,
                                                    options);
  }
  void SetUp() override {
    obs::EventLog::Instance().Disable();
    obs::EventLog::Instance().Clear();
  }
  void TearDown() override {
    obs::EventLog::Instance().Disable();
    obs::EventLog::Instance().Clear();
  }

  ViewChannel channel_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::SloSet> slos_;
  std::unique_ptr<EstateQueryHandler> handler_;
};

TEST_F(SloHandlersTest, SloEndpointListsTrackersBeforeAnyView) {
  for (int i = 0; i < 9; ++i) {
    slos_->Find("forecast_accuracy")->Record(true, 100.0);
  }
  slos_->Find("forecast_accuracy")->Record(false, 100.0);
  const HttpResponse resp = handler_->Handle(Get("/v1/slo"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_NE(resp.body.find("\"name\":\"forecast_accuracy\""),
            std::string::npos);
  EXPECT_NE(resp.body.find("\"name\":\"serve_latency\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"objective\":0.9"), std::string::npos);
  EXPECT_NE(resp.body.find("\"bad_events\":1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"fast_burn\":"), std::string::npos);
}

TEST_F(SloHandlersTest, EveryRenderedRequestFeedsTheLatencySlo) {
  channel_.Publish(MakeEstate());
  ASSERT_EQ(handler_->Handle(Get("/v1/estate")).status, 200);
  const obs::SloTracker::Burn burn =
      slos_->Find("serve_latency")->Evaluate(0.0);
  EXPECT_GE(burn.total_events, 1u);
}

TEST_F(SloHandlersTest, CacheExemptEndpointsBypassTheAnswerCache) {
  channel_.Publish(MakeEstate());
  for (const char* target : {"/metrics", "/v1/slo", "/v1/debug/events"}) {
    SCOPED_TRACE(target);
    ASSERT_EQ(handler_->Handle(Get(target)).status, 200);
    ASSERT_EQ(handler_->Handle(Get(target)).status, 200);
  }
  // Repeated scrapes of live-state endpoints never touch the answer cache.
  EXPECT_EQ(handler_->cache().hits(), 0u);
  EXPECT_EQ(handler_->cache().misses(), 0u);
  // Sanity: a cacheable endpoint still caches under the same handler.
  ASSERT_EQ(handler_->Handle(Get("/v1/estate")).status, 200);
  ASSERT_EQ(handler_->Handle(Get("/v1/estate")).status, 200);
  EXPECT_EQ(handler_->cache().hits(), 1u);
}

TEST_F(SloHandlersTest, MetricsScrapeCarriesSloFamilyAndExemplars) {
  obs::EventLog::Instance().Enable();
  channel_.Publish(MakeEstate());
  ASSERT_EQ(handler_->Handle(Get("/v1/estate")).status, 200);
  const HttpResponse resp = handler_->Handle(GetOpenMetrics("/metrics"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type,
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  EXPECT_NE(resp.body.find("capplan_slo_fast_burn_ratio"), std::string::npos);
  EXPECT_NE(resp.body.find("slo=\"serve_latency\""), std::string::npos);
  EXPECT_NE(resp.body.find("capplan_obs_events_dropped_total"),
            std::string::npos);
  EXPECT_NE(resp.body.find("capplan_obs_trace_dropped_total"),
            std::string::npos);
  // The /v1/estate request above left an exemplar on its latency bucket,
  // and the OpenMetrics exposition is terminated by `# EOF`.
  EXPECT_NE(resp.body.find("# {span_id=\""), std::string::npos);
  ASSERT_GE(resp.body.size(), 6u);
  EXPECT_EQ(resp.body.substr(resp.body.size() - 6), "# EOF\n");
}

TEST_F(SloHandlersTest, PlainScrapeStaysExemplarFreePrometheus004) {
  // Without OpenMetrics negotiation the scrape must stay parseable by a
  // vanilla Prometheus 0.0.4 text parser, which rejects exemplar tokens.
  obs::EventLog::Instance().Enable();
  channel_.Publish(MakeEstate());
  ASSERT_EQ(handler_->Handle(Get("/v1/estate")).status, 200);
  const HttpResponse resp = handler_->Handle(Get("/metrics"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(resp.body.find(" # {"), std::string::npos);
  EXPECT_EQ(resp.body.find("# EOF"), std::string::npos);
}

}  // namespace
}  // namespace capplan::serve
