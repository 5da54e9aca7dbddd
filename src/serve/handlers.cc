#include "serve/handlers.h"

#include <chrono>
#include <cmath>

#include <algorithm>
#include <vector>

#include "common/json_writer.h"
#include "common/number_format.h"
#include "core/capacity.h"
#include "core/report_json.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "tsa/mstl.h"
#include "tsa/seasonality.h"
#include "tsa/timeseries.h"

namespace capplan::serve {

namespace {

double NowSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HttpResponse ErrorResponse(int status, const char* code,
                           const std::string& message) {
  JsonWriter w(false);
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Integer("status", status);
  w.String("code", code);
  w.String("message", message);
  w.EndObject();
  w.EndObject();
  return HttpResponse::Json(status, w.Take());
}

// Planner Result errors surface as 422: the request was well-formed HTTP
// but the estate's data cannot answer it (empty forecast, NaN bounds, ...).
HttpResponse UnprocessableResponse(const Status& status) {
  return ErrorResponse(422, StatusCodeToString(status.code()),
                       status.message());
}

// The strict number parser, also rejecting non-finite spellings ("nan",
// "inf") so they cannot smuggle past the planner's own finiteness checks
// as literal NaN thresholds.
bool ParseFinite(const std::string& s, double* out) {
  double v = 0.0;
  if (!ParseDouble(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// Canonical cache key: the query map is sorted and percent-decoded, so two
// spellings of the same query collapse to one entry.
std::string CacheKey(const HttpRequest& request) {
  std::string key = request.path;
  char sep = '?';
  for (const auto& [k, v] : request.query) {
    key += sep;
    key += k;
    key += '=';
    key += v;
    sep = '&';
  }
  return key;
}

}  // namespace

EstateQueryHandler::EstateQueryHandler(
    const ViewChannel* channel, std::shared_ptr<obs::MetricsRegistry> registry,
    Options options)
    : channel_(channel),
      registry_(std::move(registry)),
      options_(options),
      cache_(options.cache, registry_) {
  if (registry_ != nullptr) {
    obs::MetricsRegistry& reg = *registry_;
    const auto endpoint = [&reg](const char* name) {
      EndpointMetrics m;
      m.requests = reg.GetCounter("capplan_serve_endpoint_requests_total",
                                  {{"endpoint", name}},
                                  "Requests routed per endpoint");
      m.latency = reg.GetHistogram("capplan_serve_handler_latency_ms", {},
                                   {{"endpoint", name}},
                                   "Handler render latency per endpoint");
      return m;
    };
    m_forecast_ = endpoint("forecast");
    m_breach_ = endpoint("breach");
    m_headroom_ = endpoint("headroom");
    m_decompose_ = endpoint("decompose");
    m_estate_ = endpoint("estate");
    m_health_ = endpoint("health");
    m_slo_ = endpoint("slo");
    m_debug_events_ = endpoint("debug_events");
    m_debug_slow_ = endpoint("debug_slow");
    m_errors_ = reg.GetCounter("capplan_serve_handler_errors_total", {},
                               "Responses with status >= 400");
    m_trace_dropped_ =
        reg.GetCounter("capplan_obs_trace_dropped_total", {},
                       "Trace ring events overwritten because a ring was full");
    m_events_dropped_ = reg.GetCounter(
        "capplan_obs_events_dropped_total", {},
        "Wide events overwritten because an event-log ring was full");
  }
}

bool EstateQueryHandler::CacheExempt(const std::string& path) {
  return path == "/metrics" || path == "/v1/slo" ||
         path.rfind("/v1/debug/", 0) == 0;
}

HttpResponse EstateQueryHandler::Handle(const HttpRequest& request) {
  const std::shared_ptr<const EstateView> view = channel_->Get();
  HttpResponse response = Dispatch(request, view);
  if (response.status >= 400) m_errors_.Inc();
  return response;
}

HttpResponse EstateQueryHandler::Dispatch(
    const HttpRequest& request,
    const std::shared_ptr<const EstateView>& view) {
  if (request.method != "GET" && request.method != "HEAD") {
    HttpResponse resp = ErrorResponse(405, "MethodNotAllowed",
                                      "only GET and HEAD are supported");
    resp.headers.emplace_back("Allow", "GET, HEAD");
    return resp;
  }
  if (request.path == "/healthz") {
    if (view == nullptr) return ServiceUnavailable("no view published yet");
    // Liveness ("is the daemon up and publishing?") answers 200 the moment
    // a view exists. The readiness variant (?deep=1) additionally consults
    // the per-shard health-state machines carried on the view: any critical
    // shard fails the probe so load balancers stop routing to this replica,
    // while degraded shards stay in rotation.
    const auto deep = request.query.find("deep");
    if (deep != request.query.end() && deep->second == "1") {
      for (const ShardHealthStatus& sh : view->shard_health) {
        if (sh.state >= 2) {
          return ServiceUnavailable("shard " + std::to_string(sh.shard) +
                                    " critical: " + sh.reason);
        }
      }
    }
    return HttpResponse::Text(200, "ok\n");
  }
  if (request.path == "/metrics") return HandleMetrics(request);

  const bool is_v1 = request.path.rfind("/v1/", 0) == 0;
  if (!is_v1) {
    return ErrorResponse(404, "NotFound", "no such endpoint: " + request.path);
  }

  obs::TraceSpan span("serve.request", "serve");
  HttpResponse response;
  EndpointMetrics* metrics = nullptr;

  // The debug/SLO surface reads live recorder state and needs no view, so
  // it routes before the view gate and never consults the answer cache.
  if (request.path == "/v1/slo") {
    response = HandleSlo();
    metrics = &m_slo_;
  } else if (request.path == "/v1/debug/events") {
    response = HandleDebugEvents(request);
    metrics = &m_debug_events_;
  } else if (request.path == "/v1/debug/slow") {
    response = HandleDebugSlow(request);
    metrics = &m_debug_slow_;
  }

  std::string cache_key;
  if (metrics == nullptr) {
    if (view == nullptr) return ServiceUnavailable("no view published yet");

    // Cache probe: every cacheable /v1/* answer is deterministic given
    // (view version, canonical query), so a hit skips rendering entirely.
    cache_key = CacheKey(request);
    if (!CacheExempt(request.path)) {
      if (auto cached = cache_.Get(cache_key, view->version, NowSeconds())) {
        return *std::move(cached);
      }
    }

    if (request.path == "/v1/estate") {
      response = HandleEstate(*view);
      metrics = &m_estate_;
    } else if (request.path == "/v1/health") {
      response = HandleHealth(*view);
      metrics = &m_health_;
    } else if (request.path == "/v1/forecast") {
      response = HandleForecast(request, *view);
      metrics = &m_forecast_;
    } else if (request.path == "/v1/breach") {
      response = HandleBreach(request, *view);
      metrics = &m_breach_;
    } else if (request.path == "/v1/headroom") {
      response = HandleHeadroom(request, *view);
      metrics = &m_headroom_;
    } else if (request.path == "/v1/decompose") {
      response = HandleDecompose(request, *view);
      metrics = &m_decompose_;
    } else {
      return ErrorResponse(404, "NotFound",
                           "no such endpoint: " + request.path);
    }
  }

  const double elapsed_ms = span.End();
  // One wide event per rendered request; its id plus the request span id
  // become the latency histogram's exemplar for the bucket this request
  // landed in, so a p99 spike links straight back to the evidence.
  obs::EventLog& events = obs::EventLog::Instance();
  std::uint64_t event_id = 0;
  if (events.enabled()) {
    obs::WideEvent ev;
    ev.kind = obs::WideEventKind::kHttpRequest;
    ev.set_key(request.path);
    ev.set_timing(span.timing());
    ev.outcome = response.status < 400 ? "ok" : "error";
    ev.AddAttr("status", static_cast<double>(response.status));
    event_id = events.Emit(ev);
  }
  metrics->requests.Inc();
  metrics->latency.ObserveWithExemplar(elapsed_ms, span.id(), event_id);
  if (options_.slos != nullptr) {
    if (obs::SloTracker* slo = options_.slos->Find("serve_latency")) {
      slo->Record(elapsed_ms <= options_.latency_slo_threshold_ms,
                  NowSeconds());
    }
  }

  if (response.status == 200 && !cache_key.empty() &&
      !CacheExempt(request.path)) {
    cache_.Put(cache_key, view->version, NowSeconds(), response);
  }
  return response;
}

HttpResponse EstateQueryHandler::ServiceUnavailable(
    const std::string& message) const {
  HttpResponse resp = ErrorResponse(503, "Unavailable", message);
  resp.headers.emplace_back("Retry-After",
                            std::to_string(options_.retry_after_seconds));
  return resp;
}

const InstanceStatus* EstateQueryHandler::ResolveInstance(
    const HttpRequest& request, const EstateView& view, bool require_forecast,
    HttpResponse* error) {
  const auto instance = request.query.find("instance");
  const auto metric = request.query.find("metric");
  if (instance == request.query.end() || metric == request.query.end() ||
      instance->second.empty() || metric->second.empty()) {
    *error = ErrorResponse(
        400, "InvalidArgument",
        "required query parameters: instance=<name>&metric=<name>");
    return nullptr;
  }
  const std::string key = instance->second + "/" + metric->second;
  const InstanceStatus* status = view.Find(key);
  if (status == nullptr) {
    *error = ErrorResponse(404, "NotFound", "no such watch: " + key);
    return nullptr;
  }
  if (require_forecast && !status->has_forecast) {
    *error = ServiceUnavailable("no forecast cached yet for " + key);
    return nullptr;
  }
  return status;
}

HttpResponse EstateQueryHandler::HandleEstate(const EstateView& view) {
  obs::TraceSpan span("serve.estate", "serve");
  JsonWriter w(false);
  w.BeginObject();
  w.Integer("version", static_cast<long long>(view.version));
  w.Integer("now_epoch", view.now_epoch);
  w.Integer("tick", static_cast<long long>(view.tick));
  w.BeginArray("instances");
  for (const InstanceStatus& s : view.instances) {
    w.BeginObject();
    w.String("key", s.key);
    w.String("instance", s.instance);
    w.String("metric", s.metric);
    w.Number("threshold", s.threshold);
    w.Bool("has_forecast", s.has_forecast);
    w.String("spec", s.spec);
    w.String("degradation", core::DegradationLevelName(s.degradation));
    w.Number("quality_score", s.quality_score);
    w.Bool("trainable", s.trainable);
    w.String("quality_verdict", s.quality_verdict);
    w.Bool("alert_active", s.alert_active);
    w.Bool("alert_upper_only", s.alert_upper_only);
    w.Integer("predicted_breach_epoch", s.predicted_breach_epoch);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleHealth(const EstateView& view) {
  obs::TraceSpan span("serve.health", "serve");
  // Deep introspection, not a probe: always 200 with the full picture (the
  // 503-on-critical behavior belongs to /healthz?deep=1), so a dashboard
  // can still read *why* an estate is unhealthy.
  const char* kStateNames[] = {"healthy", "degraded", "critical"};
  JsonWriter w(false);
  w.BeginObject();
  w.Integer("version", static_cast<long long>(view.version));
  w.Integer("now_epoch", view.now_epoch);
  const int overall =
      view.overall_health >= 0 && view.overall_health <= 2
          ? view.overall_health
          : 2;
  w.String("overall", kStateNames[overall]);
  w.BeginArray("shards");
  for (const ShardHealthStatus& sh : view.shard_health) {
    w.BeginObject();
    w.Integer("shard", static_cast<long long>(sh.shard));
    w.String("state", sh.state_name);
    w.String("reason", sh.reason);
    w.Integer("refit_queue_depth",
              static_cast<long long>(sh.refit_queue_depth));
    w.Integer("quarantined", static_cast<long long>(sh.quarantined));
    w.Integer("tick_overruns", static_cast<long long>(sh.tick_overruns));
    w.Integer("rollbacks", static_cast<long long>(sh.rollbacks));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleForecast(const HttpRequest& request,
                                                const EstateView& view) {
  obs::TraceSpan span("serve.forecast", "serve");
  HttpResponse error;
  const InstanceStatus* s =
      ResolveInstance(request, view, /*require_forecast=*/true, &error);
  if (s == nullptr) return error;

  std::size_t horizon = s->forecast.mean.size();
  const auto h = request.query.find("horizon");
  if (h != request.query.end()) {
    long parsed = 0;
    if (!ParseInt(h->second, &parsed) || parsed < 1) {
      return ErrorResponse(400, "InvalidArgument",
                           "horizon must be a positive integer");
    }
    horizon = std::min(horizon, static_cast<std::size_t>(parsed));
  }
  models::Forecast fc = s->forecast;
  fc.mean.resize(std::min(fc.mean.size(), horizon));
  fc.lower.resize(std::min(fc.lower.size(), horizon));
  fc.upper.resize(std::min(fc.upper.size(), horizon));

  JsonWriter w(false);
  w.BeginObject();
  w.String("key", s->key);
  w.Integer("view_version", static_cast<long long>(view.version));
  w.Integer("start_epoch", s->forecast_start_epoch);
  w.Integer("step_seconds", s->forecast_step_seconds);
  w.String("spec", s->spec);
  w.String("degradation", core::DegradationLevelName(s->degradation));
  w.Key("forecast");
  w.BeginObject();
  core::WriteForecastFields(&w, fc);
  w.EndObject();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleBreach(const HttpRequest& request,
                                              const EstateView& view) {
  obs::TraceSpan span("serve.breach", "serve");
  HttpResponse error;
  const InstanceStatus* s =
      ResolveInstance(request, view, /*require_forecast=*/true, &error);
  if (s == nullptr) return error;

  double threshold = s->threshold;
  const auto t = request.query.find("threshold");
  if (t != request.query.end() && !ParseFinite(t->second, &threshold)) {
    return ErrorResponse(400, "InvalidArgument",
                         "threshold must be a finite number");
  }
  auto breach = core::CapacityPlanner::PredictBreach(
      s->forecast, threshold, s->forecast_start_epoch,
      s->forecast_step_seconds);
  if (!breach.ok()) return UnprocessableResponse(breach.status());

  JsonWriter w(false);
  w.BeginObject();
  w.String("key", s->key);
  w.Integer("view_version", static_cast<long long>(view.version));
  w.Number("threshold", threshold);
  core::WriteBreachFields(&w, *breach);
  w.Bool("alert_active", s->alert_active);
  w.Bool("alert_upper_only", s->alert_upper_only);
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleHeadroom(const HttpRequest& request,
                                                const EstateView& view) {
  obs::TraceSpan span("serve.headroom", "serve");
  HttpResponse error;
  const InstanceStatus* s =
      ResolveInstance(request, view, /*require_forecast=*/true, &error);
  if (s == nullptr) return error;

  const auto c = request.query.find("capacity");
  double capacity = 0.0;
  if (c == request.query.end() || !ParseFinite(c->second, &capacity)) {
    return ErrorResponse(400, "InvalidArgument",
                         "required query parameter: capacity=<number>");
  }
  if (s->recent.empty()) {
    return ServiceUnavailable("no recent observations for " + s->key);
  }
  const tsa::TimeSeries recent(s->key, s->recent_start_epoch,
                               tsa::Frequency::kHourly, s->recent);
  auto report =
      core::CapacityPlanner::Headroom(recent, s->forecast, capacity);
  if (!report.ok()) return UnprocessableResponse(report.status());

  JsonWriter w(false);
  w.BeginObject();
  w.String("key", s->key);
  w.Integer("view_version", static_cast<long long>(view.version));
  w.Number("capacity", capacity);
  core::WriteHeadroomFields(&w, *report);
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleDecompose(const HttpRequest& request,
                                                 const EstateView& view) {
  obs::TraceSpan span("serve.decompose", "serve");
  const auto key_it = request.query.find("key");
  if (key_it == request.query.end() || key_it->second.empty()) {
    return ErrorResponse(400, "InvalidArgument",
                         "required query parameter: key=<instance>/<metric>");
  }
  double band = 3.0;
  const auto band_it = request.query.find("band");
  if (band_it != request.query.end() &&
      (!ParseFinite(band_it->second, &band) || band <= 0.0)) {
    return ErrorResponse(400, "InvalidArgument",
                         "band must be a positive number");
  }
  const std::string& key = key_it->second;
  const InstanceStatus* s = view.Find(key);
  if (s == nullptr) {
    return ErrorResponse(404, "NotFound", "no such watch: " + key);
  }
  if (s->history.empty()) {
    return UnprocessableResponse(Status::FailedPrecondition(
        "no observed history published yet for " + key));
  }

  // Prefer the periods the selector routed at fit time; fall back to live
  // detection on the published history when no fit has landed yet (or the
  // router degraded to the single-season path).
  std::vector<std::size_t> periods;
  const char* periods_source = "selector";
  for (double p : s->periods) {
    if (p >= 2.0) periods.push_back(static_cast<std::size_t>(p));
  }
  if (periods.empty()) {
    periods_source = "detected";
    auto detected = tsa::DetectSeasonality(s->history);
    if (detected.ok()) {
      for (const tsa::DetectedSeason& season : *detected) {
        periods.push_back(season.period);
      }
    }
  }
  if (periods.empty()) {
    return UnprocessableResponse(Status::FailedPrecondition(
        "no seasonal period detected for " + key +
        "; decomposition needs at least one season"));
  }

  auto decomp = tsa::MstlDecompose(s->history, periods);
  if (!decomp.ok()) return UnprocessableResponse(decomp.status());

  const double sigma = tsa::RobustSigma(decomp->remainder);
  const std::vector<std::size_t> anomalies =
      tsa::FlagAnomalies(decomp->remainder, band);

  JsonWriter w(false);
  w.BeginObject();
  w.String("key", s->key);
  w.Integer("view_version", static_cast<long long>(view.version));
  w.Integer("start_epoch", s->history_start_epoch);
  w.Integer("step_seconds", 3600);
  w.Integer("n", static_cast<long long>(s->history.size()));
  w.String("periods_source", periods_source);
  w.BeginArray("periods");
  for (std::size_t p : decomp->periods) {
    w.ArrayNumber(static_cast<double>(p));
  }
  w.EndArray();
  w.BeginArray("trend");
  for (double v : decomp->trend) w.ArrayNumber(v);
  w.EndArray();
  // One seasonal component per period, same order as "periods"; the
  // components satisfy x[t] = trend[t] + sum_i seasonal[i][t] + residual[t]
  // exactly, so clients can reconstruct the input from this payload.
  w.BeginArray("seasonal");
  for (std::size_t i = 0; i < decomp->seasonal.size(); ++i) {
    w.BeginObject();
    w.Integer("period", static_cast<long long>(decomp->periods[i]));
    w.BeginArray("values");
    for (double v : decomp->seasonal[i]) w.ArrayNumber(v);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.BeginArray("residual");
  for (double v : decomp->remainder) w.ArrayNumber(v);
  w.EndArray();
  w.Number("robust_sigma", sigma);
  w.Number("band", band);
  w.BeginArray("anomalies");
  for (std::size_t idx : anomalies) {
    w.ArrayNumber(static_cast<double>(idx));
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

HttpResponse EstateQueryHandler::HandleMetrics(const HttpRequest& request) {
  if (registry_ == nullptr) {
    return ErrorResponse(404, "NotFound", "metrics registry not wired");
  }
  // Pull-model metrics are refreshed at the scrape edge: ring drop totals
  // and SLO burn gauges are computed now so the exposition is current.
  m_trace_dropped_ = obs::Tracer::Instance().total_dropped();
  m_events_dropped_ = obs::EventLog::Instance().total_dropped();
  if (options_.slos != nullptr) {
    obs::ExportSloMetrics(*options_.slos, registry_.get(), NowSeconds());
  }
  // Content negotiation: the 0.0.4 text grammar cannot carry exemplars (a
  // vanilla Prometheus scraper errors on the `#` token and fails the whole
  // scrape), so exemplars are served only to scrapers that ask for
  // OpenMetrics via Accept.
  const std::string* accept = request.FindHeader("accept");
  const bool openmetrics =
      accept != nullptr &&
      accept->find("application/openmetrics-text") != std::string::npos;
  HttpResponse resp;
  resp.status = 200;
  if (openmetrics) {
    resp.content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8";
    resp.body = obs::ToPrometheusText(registry_->Collect(),
                                      obs::ExpositionFormat::kOpenMetrics);
  } else {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::ToPrometheusText(registry_->Collect());
  }
  return resp;
}

HttpResponse EstateQueryHandler::HandleSlo() {
  if (options_.slos == nullptr) {
    return ErrorResponse(404, "NotFound", "no SLO trackers wired");
  }
  const double now = NowSeconds();
  JsonWriter w(false);
  w.BeginObject();
  w.BeginArray("slos");
  for (const obs::SloSet::Entry& e : options_.slos->Snapshot(now)) {
    w.BeginObject();
    w.String("name", e.name);
    w.Number("objective", e.options.objective);
    w.Number("fast_window_seconds", e.options.fast_window_seconds);
    w.Number("slow_window_seconds", e.options.slow_window_seconds);
    w.Number("fast_burn", e.burn.fast_burn);
    w.Number("slow_burn", e.burn.slow_burn);
    w.Number("fast_bad_ratio", e.burn.fast_bad_ratio);
    w.Number("slow_bad_ratio", e.burn.slow_bad_ratio);
    w.Integer("fast_events", static_cast<long long>(e.burn.fast_events));
    w.Integer("slow_events", static_cast<long long>(e.burn.slow_events));
    w.Integer("events", static_cast<long long>(e.burn.total_events));
    w.Integer("bad_events", static_cast<long long>(e.burn.bad_events));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

namespace {

// Parsed ?key=&shard=&kind=&outcome=&min_duration_ms=&limit= filters for
// the /v1/debug surface. `error` is filled with the uniform 400 response
// when a parameter does not parse.
struct EventFilter {
  std::string key;
  long shard = -1;  // -1 = any
  bool has_kind = false;
  obs::WideEventKind kind = obs::WideEventKind::kHttpRequest;
  std::string outcome;
  double min_duration_ms = 0.0;
  long limit = 100;
};

bool ParseEventFilter(const HttpRequest& request, long default_limit,
                      EventFilter* out, HttpResponse* error) {
  out->limit = default_limit;
  for (const auto& [k, v] : request.query) {
    if (k == "key") {
      out->key = v;
    } else if (k == "shard") {
      if (!ParseInt(v, &out->shard) || out->shard < 0) {
        *error = ErrorResponse(400, "InvalidArgument",
                               "shard must be a non-negative integer");
        return false;
      }
    } else if (k == "kind") {
      if (!obs::WideEventKindFromName(v, &out->kind)) {
        *error = ErrorResponse(400, "InvalidArgument",
                               "unknown event kind: " + v);
        return false;
      }
      out->has_kind = true;
    } else if (k == "outcome") {
      out->outcome = v;
    } else if (k == "min_duration_ms") {
      if (!ParseFinite(v, &out->min_duration_ms) ||
          out->min_duration_ms < 0.0) {
        *error = ErrorResponse(400, "InvalidArgument",
                               "min_duration_ms must be a non-negative number");
        return false;
      }
    } else if (k == "limit") {
      if (!ParseInt(v, &out->limit) || out->limit < 1 || out->limit > 1000) {
        *error = ErrorResponse(400, "InvalidArgument",
                               "limit must be an integer in [1, 1000]");
        return false;
      }
    } else {
      *error = ErrorResponse(400, "InvalidArgument",
                             "unknown query parameter: " + k);
      return false;
    }
  }
  return true;
}

bool MatchesFilter(const obs::WideEvent& e, const EventFilter& f) {
  if (!f.key.empty() && f.key != e.key) return false;
  if (f.shard >= 0 && e.shard != static_cast<std::int32_t>(f.shard)) {
    return false;
  }
  if (f.has_kind && e.kind != f.kind) return false;
  if (!f.outcome.empty() && f.outcome != e.outcome) return false;
  if (static_cast<double>(e.dur_ns) / 1e6 < f.min_duration_ms) return false;
  return true;
}

void WriteWideEvent(JsonWriter* w, const obs::WideEvent& e) {
  w->BeginObject();
  w->Integer("id", static_cast<long long>(e.id));
  w->String("kind", obs::WideEventKindName(e.kind));
  w->String("key", e.key);
  w->Integer("shard", e.shard);
  w->Integer("span_id", static_cast<long long>(e.span_id));
  w->Integer("journal_seq", static_cast<long long>(e.journal_seq));
  w->Integer("start_ns", static_cast<long long>(e.start_ns));
  w->Number("duration_ms", static_cast<double>(e.dur_ns) / 1e6);
  w->String("outcome", e.outcome);
  w->Integer("tid", static_cast<long long>(e.tid));
  w->Key("attrs");
  w->BeginObject();
  for (std::uint8_t i = 0; i < e.n_attrs; ++i) {
    w->Number(e.attrs[i].name, e.attrs[i].value);
  }
  w->EndObject();
  w->EndObject();
}

HttpResponse RenderEvents(const std::vector<obs::WideEvent>& selected,
                          std::size_t buffered) {
  const obs::EventLog& log = obs::EventLog::Instance();
  JsonWriter w(false);
  w.BeginObject();
  w.Bool("enabled", log.enabled());
  w.Integer("buffered", static_cast<long long>(buffered));
  w.Integer("dropped", static_cast<long long>(log.total_dropped()));
  w.Integer("matched", static_cast<long long>(selected.size()));
  w.BeginArray("events");
  for (const obs::WideEvent& e : selected) WriteWideEvent(&w, e);
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.Take());
}

}  // namespace

HttpResponse EstateQueryHandler::HandleDebugEvents(
    const HttpRequest& request) {
  EventFilter filter;
  HttpResponse error;
  if (!ParseEventFilter(request, /*default_limit=*/100, &filter, &error)) {
    return error;
  }
  const std::vector<obs::WideEvent> all =
      obs::EventLog::Instance().Snapshot();
  // Newest first: the snapshot is oldest-first, so walk it backwards.
  std::vector<obs::WideEvent> selected;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (!MatchesFilter(*it, filter)) continue;
    selected.push_back(*it);
    if (selected.size() >= static_cast<std::size_t>(filter.limit)) break;
  }
  return RenderEvents(selected, all.size());
}

HttpResponse EstateQueryHandler::HandleDebugSlow(const HttpRequest& request) {
  EventFilter filter;
  HttpResponse error;
  if (!ParseEventFilter(request, /*default_limit=*/20, &filter, &error)) {
    return error;
  }
  std::vector<obs::WideEvent> all = obs::EventLog::Instance().Snapshot();
  const std::size_t buffered = all.size();
  std::erase_if(all, [&filter](const obs::WideEvent& e) {
    return !MatchesFilter(e, filter);
  });
  const std::size_t keep =
      std::min(all.size(), static_cast<std::size_t>(filter.limit));
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const obs::WideEvent& a, const obs::WideEvent& b) {
                      return a.dur_ns > b.dur_ns;
                    });
  all.resize(keep);
  return RenderEvents(all, buffered);
}

}  // namespace capplan::serve
