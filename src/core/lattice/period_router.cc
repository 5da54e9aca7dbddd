#include "core/lattice/period_router.h"

#include "common/fault.h"
#include "obs/trace.h"

namespace capplan::core::lattice {

RoutingDecision PeriodRouter::Route(const std::vector<double>& values) const {
  obs::TraceSpan span("select.periods", "select");
  RoutingDecision decision;

  auto detect = [&]() -> Status {
    CAPPLAN_RETURN_NOT_OK(FaultHit("selector.periods"));
    CAPPLAN_ASSIGN_OR_RETURN(decision.seasons,
                             tsa::DetectSeasonality(values,
                                                    options_.seasonality));
    return Status::OK();
  };
  if (Status st = detect(); !st.ok()) {
    // Single-season fallback: the selection proceeds without detected
    // periods instead of walking the degradation ladder.
    decision.seasons.clear();
    decision.detection_failed = true;
    decision.failure_reason = st.ToString();
    span.set_tag("fallback");
  }
  decision.multiple_seasonality = decision.seasons.size() >= 2;
  decision.routing_ms = span.End();

  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter("capplan_select_periods_detected_total", {},
                     "Seasonal periods detected by the FFT period router")
        .Inc(decision.seasons.size());
    if (decision.detection_failed) {
      options_.metrics
          ->GetCounter("capplan_select_period_fallback_total", {},
                       "Period detections that degraded to the "
                       "single-season path")
          .Inc();
    }
    options_.metrics
        ->GetHistogram("capplan_select_routing_latency_ms", {}, {},
                       "FFT period-routing latency per series")
        .Observe(decision.routing_ms);
  }
  return decision;
}

}  // namespace capplan::core::lattice
