#ifndef CAPPLAN_CAPPLAN_H_
#define CAPPLAN_CAPPLAN_H_

// Umbrella header: the full public API of the capplan library. Include
// individual module headers instead when compile time matters.

#include "common/json_writer.h"  // IWYU pragma: export
#include "common/logging.h"    // IWYU pragma: export
#include "common/result.h"     // IWYU pragma: export
#include "common/status.h"     // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export

#include "obs/export.h"   // IWYU pragma: export
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export

#include "math/distributions.h"  // IWYU pragma: export
#include "math/fft.h"            // IWYU pragma: export
#include "math/matrix.h"         // IWYU pragma: export
#include "math/optimize.h"       // IWYU pragma: export
#include "math/polynomial.h"     // IWYU pragma: export
#include "math/vec.h"            // IWYU pragma: export

#include "tsa/acf.h"            // IWYU pragma: export
#include "tsa/boxcox.h"         // IWYU pragma: export
#include "tsa/calendar.h"       // IWYU pragma: export
#include "tsa/decompose.h"      // IWYU pragma: export
#include "tsa/difference.h"     // IWYU pragma: export
#include "tsa/fourier.h"        // IWYU pragma: export
#include "tsa/interpolate.h"    // IWYU pragma: export
#include "tsa/metrics.h"        // IWYU pragma: export
#include "tsa/rolling.h"        // IWYU pragma: export
#include "tsa/seasonality.h"    // IWYU pragma: export
#include "tsa/stationarity.h"   // IWYU pragma: export
#include "tsa/stl.h"            // IWYU pragma: export
#include "tsa/timeseries.h"     // IWYU pragma: export

#include "models/arima.h"       // IWYU pragma: export
#include "models/arima_spec.h"  // IWYU pragma: export
#include "models/auto_arima.h"  // IWYU pragma: export
#include "models/baselines.h"   // IWYU pragma: export
#include "models/dshw.h"        // IWYU pragma: export
#include "models/ets.h"         // IWYU pragma: export
#include "models/kalman.h"      // IWYU pragma: export
#include "models/model.h"       // IWYU pragma: export
#include "models/regression.h"  // IWYU pragma: export
#include "models/tbats.h"       // IWYU pragma: export

#include "workload/cluster.h"       // IWYU pragma: export
#include "workload/events.h"        // IWYU pragma: export
#include "workload/scenario.h"      // IWYU pragma: export
#include "workload/transactions.h"  // IWYU pragma: export

#include "agent/agent.h"  // IWYU pragma: export

#include "store/codec.h"         // IWYU pragma: export
#include "store/segment.h"       // IWYU pragma: export
#include "store/series_store.h"  // IWYU pragma: export
#include "store/tiered_store.h"  // IWYU pragma: export

#include "repo/csv.h"          // IWYU pragma: export
#include "repo/model_store.h"  // IWYU pragma: export
#include "repo/repository.h"   // IWYU pragma: export

#include "core/candidate_gen.h"  // IWYU pragma: export
#include "core/capacity.h"       // IWYU pragma: export
#include "core/drift.h"          // IWYU pragma: export
#include "core/ensemble.h"       // IWYU pragma: export
#include "core/monitor.h"        // IWYU pragma: export
#include "core/pipeline.h"       // IWYU pragma: export
#include "core/report_json.h"    // IWYU pragma: export
#include "core/selector.h"       // IWYU pragma: export
#include "core/shock_detect.h"   // IWYU pragma: export
#include "core/split.h"          // IWYU pragma: export

#include "service/estate_service.h"  // IWYU pragma: export
#include "service/events.h"          // IWYU pragma: export
#include "service/journal.h"         // IWYU pragma: export
#include "service/scheduler.h"       // IWYU pragma: export
#include "service/telemetry.h"       // IWYU pragma: export

#endif  // CAPPLAN_CAPPLAN_H_
