// HES fits through the batched Nelder-Mead path (four trial points per pass
// of the 4-lane SSE kernels) equal the same fits made one point at a time
// through the one-lane pass, bit for bit: parameters, SSE, forecasts, and
// the pipeline's HES selection built on them.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agent/agent.h"
#include "core/pipeline.h"
#include "math/optimize.h"
#include "models/dshw.h"
#include "models/ets.h"
#include "repo/repository.h"
#include "workload/cluster.h"

namespace capplan {
namespace {

using workload::Metric;
using workload::WorkloadScenario;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << what << "[" << i << "]";
  }
}

void ExpectSameForecast(const models::Forecast& a, const models::Forecast& b) {
  ExpectSameBits(a.mean, b.mean, "mean");
  ExpectSameBits(a.lower, b.lower, "lower");
  ExpectSameBits(a.upper, b.upper, "upper");
}

struct Fixture {
  std::string name;
  tsa::TimeSeries hourly;
};

// Hourly series of simulated OLAP and OLTP instances, with the pipeline's
// 42-day window and a longer 50-day one.
std::vector<Fixture> Fixtures() {
  struct Spec {
    const char* name;
    WorkloadScenario scenario;
    int instance;
    Metric metric;
    int days;
  };
  const Spec specs[] = {
      {"olap_cpu_42d", WorkloadScenario::Olap(), 0, Metric::kCpu, 42},
      {"olap_iops_50d", WorkloadScenario::Olap(), 1, Metric::kLogicalIops,
       50},
      {"oltp_memory_42d", WorkloadScenario::Oltp(), 0, Metric::kMemory, 42},
      {"oltp_cpu_50d", WorkloadScenario::Oltp(), 1, Metric::kCpu, 50},
  };
  std::vector<Fixture> out;
  for (const Spec& spec : specs) {
    workload::ClusterSimulator sim(spec.scenario, /*seed=*/17);
    agent::MonitoringAgent agent(&sim);
    auto raw = agent.CollectDays(spec.instance, spec.metric, spec.days);
    EXPECT_TRUE(raw.ok()) << spec.name;
    if (!raw.ok()) continue;
    repo::MetricsRepository repository;
    const std::string key = repo::MetricsRepository::KeyFor(
        sim.InstanceName(spec.instance), spec.metric);
    EXPECT_TRUE(repository.Ingest(key, *raw).ok());
    auto hourly = repository.Hourly(key);
    EXPECT_TRUE(hourly.ok()) << spec.name;
    if (hourly.ok()) out.push_back({spec.name, *hourly});
  }
  return out;
}

TEST(HesBatchTest, EtsAndDshwFitsMatchSequentialFits) {
  const models::EtsSpec specs[] = {
      models::SimpleExponentialSmoothing(), models::HoltLinearTrend(false),
      models::HoltLinearTrend(true),        models::HoltWinters(24),
      models::HoltWinters(24, false, true), models::HoltWinters(24, true)};
  for (const Fixture& fixture : Fixtures()) {
    const std::vector<double>& y = fixture.hourly.values();
    for (const auto& spec : specs) {
      SCOPED_TRACE(fixture.name + " " + spec.ToString());
      const auto batched = models::EtsModel::Fit(y, spec);
      Result<models::EtsModel> sequential = Status::Internal("unset");
      {
        math::ScopedSequentialNelderMead one_point_at_a_time;
        sequential = models::EtsModel::Fit(y, spec);
      }
      ASSERT_EQ(batched.ok(), sequential.ok());
      if (!batched.ok()) continue;
      EXPECT_EQ(Bits(batched->alpha()), Bits(sequential->alpha()));
      EXPECT_EQ(Bits(batched->beta()), Bits(sequential->beta()));
      EXPECT_EQ(Bits(batched->gamma()), Bits(sequential->gamma()));
      EXPECT_EQ(Bits(batched->phi()), Bits(sequential->phi()));
      EXPECT_EQ(Bits(batched->summary().sse),
                Bits(sequential->summary().sse));
      EXPECT_EQ(Bits(batched->level_state()),
                Bits(sequential->level_state()));
      EXPECT_EQ(Bits(batched->trend_state()),
                Bits(sequential->trend_state()));
      ExpectSameBits(batched->seasonal_states(),
                     sequential->seasonal_states(), "seasonal");
      const auto fc_batched = batched->Predict(24);
      const auto fc_sequential = sequential->Predict(24);
      ASSERT_TRUE(fc_batched.ok() && fc_sequential.ok());
      ExpectSameForecast(*fc_batched, *fc_sequential);
    }

    SCOPED_TRACE(fixture.name + " DSHW(24,168)");
    const auto batched = models::DshwModel::Fit(y, 24, 168);
    Result<models::DshwModel> sequential = Status::Internal("unset");
    {
      math::ScopedSequentialNelderMead one_point_at_a_time;
      sequential = models::DshwModel::Fit(y, 24, 168);
    }
    ASSERT_TRUE(batched.ok() && sequential.ok());
    EXPECT_EQ(Bits(batched->alpha()), Bits(sequential->alpha()));
    EXPECT_EQ(Bits(batched->beta()), Bits(sequential->beta()));
    EXPECT_EQ(Bits(batched->gamma1()), Bits(sequential->gamma1()));
    EXPECT_EQ(Bits(batched->gamma2()), Bits(sequential->gamma2()));
    EXPECT_EQ(Bits(batched->phi()), Bits(sequential->phi()));
    EXPECT_EQ(Bits(batched->summary().sse), Bits(sequential->summary().sse));
    const auto fc_batched = batched->Predict(24);
    const auto fc_sequential = sequential->Predict(24);
    ASSERT_TRUE(fc_batched.ok() && fc_sequential.ok());
    ExpectSameForecast(*fc_batched, *fc_sequential);
  }
}

TEST(HesBatchTest, PipelineHesSelectionMatchesSequentialFits) {
  core::PipelineOptions options;
  options.technique = core::Technique::kHes;
  const core::Pipeline pipeline(options);
  for (const Fixture& fixture : Fixtures()) {
    SCOPED_TRACE(fixture.name);
    const auto batched = pipeline.Run(fixture.hourly);
    Result<core::PipelineReport> sequential = Status::Internal("unset");
    {
      math::ScopedSequentialNelderMead one_point_at_a_time;
      sequential = pipeline.Run(fixture.hourly);
    }
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    EXPECT_EQ(batched->chosen_spec, sequential->chosen_spec);
    EXPECT_EQ(Bits(batched->test_accuracy.rmse),
              Bits(sequential->test_accuracy.rmse));
    EXPECT_EQ(Bits(batched->test_accuracy.mape),
              Bits(sequential->test_accuracy.mape));
    ExpectSameForecast(batched->forecast, sequential->forecast);
  }
}

}  // namespace
}  // namespace capplan
