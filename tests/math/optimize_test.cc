#include "math/optimize.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace capplan::math {
namespace {

// The objectives below are shared with the batch-overload checks at the end
// of the file.

double Quadratic1D(const std::vector<double>& x) {
  return (x[0] - 3.0) * (x[0] - 3.0);
}

double Quadratic3D(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - static_cast<double>(i);
    s += (i + 1) * d * d;
  }
  return s;
}

double Rosenbrock(const std::vector<double>& x) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  return a * a + 100.0 * b * b;
}

// Constrained region via +inf outside |x| < 2.
double InfiniteOutside(const std::vector<double>& x) {
  if (std::fabs(x[0]) >= 2.0) {
    return std::numeric_limits<double>::infinity();
  }
  return (x[0] - 1.5) * (x[0] - 1.5);
}

double NanBelowZero(const std::vector<double>& x) {
  if (x[0] < 0.0) return std::nan("");
  return (x[0] - 0.5) * (x[0] - 0.5);
}

double Zero(const std::vector<double>&) { return 0.0; }

double Infinite(const std::vector<double>&) {
  return std::numeric_limits<double>::infinity();
}

// Double well with the deeper minimum at x = 2.
double DoubleWell(const std::vector<double>& x) {
  const double v = x[0];
  return 0.1 * (v + 2.0) * (v + 2.0) * (v - 2.0) * (v - 2.0) - 0.5 * v;
}

double ShiftedQuadratic(const std::vector<double>& x) {
  const double a = x[0] - 4.0, b = x[1] + 2.0;
  return a * a + 3.0 * b * b;
}

double OffsetQuadratic(const std::vector<double>& x) {
  return 1.0 + (x[0] - 3.0) * (x[0] - 3.0);
}

TEST(NelderMeadTest, MinimizesQuadratic1D) {
  auto out = NelderMead(Quadratic1D, {0.0});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 3.0, 1e-5);
  EXPECT_TRUE(out->converged);
}

TEST(NelderMeadTest, MinimizesQuadratic3D) {
  auto out = NelderMead(Quadratic3D, {5.0, 5.0, 5.0});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 0.0, 1e-4);
  EXPECT_NEAR(out->x[1], 1.0, 1e-4);
  EXPECT_NEAR(out->x[2], 2.0, 1e-4);
}

TEST(NelderMeadTest, RosenbrockConverges) {
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  opt.restarts = 2;
  auto out = NelderMead(Rosenbrock, {-1.2, 1.0}, opt);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 1.0, 1e-3);
  EXPECT_NEAR(out->x[1], 1.0, 1e-3);
}

TEST(NelderMeadTest, HandlesInfiniteRegions) {
  auto out = NelderMead(InfiniteOutside, {0.0});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 1.5, 1e-4);
}

TEST(NelderMeadTest, NanTreatedAsInfinity) {
  auto out = NelderMead(NanBelowZero, {1.0});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 0.5, 1e-4);
}

TEST(NelderMeadTest, RejectsEmptyStart) {
  EXPECT_FALSE(NelderMead(Zero, {}).ok());
}

TEST(NelderMeadTest, RejectsInfiniteStart) {
  EXPECT_FALSE(NelderMead(Infinite, {0.0}).ok());
}

TEST(NelderMeadTest, RestartsImproveMultimodal) {
  NelderMeadOptions opt;
  opt.restarts = 5;
  opt.initial_step = 2.0;
  auto out = NelderMead(DoubleWell, {-2.0}, opt);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->x[0], 0.0);  // escaped the shallow well
}

TEST(NelderMeadTest, SeedPointNearOptimumWins) {
  // A shifted quadratic with the start far away: the injected seed vertex
  // sits on the optimum, so the simplex collapses onto it.
  NelderMeadOptions opt;
  opt.max_iterations = 400;
  opt.seed_points = {{4.0, -2.0}};
  auto out = NelderMead(ShiftedQuadratic, {50.0, 50.0}, opt);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 4.0, 1e-4);
  EXPECT_NEAR(out->x[1], -2.0, 1e-4);
}

TEST(NelderMeadTest, MalformedSeedPointsIgnored) {
  NelderMeadOptions opt;
  opt.seed_points = {{1.0, 2.0},  // wrong dimension
                     {0.0}};      // coincides with x0
  auto out = NelderMead(Quadratic1D, {0.0}, opt);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->x[0], 3.0, 1e-5);
}

TEST(NelderMeadTest, RelativeFToleranceStopsEarly) {
  NelderMeadOptions strict;
  auto baseline = NelderMead(OffsetQuadratic, {0.0}, strict);
  ASSERT_TRUE(baseline.ok());

  // A loose relative tolerance converges in strictly fewer iterations and
  // still lands near the optimum (f_best ~ 1, so the spread threshold is
  // about 1e-2 instead of the absolute 1e-9).
  NelderMeadOptions loose = strict;
  loose.f_tolerance_relative = 1e-2;
  auto out = NelderMead(OffsetQuadratic, {0.0}, loose);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->converged);
  EXPECT_LT(out->iterations, baseline->iterations);
  EXPECT_NEAR(out->x[0], 3.0, 0.5);
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The batch overload on `f`: each point of a batch evaluated in turn.
BatchObjective Batched(const Objective& f) {
  return [f](std::span<const std::vector<double>> points,
             std::span<double> values) {
    for (std::size_t i = 0; i < points.size(); ++i) values[i] = f(points[i]);
  };
}

struct Case {
  std::string name;
  Objective f;
  std::vector<double> x0;
  NelderMeadOptions options;
};

// Every search this file runs, with its options.
std::vector<Case> AllCases() {
  NelderMeadOptions rosenbrock;
  rosenbrock.max_iterations = 5000;
  rosenbrock.restarts = 2;
  NelderMeadOptions multimodal;
  multimodal.restarts = 5;
  multimodal.initial_step = 2.0;
  NelderMeadOptions seeded;
  seeded.max_iterations = 400;
  seeded.seed_points = {{4.0, -2.0}};
  NelderMeadOptions malformed;
  malformed.seed_points = {{1.0, 2.0}, {0.0}};
  NelderMeadOptions relative;
  relative.f_tolerance_relative = 1e-2;
  return {
      {"quadratic_1d", Quadratic1D, {0.0}, {}},
      {"quadratic_3d", Quadratic3D, {5.0, 5.0, 5.0}, {}},
      {"rosenbrock_restarts", Rosenbrock, {-1.2, 1.0}, rosenbrock},
      {"infinite_region", InfiniteOutside, {0.0}, {}},
      {"nan_region", NanBelowZero, {1.0}, {}},
      {"empty_start", Zero, {}, {}},
      {"infinite_start", Infinite, {0.0}, {}},
      {"double_well_restarts", DoubleWell, {-2.0}, multimodal},
      {"seed_point", ShiftedQuadratic, {50.0, 50.0}, seeded},
      {"malformed_seed_points", Quadratic1D, {0.0}, malformed},
      {"relative_tolerance_strict", OffsetQuadratic, {0.0}, {}},
      {"relative_tolerance_loose", OffsetQuadratic, {0.0}, relative},
  };
}

TEST(NelderMeadBatchTest, BatchOverloadMatchesScalarBitForBit) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.name);
    const auto scalar = NelderMead(c.f, c.x0, c.options);
    const auto batched = NelderMead(Batched(c.f), c.x0, c.options);
    ASSERT_EQ(scalar.ok(), batched.ok());
    if (!scalar.ok()) {
      EXPECT_EQ(scalar.status().ToString(), batched.status().ToString());
      continue;
    }
    ASSERT_EQ(scalar->x.size(), batched->x.size());
    for (std::size_t i = 0; i < scalar->x.size(); ++i) {
      EXPECT_EQ(Bits(scalar->x[i]), Bits(batched->x[i])) << "x[" << i << "]";
    }
    EXPECT_EQ(Bits(scalar->fx), Bits(batched->fx));
    EXPECT_EQ(scalar->iterations, batched->iterations);
    EXPECT_EQ(scalar->converged, batched->converged);
  }
}

// The scalar overload evaluates only the points its comparisons reach (the
// counts are those of the one-point-at-a-time search before batching); the
// batch overload sends the start check, the start simplex, four trial points
// per iteration and the n points of each shrink.
TEST(NelderMeadBatchTest, ScalarOverloadEvaluatesOnlyNeededPoints) {
  int calls = 0;
  auto counted = [&](const std::vector<double>& x) {
    ++calls;
    return Rosenbrock(x);
  };
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  const auto scalar = NelderMead(counted, {-1.2, 1.0}, opt);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->iterations, 117);
  EXPECT_EQ(calls, 222);

  std::vector<std::size_t> sizes;
  auto batch = [&](std::span<const std::vector<double>> points,
                   std::span<double> values) {
    sizes.push_back(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      values[i] = Rosenbrock(points[i]);
    }
  };
  const auto batched = NelderMead(batch, {-1.2, 1.0}, opt);
  ASSERT_TRUE(batched.ok());
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);  // start check
  EXPECT_EQ(sizes[1], 3u);  // start simplex
  std::size_t iterations = 0, shrinks = 0;
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    if (sizes[i] == 4) {
      ++iterations;
    } else {
      EXPECT_EQ(sizes[i], 2u);  // a shrink moves n = 2 vertices
      ++shrinks;
    }
  }
  // The last iteration stops on convergence before evaluating anything.
  EXPECT_EQ(iterations, static_cast<std::size_t>(batched->iterations) - 1);
  EXPECT_LE(shrinks, iterations);

  // The sequential seam turns the batch overload back into the scalar
  // search: one point per call, the same points.
  sizes.clear();
  {
    ScopedSequentialNelderMead sequential;
    const auto seq = NelderMead(batch, {-1.2, 1.0}, opt);
    ASSERT_TRUE(seq.ok());
  }
  EXPECT_EQ(sizes.size(), 222u);
  for (std::size_t size : sizes) EXPECT_EQ(size, 1u);
}

// The exact search path, pinned: iterations and result bits of the
// one-point-at-a-time search before batching. The objectives use only
// IEEE-exact arithmetic, so the bits hold on any conforming build without
// floating-point contraction.
TEST(NelderMeadBatchTest, SearchPathIsPinned) {
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch" : "scalar");
    const auto rosen = batch ? NelderMead(Batched(Rosenbrock), {-1.2, 1.0}, opt)
                             : NelderMead(Rosenbrock, {-1.2, 1.0}, opt);
    ASSERT_TRUE(rosen.ok());
    EXPECT_EQ(rosen->iterations, 117);
    EXPECT_TRUE(rosen->converged);
    EXPECT_EQ(Bits(rosen->x[0]), 0x3fefffffff5c1924ULL);
    EXPECT_EQ(Bits(rosen->x[1]), 0x3feffffffe8dfaa2ULL);
    EXPECT_EQ(Bits(rosen->fx), 0x3c690933e7174900ULL);

    const auto quad = batch ? NelderMead(Batched(Quadratic3D), {5.0, 5.0, 5.0})
                            : NelderMead(Quadratic3D, {5.0, 5.0, 5.0});
    ASSERT_TRUE(quad.ok());
    EXPECT_EQ(quad->iterations, 129);
    EXPECT_TRUE(quad->converged);
    EXPECT_EQ(Bits(quad->x[0]), 0xbe17127aca01c5e6ULL);
    EXPECT_EQ(Bits(quad->x[1]), 0x3ff000000106758aULL);
    EXPECT_EQ(Bits(quad->x[2]), 0x4000000000188574ULL);
    EXPECT_EQ(Bits(quad->fx), 0x3c82bcf2b8836bbcULL);
  }
}

TEST(GoldenSectionTest, FindsMinimum) {
  auto f = [](double x) { return (x - 1.7) * (x - 1.7) + 3.0; };
  EXPECT_NEAR(GoldenSectionMinimize(f, -10.0, 10.0), 1.7, 1e-6);
}

TEST(GoldenSectionTest, RespectsBounds) {
  // Minimum outside the bracket; should return the boundary region.
  auto f = [](double x) { return x; };
  EXPECT_NEAR(GoldenSectionMinimize(f, 2.0, 5.0), 2.0, 1e-5);
}

}  // namespace
}  // namespace capplan::math
