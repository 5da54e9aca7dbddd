#ifndef CAPPLAN_MATH_OPTIMIZE_H_
#define CAPPLAN_MATH_OPTIMIZE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"

namespace capplan::math {

// Objective mapping a parameter vector to a scalar cost. Implementations may
// return +inf (or NaN, treated as +inf) for infeasible points.
using Objective = std::function<double(const std::vector<double>&)>;

// Objective over a batch of parameter vectors: writes the cost of points[i]
// to values[i] (values.size() == points.size()), under the same +inf/NaN
// conventions. Lets a model evaluate several trial points in one pass over
// its data.
using BatchObjective = std::function<void(
    std::span<const std::vector<double>> points, std::span<double> values)>;

struct NelderMeadOptions {
  int max_iterations = 2000;
  // Convergence: stop when the simplex function-value spread and the simplex
  // diameter both fall below these tolerances.
  double f_tolerance = 1e-9;
  double x_tolerance = 1e-8;
  // Additional relative convergence test, disabled at 0: stop as soon as the
  // function-value spread falls below this fraction of |best value|,
  // regardless of the simplex diameter. Warm-started fits set this — their
  // seed vertex is already near the optimum, so collapsing the simplex to
  // the absolute tolerances buys nothing the caller can observe.
  double f_tolerance_relative = 0.0;
  // Initial simplex edge length per coordinate (absolute).
  double initial_step = 0.25;
  // Number of random restarts from perturbed best points (0 = single run).
  int restarts = 0;
  // Seed for restart perturbations.
  unsigned seed = 42;
  // Extra points injected as vertices of the initial simplex (warm starts:
  // e.g. the converged coefficients of a neighbouring model). Points whose
  // dimension differs from x0, or that coincide with x0, are ignored; at
  // most dim(x0) seeds are used, replacing the default axis-offset vertices
  // from the last coordinate backwards.
  std::vector<std::vector<double>> seed_points;
};

struct OptimizeOutcome {
  std::vector<double> x;    // best parameters found
  double fx = 0.0;          // objective at x
  int iterations = 0;       // iterations consumed (across restarts)
  bool converged = false;   // tolerances met before iteration cap
};

// Derivative-free Nelder-Mead downhill simplex minimization. Suitable for
// the smooth low-dimensional likelihood/SSE surfaces fitted in this library
// (ARIMA CSS, ETS, TBATS). Returns an error only for empty input or an
// objective that is non-finite at the start point.
Result<OptimizeOutcome> NelderMead(const Objective& objective,
                                   const std::vector<double>& x0,
                                   const NelderMeadOptions& options = {});

// The same search over a batch objective. The start simplex and each shrink
// go out as one batch; each iteration sends its reflection, expansion and
// both contraction points as one batch, then makes the scalar overload's
// comparisons, in its order, on those values. It therefore accepts the same
// points and returns the same outcome, bit for bit, as the scalar overload
// given the same function; only the number of evaluations differs (the
// scalar overload evaluates just the trial points its comparisons reach).
Result<OptimizeOutcome> NelderMead(const BatchObjective& objective,
                                   const std::vector<double>& x0,
                                   const NelderMeadOptions& options = {});

// Evaluates a batch with a kernel that runs kLanes parameter sets per pass:
// each group of kLanes sets goes to `lanes` (std::array<Set, kLanes> ->
// std::array<double, kLanes>), a lone set to `one` (Set -> double). A short
// group fills its spare lanes with its own sets again (lane k runs set k mod
// count) and reads each set's value from the last lane that ran it, so every
// lane's result is used.
template <std::size_t kLanes, typename Set, typename One, typename Lanes>
void EvaluateInLanes(std::span<const Set> sets, std::span<double> values,
                     One one, Lanes lanes) {
  for (std::size_t i = 0; i < sets.size(); i += kLanes) {
    const std::size_t count = std::min(kLanes, sets.size() - i);
    if (count == 1) {
      values[i] = one(sets[i]);
      continue;
    }
    std::array<Set, kLanes> group;
    for (std::size_t k = 0; k < kLanes; ++k) group[k] = sets[i + k % count];
    const std::array<double, kLanes> out = lanes(group);
    for (std::size_t k = 0; k < kLanes; ++k) values[i + k % count] = out[k];
  }
}

// Test seam: while an instance is alive, the batch overload evaluates one
// point per call, and only the points the scalar overload would evaluate, so
// a test can fit through both paths and compare the bits.
class ScopedSequentialNelderMead {
 public:
  ScopedSequentialNelderMead();
  ~ScopedSequentialNelderMead();
  ScopedSequentialNelderMead(const ScopedSequentialNelderMead&) = delete;
  ScopedSequentialNelderMead& operator=(const ScopedSequentialNelderMead&) =
      delete;
};

// Minimizes a 1-D function on [lo, hi] by golden-section search.
double GoldenSectionMinimize(const std::function<double(double)>& f,
                             double lo, double hi, double tol = 1e-8);

}  // namespace capplan::math

#endif  // CAPPLAN_MATH_OPTIMIZE_H_
