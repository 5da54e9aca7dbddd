#include "math/optimize.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <random>

namespace capplan::math {

namespace {

std::atomic<int> sequential_scopes{0};

// How the simplex evaluates its points. A batched evaluator takes the start
// simplex, each shrink and each iteration's four trial points in one call;
// an unbatched one takes one point per call, and only the trial points the
// iteration's comparisons reach. NaN comes back as +inf either way.
struct Evaluator {
  const BatchObjective& f;
  bool batched;

  void operator()(std::span<const std::vector<double>> points,
                  std::span<double> values) const {
    if (batched) {
      f(points, values);
    } else {
      for (std::size_t i = 0; i < points.size(); ++i) {
        f(points.subspan(i, 1), values.subspan(i, 1));
      }
    }
    for (double& v : values) {
      if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
    }
  }

  double operator()(const std::vector<double>& x) const {
    double v = 0.0;
    (*this)(std::span(&x, 1), std::span(&v, 1));
    return v;
  }
};

struct SimplexResult {
  std::vector<double> x;
  double fx;
  int iterations;
  bool converged;
};

SimplexResult RunSimplex(const Evaluator& eval, const std::vector<double>& x0,
                         const NelderMeadOptions& opt, int budget) {
  const std::size_t n = x0.size();
  // Standard coefficients.
  const double alpha = 1.0;   // reflection
  const double gamma = 2.0;   // expansion
  const double rho = 0.5;     // contraction
  const double sigma = 0.5;   // shrink

  std::vector<std::vector<double>> pts(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) {
    double step = opt.initial_step;
    if (x0[i] != 0.0) step = std::max(step, 0.1 * std::fabs(x0[i]));
    pts[i + 1][i] += step;
  }
  // Warm-start vertices replace axis-offset vertices from the back.
  std::size_t seeded = 0;
  for (const auto& seed : opt.seed_points) {
    if (seeded >= n) break;
    if (seed.size() != n || seed == x0) continue;
    pts[n - seeded] = seed;
    ++seeded;
  }
  std::vector<double> fv(n + 1);
  eval(pts, fv);

  // An iteration's trial points, in batch order, as multiples of the step
  // from the worst vertex through the centroid of the others.
  enum Trial { kReflect, kExpand, kOutside, kInside };
  const double coef[4] = {alpha, alpha * gamma, alpha * rho, -rho};
  std::vector<std::vector<double>> trial(4, std::vector<double>(n));
  std::array<double, 4> tv{};
  std::vector<std::vector<double>> shrunk(n, std::vector<double>(n));
  std::vector<double> shrunk_fv(n);
  std::vector<double> centroid(n);

  int iter = 0;
  bool converged = false;
  std::vector<std::size_t> order(n + 1);
  while (iter < budget) {
    ++iter;
    // Order vertices by objective.
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fv[a] < fv[b]; });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    // Convergence checks.
    double diam = 0.0;
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t d = 0; d < n; ++d) {
        diam = std::max(diam, std::fabs(pts[i][d] - pts[best][d]));
      }
    }
    const double f_spread = std::fabs(fv[worst] - fv[best]);
    if (f_spread < opt.f_tolerance && diam < opt.x_tolerance) {
      converged = true;
      break;
    }
    if (opt.f_tolerance_relative > 0.0 &&
        f_spread < opt.f_tolerance_relative * std::fabs(fv[best])) {
      converged = true;
      break;
    }

    // Centroid excluding the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += pts[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t d = 0; d < n; ++d) {
        trial[k][d] = centroid[d] + coef[k] * (centroid[d] - pts[worst][d]);
      }
    }
    if (eval.batched) eval(trial, tv);
    auto value = [&](Trial k) {
      if (!eval.batched) tv[k] = eval(trial[k]);
      return tv[k];
    };
    auto accept = [&](Trial k) {
      pts[worst].swap(trial[k]);
      fv[worst] = tv[k];
    };

    const double fr = value(kReflect);
    if (fr < fv[best]) {
      accept(value(kExpand) < fr ? kExpand : kReflect);
      continue;
    }
    if (fr < fv[second_worst]) {
      accept(kReflect);
      continue;
    }
    // Contraction (outside if the reflected point improved on the worst).
    if (fr < fv[worst]) {
      if (value(kOutside) <= fr) {
        accept(kOutside);
        continue;
      }
    } else if (value(kInside) < fv[worst]) {
      accept(kInside);
      continue;
    }
    // Shrink toward the best vertex: the n moved vertices are one batch.
    for (std::size_t i = 0, j = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d) {
        shrunk[j][d] = pts[best][d] + sigma * (pts[i][d] - pts[best][d]);
      }
      ++j;
    }
    eval(shrunk, shrunk_fv);
    for (std::size_t i = 0, j = 0; i <= n; ++i) {
      if (i == best) continue;
      pts[i].swap(shrunk[j]);
      fv[i] = shrunk_fv[j];
      ++j;
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (fv[i] < fv[best]) best = i;
  }
  return {pts[best], fv[best], iter, converged};
}

Result<OptimizeOutcome> Minimize(const Evaluator& eval,
                                 const std::vector<double>& x0,
                                 const NelderMeadOptions& options) {
  if (x0.empty()) {
    return Status::InvalidArgument("NelderMead: empty start point");
  }
  if (!std::isfinite(eval(x0))) {
    return Status::InvalidArgument(
        "NelderMead: objective not finite at start point");
  }
  SimplexResult best = RunSimplex(eval, x0, options, options.max_iterations);
  std::mt19937 rng(options.seed);
  std::normal_distribution<double> jitter(0.0, options.initial_step);
  for (int r = 0; r < options.restarts; ++r) {
    std::vector<double> start = best.x;
    for (double& v : start) v += jitter(rng);
    if (!std::isfinite(eval(start))) continue;
    SimplexResult attempt =
        RunSimplex(eval, start, options, options.max_iterations);
    attempt.iterations += best.iterations;
    if (attempt.fx < best.fx) {
      best = attempt;
    } else {
      best.iterations = attempt.iterations;
    }
  }
  OptimizeOutcome out;
  out.x = best.x;
  out.fx = best.fx;
  out.iterations = best.iterations;
  out.converged = best.converged;
  return out;
}

}  // namespace

Result<OptimizeOutcome> NelderMead(const Objective& objective,
                                   const std::vector<double>& x0,
                                   const NelderMeadOptions& options) {
  const BatchObjective one_point = [&](std::span<const std::vector<double>> x,
                                       std::span<double> fx) {
    fx[0] = objective(x[0]);
  };
  return Minimize({one_point, false}, x0, options);
}

Result<OptimizeOutcome> NelderMead(const BatchObjective& objective,
                                   const std::vector<double>& x0,
                                   const NelderMeadOptions& options) {
  const bool batched = sequential_scopes.load(std::memory_order_relaxed) == 0;
  return Minimize({objective, batched}, x0, options);
}

ScopedSequentialNelderMead::ScopedSequentialNelderMead() {
  sequential_scopes.fetch_add(1, std::memory_order_relaxed);
}

ScopedSequentialNelderMead::~ScopedSequentialNelderMead() {
  sequential_scopes.fetch_sub(1, std::memory_order_relaxed);
}

double GoldenSectionMinimize(const std::function<double(double)>& f,
                             double lo, double hi, double tol) {
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double c = b - phi * (b - a);
  double d = a + phi * (b - a);
  double fc = f(c), fd = f(d);
  while (b - a > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - phi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + phi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace capplan::math
