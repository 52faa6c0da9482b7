#include "dtw/lb_keogh.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace warpindex {
namespace {

using internal::DistToInterval;

// Positions inside the envelope read its windows; positions beyond its
// end read the suffix arrays (right-clipped windows).
double OneSidedKeoghImpl(const Sequence& s, const BandEnvelope& env,
                         size_t effective_radius, bool sum, bool squared,
                         double* h, double abandon_above) {
  const size_t n = s.size();
  const size_t m = env.size();
  const double* values = s.data();
  double acc = 0.0;
  // Adds position i's cost; true once the accumulator exceeds the
  // threshold.
  const auto step = [&](size_t i, double lo, double hi) {
    const double v = values[i];
    const double d = DistToInterval(v, lo, hi);
    if (h != nullptr) {
      h[i] = v < lo ? lo : (v > hi ? hi : v);
    }
    const double cost = squared ? d * d : d;
    acc = sum ? acc + cost : std::max(acc, cost);
    return acc > abandon_above;
  };
  const size_t inside = std::min(n, m);
  for (size_t i = 0; i < inside; ++i) {
    if (step(i, env.lower[i], env.upper[i])) {
      return acc;
    }
  }
  for (size_t i = m; i < n; ++i) {
    // Beyond the envelope's end the window is right-clipped to
    // [i - R, m - 1]; i - R <= m - 1 because R >= n - m.
    const size_t from =
        i >= effective_radius ? std::min(i - effective_radius, m - 1) : 0;
    if (step(i, env.suffix_min[from], env.suffix_max[from])) {
      return acc;
    }
  }
  return acc;
}

}  // namespace

BandEnvelope ComputeBandEnvelope(const Sequence& s, size_t radius) {
  BandEnvelope env;
  std::vector<size_t> wedges;
  internal::FillBandEnvelope(s, radius, &wedges, &env);
  return env;
}

namespace internal {

void FillBandEnvelope(const Sequence& s, size_t radius,
                      std::vector<size_t>* wedges, BandEnvelope* env) {
  assert(!s.empty());
  const size_t m = s.size();
  // Clamp the working radius: any radius >= m already yields full-width
  // windows at every position (and avoids j + radius overflow).
  const size_t r = std::min(radius, m);

  env->radius = radius;
  env->lower.resize(m);
  env->upper.resize(m);
  wedges->resize(2 * m);
  ForEachWindowExtremes(s.data(), m, r, m, wedges->data(),
                        [env](size_t j, double lo, double hi) {
                          env->lower[j] = lo;
                          env->upper[j] = hi;
                          return true;
                        });

  env->suffix_min.resize(m);
  env->suffix_max.resize(m);
  double lo = s[m - 1];
  double hi = s[m - 1];
  for (size_t j = m; j-- > 0;) {
    lo = std::min(lo, s[j]);
    hi = std::max(hi, s[j]);
    env->suffix_min[j] = lo;
    env->suffix_max[j] = hi;
  }
}

const BandEnvelope& EnvelopeFor(const Sequence& q, const BandEnvelope& q_env,
                                size_t radius, LbScratch* scratch) {
  if (q_env.radius >= radius) {
    return q_env;
  }
  FillBandEnvelope(q, radius, &scratch->wedges, &scratch->widened);
  return scratch->widened;
}

double AccumulatedThreshold(double t, const DtwOptions& options) {
  // Without sqrt the domains coincide. With it, t <= 0, +inf and NaN map
  // to themselves (sqrt(acc) > t iff acc > t for acc >= 0 there).
  if (!options.take_sqrt || !(t > 0.0) || t == kInfiniteDistance) {
    return t;
  }
  // The largest x with sqrt(x) <= t: sqrt is correctly rounded, hence
  // monotone, so acc > x iff sqrt(acc) > t. t * t lands within an ulp or
  // two of it.
  double x = t * t;
  while (x > 0.0 && std::sqrt(x) > t) {
    x = std::nextafter(x, 0.0);
  }
  while (std::sqrt(std::nextafter(x, kInfiniteDistance)) <= t) {
    x = std::nextafter(x, kInfiniteDistance);
  }
  return x;
}

double OneSidedKeogh(const Sequence& s, const BandEnvelope& env,
                     size_t effective_radius, const DtwOptions& options,
                     std::vector<double>* h_out, double abandon_above) {
  assert(!s.empty() && env.size() > 0);
  assert(env.radius >= effective_radius);
  double* h = nullptr;
  if (h_out != nullptr) {
    h_out->resize(s.size());
    h = h_out->data();
  }
  return OneSidedKeoghImpl(s, env, effective_radius,
                           options.combiner == DtwCombiner::kSum,
                           options.step == StepCost::kSquared, h,
                           abandon_above);
}

}  // namespace internal

double LbKeogh(const Sequence& s, const Sequence& q,
               const BandEnvelope& q_env, const DtwOptions& options,
               double abandon_above, LbScratch* scratch) {
  assert(!s.empty() && !q.empty());
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());
  LbScratch local;
  const BandEnvelope& env = internal::EnvelopeFor(
      q, q_env, radius, scratch != nullptr ? scratch : &local);
  const double acc = internal::OneSidedKeogh(
      s, env, radius, options, nullptr,
      internal::AccumulatedThreshold(abandon_above, options));
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

}  // namespace warpindex
