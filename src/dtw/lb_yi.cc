#include "dtw/lb_yi.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dtw/lb_keogh.h"

namespace warpindex {
namespace {

using internal::DistToInterval;

// One-sided bound: cost forced onto elements of `s` by `other`'s envelope.
double OneSided(const Sequence& s, const Envelope& other,
                DtwCombiner combiner) {
  double acc = 0.0;
  for (double v : s.elements()) {
    const double d = DistToInterval(v, other.smallest, other.greatest);
    if (combiner == DtwCombiner::kSum) {
      acc += d;
    } else {
      acc = std::max(acc, d);
    }
  }
  return acc;
}

}  // namespace

Envelope ComputeEnvelope(const Sequence& s) {
  assert(!s.empty());
  Envelope env;
  env.smallest = s[0];
  env.greatest = s[0];
  for (double v : s.elements()) {
    env.smallest = std::min(env.smallest, v);
    env.greatest = std::max(env.greatest, v);
  }
  return env;
}

double LbYiWithEnvelopes(const Sequence& s, const Envelope& s_env,
                         const Sequence& q, const Envelope& q_env,
                         DtwCombiner combiner) {
  assert(!s.empty() && !q.empty());
  return std::max(OneSided(s, q_env, combiner),
                  OneSided(q, s_env, combiner));
}

double LbYi(const Sequence& s, const Sequence& q, DtwCombiner combiner) {
  return LbYiWithEnvelopes(s, ComputeEnvelope(s), q, ComputeEnvelope(q),
                           combiner);
}

namespace {

// One-sided bound in the accumulated (pre-sqrt) domain with the
// configured step cost. Stops once the accumulator exceeds `limit`
// (accumulated domain) and returns it.
double OneSidedAccumulated(const Sequence& s, const Envelope& other,
                           const DtwOptions& options, double limit) {
  const bool sum = options.combiner == DtwCombiner::kSum;
  const bool squared = options.step == StepCost::kSquared;
  double acc = 0.0;
  for (double v : s.elements()) {
    const double d = DistToInterval(v, other.smallest, other.greatest);
    const double cost = squared ? d * d : d;
    acc = sum ? acc + cost : std::max(acc, cost);
    if (acc > limit) {
      break;
    }
  }
  return acc;
}

// Both one-sided bounds hold in the accumulated domain, so their max
// does too; sqrt is monotone, so it commutes with the max. A null
// `s_env` is computed, and only when the S-against-Q pass stays within
// the threshold.
double TwoSided(const Sequence& s, const Envelope* s_env, const Sequence& q,
                const Envelope& q_env, const DtwOptions& options,
                double abandon_above) {
  assert(!s.empty() && !q.empty());
  const double limit = internal::AccumulatedThreshold(abandon_above, options);
  double acc = OneSidedAccumulated(s, q_env, options, limit);
  if (!(acc > limit)) {
    const Envelope env = s_env != nullptr ? *s_env : ComputeEnvelope(s);
    acc = std::max(acc, OneSidedAccumulated(q, env, options, limit));
  }
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

}  // namespace

double LbYiWithEnvelopes(const Sequence& s, const Envelope& s_env,
                         const Sequence& q, const Envelope& q_env,
                         const DtwOptions& options, double abandon_above) {
  return TwoSided(s, &s_env, q, q_env, options, abandon_above);
}

double LbYi(const Sequence& s, const Sequence& q, const Envelope& q_env,
            const DtwOptions& options, double abandon_above) {
  return TwoSided(s, nullptr, q, q_env, options, abandon_above);
}

double LbYi(const Sequence& s, const Sequence& q, const DtwOptions& options) {
  return LbYi(s, q, ComputeEnvelope(q), options);
}

}  // namespace warpindex
