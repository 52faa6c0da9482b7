#include "dtw/lb_improved.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dtw/dtw.h"

namespace warpindex {
namespace {

// Pass 2, keogh(Q, Env(h)). Position j's window of h is [j - R, j + R]
// clipped to [0, n); beyond h's end that is [j - R, n - 1]
// (j - R <= n - 1 because R >= m - n), so one ForEachWindowExtremes
// sweep yields exactly the windows of ComputeBandEnvelope(h, R) and its
// suffix arrays. Stops once part1 + acc (sum) or acc (max; part1 <= limit
// already) exceeds `limit`, and returns acc.
double ProjectionPass(const Sequence& q, const std::vector<double>& h,
                      size_t radius, const DtwOptions& options, double part1,
                      double limit, std::vector<size_t>* wedges) {
  const bool sum = options.combiner == DtwCombiner::kSum;
  const bool squared = options.step == StepCost::kSquared;
  const double* values = q.data();
  wedges->resize(2 * h.size());
  double acc = 0.0;
  internal::ForEachWindowExtremes(
      h.data(), h.size(), radius, q.size(), wedges->data(),
      [&](size_t j, double lo, double hi) {
        const double d = internal::DistToInterval(values[j], lo, hi);
        const double cost = squared ? d * d : d;
        acc = sum ? acc + cost : std::max(acc, cost);
        return !((sum ? part1 + acc : acc) > limit);
      });
  return acc;
}

}  // namespace

double LbImproved(const Sequence& s, const Sequence& q,
                  const BandEnvelope& q_env, const DtwOptions& options,
                  double abandon_above, LbScratch* scratch) {
  assert(!s.empty() && !q.empty());
  LbScratch local;
  LbScratch& buffers = scratch != nullptr ? *scratch : local;
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());
  const double limit = internal::AccumulatedThreshold(abandon_above, options);

  const double part1 = internal::OneSidedKeogh(
      s, internal::EnvelopeFor(q, q_env, radius, &buffers), radius, options,
      &buffers.h, limit);
  if (part1 > limit) {
    // Pass 1 abandoned: the bound so far is part1 (+ 0, or max with 0).
    return options.take_sqrt ? std::sqrt(part1) : part1;
  }
  const double part2 = ProjectionPass(q, buffers.h, radius, options, part1,
                                      limit, &buffers.wedges);
  const double acc = options.combiner == DtwCombiner::kSum
                         ? part1 + part2
                         : std::max(part1, part2);
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

}  // namespace warpindex
