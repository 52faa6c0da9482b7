// LB_Keogh: the banded-envelope lower bound of Keogh & Ratanamahatana,
// adapted to this library's three base-distance models and to
// variable-length sequences.
//
// For a query Q and a Sakoe-Chiba radius r, the envelope of Q is the pair
// of per-position sequences
//
//   U_j = max Q[k],  L_j = min Q[k]   for k in [j - r, j + r] cap [0, |Q|)
//
// computed in O(|Q|) with a sliding-window min/max filter
// (ForEachWindowExtremes below). Under the band constraint every
// candidate element S[i] must align with some Q[j] with |i - j| <= r,
// hence with a value inside [L_i, U_i]; the part of S sticking out of
// the envelope is unavoidable warping cost:
//
//   * sum-combined (L1/L2):  LB = sum_i cost(dist(S[i], [L_i, U_i]))
//   * max-combined (L_inf):  LB = max_i dist(S[i], [L_i, U_i])
//
// with cost() the configured step cost (|.| or (.)^2, sqrt on exit for
// the L2 convention), each provably <= the banded D_tw of the same
// DtwOptions — and therefore also <= the unconstrained D_tw whenever the
// envelope was built full-width (see kFullWidthRadius). Tightness: with a
// narrow band LB_Keogh is far tighter than LB_Yi (whose envelope is the
// single global [min, max] interval); with a full-width envelope it
// degenerates to LB_Yi's one-sided bound.
//
// Variable lengths: the DP widens the effective band to at least
// ||S| - |Q|| so a path exists (see EffectiveSakoeChibaRadius). The
// envelope carries suffix min/max arrays so candidate positions beyond
// |Q| still get the correct (right-clipped) window, and a bound request
// whose effective radius exceeds the envelope's build radius falls back
// to computing a correctly widened envelope — the returned value is a
// valid lower bound for every (envelope, pair) combination.
//
// Early abandoning: callers that only need to know whether the bound
// exceeds a threshold (the filter cascade asks "> epsilon?") pass it as
// `abandon_above`. The accumulator is a running sum or max of
// non-negative terms in a fixed order, and floating-point addition and
// max are monotone, so every partial accumulator is <= the final one.
// The kernels stop as soon as the value they would return from the
// partial accumulator already exceeds the threshold and return that
// value: then result > t iff the full bound > t, and result <= the full
// bound. With the default +inf nothing abandons and the result is the
// full bound, bit for bit.

#ifndef WARPINDEX_DTW_LB_KEOGH_H_
#define WARPINDEX_DTW_LB_KEOGH_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "dtw/base_distance.h"
#include "dtw/dtw.h"
#include "sequence/sequence.h"

namespace warpindex {

// Radius value requesting a full-width envelope (window = the whole
// sequence at every position). The right choice when the DTW itself is
// unconstrained (DtwOptions::band < 0).
inline constexpr size_t kFullWidthRadius =
    std::numeric_limits<size_t>::max();

// The envelope radius matching `options`: the configured Sakoe-Chiba
// radius, or full-width when the DTW is unconstrained.
inline size_t EnvelopeRadiusFor(const DtwOptions& options) {
  return options.band < 0 ? kFullWidthRadius
                          : static_cast<size_t>(options.band);
}

// Per-position banded envelope of a sequence (usually the query, built
// once and reused across every candidate of that query).
struct BandEnvelope {
  // lower[j] / upper[j]: min / max over [j - radius, j + radius] clipped
  // to the sequence; size() entries each.
  std::vector<double> lower;
  std::vector<double> upper;
  // suffix_min[j] / suffix_max[j]: min / max over positions [j, size());
  // serves candidate positions beyond the sequence end, whose window is
  // right-clipped. Radius-independent.
  std::vector<double> suffix_min;
  std::vector<double> suffix_max;
  // The radius the lower/upper windows were built with (possibly
  // kFullWidthRadius).
  size_t radius = 0;

  size_t size() const { return lower.size(); }
};

// Reusable buffers for the envelope bounds. Keeping one across a query's
// candidates (the filter cascade keeps one per RunLbStages call) makes
// LbKeogh and LbImproved allocation-free once warm; without one each
// call allocates its own. Results are bit-identical either way. Like
// DtwScratch, a scratch is mutable state: use one per thread.
struct LbScratch {
  // The query's envelope rebuilt at a pair's widened radius.
  BandEnvelope widened;
  // LB_Improved's projection h of the candidate onto the query envelope.
  std::vector<double> h;
  // Index storage of the sliding-window min/max (ForEachWindowExtremes).
  std::vector<size_t> wedges;
};

// Builds the envelope of `s` with Sakoe-Chiba radius `radius` in O(|s|)
// (ForEachWindowExtremes). Requires a non-empty sequence.
BandEnvelope ComputeBandEnvelope(const Sequence& s, size_t radius);

// One-sided LB_Keogh: the cost forced onto the elements of `s` by the
// envelope of `q`. `q_env` must be ComputeBandEnvelope(q, r) for some r;
// when r is narrower than the pair's effective radius the function
// rebuilds a correctly widened envelope (in `scratch` when given), so the
// result lower-bounds Dtw(options).Distance(s, q) for every input.
// Returned in the same domain as Dtw::Distance (sqrt applied for the L2
// convention). Stops early once the result is known to exceed
// `abandon_above` (see the header comment).
double LbKeogh(const Sequence& s, const Sequence& q,
               const BandEnvelope& q_env, const DtwOptions& options,
               double abandon_above = kInfiniteDistance,
               LbScratch* scratch = nullptr);

namespace internal {

// Distance from v to the interval [lo, hi]; zero inside.
inline double DistToInterval(double v, double lo, double hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0.0;
}

// Sliding-window minimum and maximum (Lemire's streaming max-min
// filter): calls visit(j, min, max) with the extremes of values over the
// window [j - r, j + r] clipped to [0, n), for j = 0, 1, ..., count - 1
// in turn, and stops early once visit returns false. Requires n > 0 and
// count <= n + r, so every window holds a value. Both window edges only
// move right as j grows. Two wedges hold indices of strictly
// decreasing (max) and strictly increasing (min) values, so each window
// extreme sits at a wedge front. Every index enters and leaves each
// wedge at most once, so a sweep is O(n + count) and the wedges fit in
// plain caller storage of 2n indices: no deque, no allocation. Extremes
// are selected, never computed, so they equal a brute-force window
// min/max exactly.
template <typename Visit>
void ForEachWindowExtremes(const double* values, size_t n, size_t r,
                           size_t count, size_t* storage, Visit&& visit) {
  size_t* max_idx = storage;
  size_t* min_idx = storage + n;
  size_t max_begin = 0;
  size_t max_end = 0;
  size_t min_begin = 0;
  size_t min_end = 0;
  size_t next = 0;  // next index to admit
  for (size_t j = 0; j < count; ++j) {
    const size_t hi = std::min(n - 1, j + r);
    for (; next <= hi; ++next) {
      const double v = values[next];
      while (max_end > max_begin && values[max_idx[max_end - 1]] <= v) {
        --max_end;
      }
      max_idx[max_end++] = next;
      while (min_end > min_begin && values[min_idx[min_end - 1]] >= v) {
        --min_end;
      }
      min_idx[min_end++] = next;
    }
    const size_t lo = j >= r ? j - r : 0;
    while (max_idx[max_begin] < lo) {
      ++max_begin;
    }
    while (min_idx[min_begin] < lo) {
      ++min_begin;
    }
    if (!visit(j, values[min_idx[min_begin]], values[max_idx[max_begin]])) {
      return;
    }
  }
}

// Fills `env` with the radius-`radius` envelope of `s`, reusing the
// buffers of `env` and `wedges` (ForEachWindowExtremes storage):
// ComputeBandEnvelope without the allocations once warm.
void FillBandEnvelope(const Sequence& s, size_t radius,
                      std::vector<size_t>* wedges, BandEnvelope* env);

// `q_env` when it is wide enough for the pair's effective `radius`, else
// q's envelope rebuilt at that radius in `scratch`: a pair's length
// mismatch can widen the radius past the envelope's build radius, and
// the windows must admit every alignment the DP admits (a wider envelope
// stays a valid, if looser, bound).
const BandEnvelope& EnvelopeFor(const Sequence& q, const BandEnvelope& q_env,
                                size_t radius, LbScratch* scratch);

// The accumulated-domain (pre-sqrt) threshold equivalent to a bound
// threshold `t`: the accumulator exceeds it iff the bound returned from
// that accumulator (sqrt applied when options.take_sqrt) exceeds t.
double AccumulatedThreshold(double t, const DtwOptions& options);

// Accumulated-domain (pre-sqrt) one-sided envelope bound with an explicit
// effective radius; `h_out` (optional) receives the projection of `s`
// onto the envelope (Lemire's h sequence, consumed by LB_Improved). Stops
// once the accumulator exceeds `abandon_above` (accumulated domain) and
// returns it; `h_out` then holds the projection only up to that element.
double OneSidedKeogh(const Sequence& s, const BandEnvelope& env,
                     size_t effective_radius, const DtwOptions& options,
                     std::vector<double>* h_out,
                     double abandon_above = kInfiniteDistance);

}  // namespace internal

}  // namespace warpindex

#endif  // WARPINDEX_DTW_LB_KEOGH_H_
