#include "dtw/dtw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dtw/allowed_mask.h"

namespace warpindex {
namespace {

inline double Combine(double cost, double upstream, DtwCombiner combiner) {
  return combiner == DtwCombiner::kSum ? cost + upstream
                                       : std::max(cost, upstream);
}

// The rolling DP over the rows of `s` and the columns of `q` (|s| >= |q|,
// both non-empty). Returns D(n-1, m-1) in the accumulated domain, or
// kInfiniteDistance when a whole row exceeds `threshold` (early abandon).
//
// Each row buffer holds m + 1 entries: entry j + 1 is column j and entry
// 0 is a +inf sentinel left of column 0, so no cell tests its position.
// Row 0 reads the virtual row -1, which is +inf except for a 0 at the
// sentinel: the diagonal predecessor of (0, 0), through which
// Combine(cost, 0) == cost seeds the base case for both combiners.
//
// Band edges: a row writes only its band [lo, hi]. The entry left of lo
// still holds a value from two rows back, so it is reset to +inf; the
// entries right of hi have never been written (hi never decreases), so
// they are still +inf from the initial fill. The band therefore costs
// O(band) per row, not O(m).
//
// Cells whose predecessors are all +inf need no test: Combine(cost, +inf)
// is +inf for both combiners (NaN for a NaN cost, which successors skip
// exactly like +inf; only the final cell needs care, below). The mins
// fold in the order of DistanceWithPath (up, diagonal, left, starting
// from +inf), so a NaN cell never becomes a predecessor value.
template <StepCost kStep, DtwCombiner kCombiner>
double RollingDp(const Sequence& s, const Sequence& q, size_t band,
                 double threshold, double* prev, double* curr,
                 uint64_t* cells) {
  const size_t n = s.size();
  const size_t m = q.size();
  const double* sd = s.data();
  const double* qd = q.data();
  std::fill(prev, prev + m + 1, kInfiniteDistance);
  std::fill(curr, curr + m + 1, kInfiniteDistance);
  prev[0] = 0.0;
  double best = kInfiniteDistance;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= band ? i - band : 0;
    const size_t hi = std::min(m - 1, i + band);
    const double s_i = sd[i];
    curr[lo] = kInfiniteDistance;
    double left = kInfiniteDistance;
    double row_min = kInfiniteDistance;
    for (size_t j = lo; j <= hi; ++j) {
      const double cost = ElementCost(s_i, qd[j], kStep);
      best = std::min(kInfiniteDistance, prev[j + 1]);  // (i-1, j)
      best = std::min(best, prev[j]);                   // (i-1, j-1)
      best = std::min(best, left);                      // (i, j-1)
      left = Combine(cost, best, kCombiner);
      curr[j + 1] = left;
      row_min = std::min(row_min, left);
    }
    *cells += hi - lo + 1;
    if (row_min > threshold) {
      // Every extension of every partial path already exceeds the
      // tolerance; abandon (exact for non-negative costs).
      return kInfiniteDistance;
    }
    std::swap(prev, curr);
  }
  const double final_value = prev[m];
  // A NaN cost on the final cell with no finite predecessor: the cell is
  // unreachable, and an unreachable cell is +inf (DistanceWithPath leaves
  // it unwritten), while Combine(NaN, +inf) is NaN. No other cell needs
  // this: successors' mins skip NaN and +inf alike.
  if (std::isnan(final_value) && std::isinf(best)) {
    return kInfiniteDistance;
  }
  return final_value;
}

// The L_inf decision pre-pass (max combiner, unconstrained band, finite
// non-negative threshold): false only when D(s, q) > threshold for sure.
//
// D <= t exactly when some monotone path from (0, 0) to (n-1, m-1) visits
// only allowed cells (step cost <= t; see dtw/allowed_mask.h). Row i's
// reachable set R_i, one bit per column, follows from R_{i-1}:
//   seed = (R_{i-1} | R_{i-1} << 1) & A_i      vertical and diagonal moves
//   R_i  = seed | (((A_i + seed) ^ A_i) & A_i)  horizontal runs
// The addition carries each seed bit through the run of allowed cells it
// starts in; shift and addition carry across words. A cell is reachable
// exactly when the DP's value for it is <= t, so an empty row is exactly
// the row where the DP's row minimum exceeds t and it would abandon. Both
// passes count m cells per row they cover, so a pair rejected here costs
// the same cell count as the DP's abandon.
//
// An unreachable final cell means D > t unless its cost is NaN: the DP
// then returns NaN (never > t) and the caller must run it for that value.
template <StepCost kStep>
bool LinfMayMatch(const Sequence& s, const Sequence& q, double threshold,
                  std::vector<uint64_t>* bits, uint64_t* cells) {
  const size_t n = s.size();
  const size_t m = q.size();
  const double* sd = s.data();
  const double* qd = q.data();
  const size_t words = (m + 63) / 64;
  bits->assign(words, 0);
  uint64_t* reach = bits->data();
  for (size_t i = 0; i < n; ++i) {
    *cells += m;
    // (0, 0) is entered from the virtual diagonal, as in RollingDp.
    uint64_t shift_in = i == 0 ? 1 : 0;
    uint64_t carry = 0;
    uint64_t any = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t up = reach[w];
      if ((up | shift_in | carry) == 0) {
        continue;  // nothing enters this word: it stays empty
      }
      const size_t base = w * 64;
      const uint64_t allowed = AllowedWord<kStep>(
          sd[i], qd + base, std::min<size_t>(64, m - base), threshold);
      const uint64_t seed = (up | (up << 1) | shift_in) & allowed;
      shift_in = up >> 63;
      const uint64_t sum = allowed + seed;
      const uint64_t sum_in = sum + carry;
      carry = static_cast<uint64_t>(sum < allowed) |
              static_cast<uint64_t>(sum_in < sum);
      const uint64_t row = seed | ((sum_in ^ allowed) & allowed);
      reach[w] = row;
      any |= row;
    }
    if (any == 0) {
      return false;
    }
  }
  const size_t last = m - 1;
  return ((reach[last / 64] >> (last % 64)) & 1) != 0 ||
         std::isnan(ElementCost(sd[n - 1], qd[last], kStep));
}

template <StepCost kStep, DtwCombiner kCombiner>
double Evaluate(const Sequence& s, const Sequence& q, size_t band,
                double threshold, double* prev, double* curr,
                std::vector<uint64_t>* bits, uint64_t* cells) {
  if constexpr (kCombiner == DtwCombiner::kMax) {
    // Banded pairs skip the pre-pass: the banded DP already abandons
    // non-matches within a few rows. A NaN threshold fails both tests.
    if (threshold >= 0.0 && threshold < kInfiniteDistance &&
        band >= s.size() - 1 &&
        !LinfMayMatch<kStep>(s, q, threshold, bits, cells)) {
      return kInfiniteDistance;
    }
  }
  return RollingDp<kStep, kCombiner>(s, q, band, threshold, prev, curr,
                                     cells);
}

}  // namespace

size_t EffectiveSakoeChibaRadius(const DtwOptions& options, size_t n,
                                 size_t m) {
  if (options.band < 0) {
    return std::max(n, m);  // unconstrained
  }
  const size_t min_needed = n > m ? n - m : m - n;
  return std::max(static_cast<size_t>(options.band), min_needed);
}

DtwResult Dtw::ComputeRolling(const Sequence& s_in, const Sequence& q_in,
                              double threshold,
                              DtwScratch* scratch) const {
  // D_tw is symmetric; keep the shorter sequence on the columns to bound
  // rolling-array memory by min(|S|, |Q|).
  const Sequence& s = s_in.size() >= q_in.size() ? s_in : q_in;
  const Sequence& q = s_in.size() >= q_in.size() ? q_in : s_in;

  DtwResult result;
  if (s.empty() && q.empty()) {
    result.distance = 0.0;
    return result;
  }
  if (s.empty() || q.empty()) {
    result.distance = kInfiniteDistance;
    return result;
  }

  const size_t m = q.size();
  const size_t band = EffectiveSakoeChibaRadius(options_, s.size(), m);
  // Work in the accumulated domain; take_sqrt is applied on exit, so the
  // threshold must be squared-domain too.
  const double internal_threshold =
      options_.take_sqrt ? threshold * threshold : threshold;

  // With a scratch, resize() reuses the retained capacity; the local
  // vectors stay empty and cost nothing.
  DtwScratch local;
  DtwScratch& buffers = scratch != nullptr ? *scratch : local;
  buffers.prev_.resize(m + 1);
  buffers.curr_.resize(m + 1);
  double* prev = buffers.prev_.data();
  double* curr = buffers.curr_.data();
  std::vector<uint64_t>* bits = &buffers.bits_;
  uint64_t* cells = &result.cells;

  double value = 0.0;
  const bool sum = options_.combiner == DtwCombiner::kSum;
  if (options_.step == StepCost::kAbsolute) {
    value = sum ? Evaluate<StepCost::kAbsolute, DtwCombiner::kSum>(
                      s, q, band, internal_threshold, prev, curr, bits, cells)
                : Evaluate<StepCost::kAbsolute, DtwCombiner::kMax>(
                      s, q, band, internal_threshold, prev, curr, bits, cells);
  } else {
    value = sum ? Evaluate<StepCost::kSquared, DtwCombiner::kSum>(
                      s, q, band, internal_threshold, prev, curr, bits, cells)
                : Evaluate<StepCost::kSquared, DtwCombiner::kMax>(
                      s, q, band, internal_threshold, prev, curr, bits, cells);
  }

  if (value > internal_threshold) {
    result.distance = kInfiniteDistance;
    return result;
  }
  if (options_.take_sqrt) {
    value = std::sqrt(value);
  }
  result.distance = value;
  return result;
}

DtwResult Dtw::Distance(const Sequence& s, const Sequence& q,
                        DtwScratch* scratch) const {
  return ComputeRolling(s, q, kInfiniteDistance, scratch);
}

DtwResult Dtw::DistanceWithThreshold(const Sequence& s, const Sequence& q,
                                     double epsilon,
                                     DtwScratch* scratch) const {
  assert(!(epsilon < 0.0));
  return ComputeRolling(s, q, epsilon, scratch);
}

DtwPathResult Dtw::DistanceWithPath(const Sequence& s,
                                    const Sequence& q) const {
  DtwPathResult result;
  if (s.empty() && q.empty()) {
    result.distance = 0.0;
    return result;
  }
  if (s.empty() || q.empty()) {
    result.distance = kInfiniteDistance;
    return result;
  }

  const size_t n = s.size();
  const size_t m = q.size();
  const size_t band = EffectiveSakoeChibaRadius(options_, n, m);
  std::vector<double> dp(n * m, kInfiniteDistance);
  auto at = [&](size_t i, size_t j) -> double& { return dp[i * m + j]; };

  for (size_t i = 0; i < n; ++i) {
    const size_t j_lo = i >= band ? i - band : 0;
    const size_t j_hi = std::min(m - 1, i + band);
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = ElementCost(s[i], q[j], options_.step);
      ++result.cells;
      if (i == 0 && j == 0) {
        at(i, j) = cost;
        continue;
      }
      double best = kInfiniteDistance;
      if (i > 0) {
        best = std::min(best, at(i - 1, j));
        if (j > 0) best = std::min(best, at(i - 1, j - 1));
      }
      if (j > 0) {
        best = std::min(best, at(i, j - 1));
      }
      if (std::isinf(best)) {
        continue;  // unreachable inside band edge cases
      }
      at(i, j) = Combine(cost, best, options_.combiner);
    }
  }

  double final_value = at(n - 1, m - 1);
  result.distance = options_.take_sqrt && !std::isinf(final_value)
                        ? std::sqrt(final_value)
                        : final_value;
  if (std::isinf(final_value)) {
    return result;  // no feasible path (cannot happen with valid band)
  }

  // Backtrack: from (n-1, m-1), repeatedly move to the reachable
  // predecessor with the smallest DP value. For both combiners the DP value
  // of the chosen predecessor reconstructs an optimal path.
  std::vector<WarpingStep> reversed;
  size_t i = n - 1;
  size_t j = m - 1;
  reversed.push_back({i, j});
  while (i > 0 || j > 0) {
    double best = kInfiniteDistance;
    size_t bi = i;
    size_t bj = j;
    if (i > 0 && j > 0 && at(i - 1, j - 1) <= best) {
      best = at(i - 1, j - 1);
      bi = i - 1;
      bj = j - 1;
    }
    if (i > 0 && at(i - 1, j) < best) {
      best = at(i - 1, j);
      bi = i - 1;
      bj = j;
    }
    if (j > 0 && at(i, j - 1) < best) {
      best = at(i, j - 1);
      bi = i;
      bj = j - 1;
    }
    i = bi;
    j = bj;
    reversed.push_back({i, j});
  }
  std::reverse(reversed.begin(), reversed.end());
  result.path = WarpingPath(std::move(reversed));
  return result;
}

}  // namespace warpindex
