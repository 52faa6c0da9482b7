#include "dtw/dtw.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "dtw/allowed_mask.h"

namespace warpindex {
namespace {

inline double Combine(double cost, double upstream, DtwCombiner combiner) {
  return combiner == DtwCombiner::kSum ? cost + upstream
                                       : std::max(cost, upstream);
}

// The rolling DP over the rows of `s` and the columns of `q` (|s| >= |q|,
// both non-empty). Row i computes only the columns window(i) = [lo, hi];
// every cell outside its row's window counts as +inf. Returns D(n-1, m-1)
// in the accumulated domain, or kInfiniteDistance when a whole row
// exceeds `threshold` (early abandon).
//
// Two window shapes use it: the Sakoe-Chiba band (BandWindow, which is
// every column when unconstrained) and the per-row windows of the cells
// on paths costing <= t that the L_inf pre-pass records (PathWindow).
// Either way lo never decreases from one row to the next.
//
// Each row buffer holds m + 1 entries: entry j + 1 is column j and entry
// 0 is a +inf sentinel left of column 0, so no cell tests its position.
// Row 0 reads the virtual row -1, which is +inf except for a 0 at the
// sentinel: the diagonal predecessor of (0, 0), through which
// Combine(cost, 0) == cost seeds the base case for both combiners.
//
// Window edges: a row writes only entries lo + 1 .. hi + 1 and reads the
// previous row's entries lo .. hi + 1. The entry left of lo still holds a
// value from two rows back, so it is reset to +inf; entries below it are
// never read again (lo never decreases). Entries right of hi + 1 must be
// +inf for the next row that reads this buffer: a band's hi never
// decreases, so they are still +inf from the initial fill, but a path
// window's hi can shrink, so after each row the entries a wider, older
// row left above hi + 1 are cleared. The DP therefore costs O(window)
// per row, not O(m).
//
// Cells whose predecessors are all +inf need no test: Combine(cost, +inf)
// is +inf for both combiners. Elements are finite (Sequence's
// invariant), so every cost and cell value is a number, +inf at most
// (a step cost can overflow), and the mins fold in any order alike.
template <StepCost kStep, DtwCombiner kCombiner, typename Window>
double RollingDp(const Sequence& s, const Sequence& q, Window window,
                 double threshold, double* prev, double* curr,
                 uint64_t* cells) {
  const size_t n = s.size();
  const size_t m = q.size();
  const double* sd = s.data();
  const double* qd = q.data();
  std::fill(prev, prev + m + 1, kInfiniteDistance);
  std::fill(curr, curr + m + 1, kInfiniteDistance);
  prev[0] = 0.0;
  // One past the highest entry each buffer may hold a finite value in.
  size_t prev_end = 1;
  size_t curr_end = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = window(i);
    const double s_i = sd[i];
    curr[lo] = kInfiniteDistance;
    double left = kInfiniteDistance;
    double row_min = kInfiniteDistance;
    for (size_t j = lo; j <= hi; ++j) {
      const double cost = ElementCost(s_i, qd[j], kStep);
      // min of (i-1, j), (i-1, j-1), then (i, j-1), the loop-carried one
      const double best = std::min(std::min(prev[j + 1], prev[j]), left);
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
    if (curr_end > hi + 2) {
      std::fill(curr + hi + 2, curr + curr_end, kInfiniteDistance);
    }
    curr_end = hi + 2;
    std::swap(prev, curr);
    std::swap(prev_end, curr_end);
  }
  return prev[m];
}

// Row i's Sakoe-Chiba band [i - band, i + band], clipped to the columns.
struct BandWindow {
  size_t band;
  size_t m;
  std::pair<size_t, size_t> operator()(size_t i) const {
    return {i >= band ? i - band : 0, std::min(m - 1, i + band)};
  }
};

// Row i's first and last column on a path costing <= t, as PathWindows
// recorded them.
struct PathWindow {
  const size_t* lo;
  const size_t* hi;
  std::pair<size_t, size_t> operator()(size_t i) const {
    return {lo[i], hi[i]};
  }
};

// The pre-pass's allowed masks, one row at a time: from the columns'
// rank table (rows of up to kMaxRankedColumns columns) ...
template <StepCost kStep>
struct RankedMasks {
  const ColumnRanks* ranks;
  double threshold;
  const uint64_t* below_lo = nullptr;
  const uint64_t* below_hi = nullptr;
  void Row(double s_i) {
    ranks->Row<kStep>(s_i, threshold, &below_lo, &below_hi);
  }
  uint64_t Word(size_t w) const { return below_hi[w] & ~below_lo[w]; }
};

// ... or by comparing every column of the word (longer rows).
template <StepCost kStep>
struct ComparedMasks {
  const double* q;
  size_t m;
  double threshold;
  double s_i = 0.0;
  void Row(double s) { s_i = s; }
  uint64_t Word(size_t w) const {
    const size_t base = w * 64;
    return AllowedWord<kStep>(s_i, q + base, std::min<size_t>(64, m - base),
                              threshold);
  }
};

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
// `masks` supplies each row's allowed words A_i (RankedMasks or
// ComparedMasks: identical words, different cost profiles). `rows` holds
// n + 1 rows of `words` words: a zero row -1, then R_0 ..
// R_{n-1}, which PathWindows reads when every row is non-empty. Even then
// D > t unless the final cell is reachable.
template <typename Masks>
bool LinfMayMatch(const Sequence& s, size_t m, Masks masks, uint64_t* rows,
                  uint64_t* cells) {
  const size_t n = s.size();
  const double* sd = s.data();
  const size_t words = (m + 63) / 64;
  std::fill(rows, rows + words, 0);
  for (size_t i = 0; i < n; ++i) {
    *cells += m;
    const uint64_t* above = rows + i * words;
    uint64_t* reach = rows + (i + 1) * words;
    // (0, 0) is entered from the virtual diagonal, as in RollingDp.
    uint64_t shift_in = i == 0 ? 1 : 0;
    uint64_t carry = 0;
    uint64_t any = 0;
    masks.Row(sd[i]);
    for (size_t w = 0; w < words; ++w) {
      const uint64_t up = above[w];
      if ((up | shift_in | carry) == 0) {
        reach[w] = 0;  // nothing enters this word: it stays empty
        continue;
      }
      const uint64_t allowed = masks.Word(w);
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
  return true;
}

// Reverses the bit order of a word (bit 0 <-> bit 63).
inline uint64_t ReverseBits(uint64_t x) {
  constexpr uint64_t k1 = 0x5555555555555555ULL;
  constexpr uint64_t k2 = 0x3333333333333333ULL;
  constexpr uint64_t k4 = 0x0F0F0F0F0F0F0F0FULL;
  x = ((x >> 1) & k1) | ((x & k1) << 1);
  x = ((x >> 2) & k2) | ((x & k2) << 2);
  x = ((x >> 4) & k4) | ((x & k4) << 4);
  return __builtin_bswap64(x);  // then the byte order
}

// After a pre-pass whose final cell is reachable: keeps in each row only
// the reachable cells from which (n-1, m-1) is reachable too, i.e. the
// cells of some path costing <= t, and records each row's first and last
// such column in lo[i] and hi[i]. The backward sweep mirrors the forward
// one: row i keeps the cells of R_i that run right, through R_i, to a
// seed, a cell with a kept cell straight or diagonally below it:
//   seed = R_i & (K_{i+1} | K_{i+1} >> 1)
//   K_i  = the cells of R_i left of a seed in the same run of R_i
// The leftward run fill is the forward addition on bit-reversed words,
// with the carry flowing from high words to low ones.
//
// Every row keeps a cell (the path's), and lo never decreases: a kept
// cell of row i is entered from a kept cell of row i - 1 at the same or
// a lower column.
void PathWindows(size_t n, size_t m, uint64_t* rows, size_t* lo,
                 size_t* hi) {
  const size_t words = (m + 63) / 64;
  for (size_t i = n; i-- > 0;) {
    uint64_t* keep = rows + (i + 1) * words;
    const uint64_t* below = keep + words;  // K_{i+1}; unread for i = n-1
    uint64_t carry = 0;
    size_t first = 0;
    size_t last = 0;
    bool found = false;
    for (size_t w = words; w-- > 0;) {
      const uint64_t reach = keep[w];
      if (reach == 0) {
        carry = 0;  // a gap ends every run
        continue;
      }
      uint64_t seed = 0;
      if (i + 1 == n) {
        seed = w == (m - 1) / 64 ? uint64_t{1} << ((m - 1) % 64) : 0;
      } else {
        const uint64_t next = w + 1 < words ? below[w + 1] : 0;
        seed = below[w] | (below[w] >> 1) | (next << 63);
      }
      const uint64_t r_reach = ReverseBits(reach);
      const uint64_t r_seed = ReverseBits(seed & reach);
      const uint64_t sum = r_reach + r_seed;
      const uint64_t sum_in = sum + carry;
      carry = static_cast<uint64_t>(sum < r_reach) |
              static_cast<uint64_t>(sum_in < sum);
      const uint64_t kept =
          ReverseBits(r_seed | ((sum_in ^ r_reach) & r_reach));
      keep[w] = kept;
      if (kept != 0) {
        if (!found) {
          last = w;
          found = true;
        }
        first = w;
      }
    }
    lo[i] = first * 64 + static_cast<size_t>(std::countr_zero(keep[first]));
    hi[i] = last * 64 + 63 -
            static_cast<size_t>(std::countl_zero(keep[last]));
  }
}

// A DtwScratch's buffers, sized for one evaluation: two rows of m + 1
// entries, and (pre-pass only) n + 1 bit rows, n per-row windows and the
// columns' rank table.
struct Buffers {
  const ColumnRanks* ranks;  // null: the pre-pass compares every column
  double* prev;
  double* curr;
  uint64_t* rows;
  size_t* lo;
  size_t* hi;
};

// One thresholded or unthresholded evaluation. With `prepass` (the max
// combiner over an unconstrained band, Dtw::RunsLinfPrePass, and a
// finite non-negative threshold t), the pre-pass decides first, and a
// pair whose final cell it reaches runs the DP only inside the windows of
// the cells on paths costing <= t (PathWindows). That is exact: every
// cell of an optimal path ending <= t costs <= t and lies on such a path,
// so that path survives in the windows, and dropping cells only removes
// paths, which cannot lower the minimum. Under the max combiner a path's
// cost is one of its cells' step costs, so the final value is
// bit-identical to the full DP's.
template <StepCost kStep, DtwCombiner kCombiner>
double Evaluate(const Sequence& s, const Sequence& q, size_t band,
                bool prepass, double threshold, const Buffers& buffers,
                uint64_t* cells) {
  const size_t n = s.size();
  const size_t m = q.size();
  if constexpr (kCombiner == DtwCombiner::kMax) {
    if (prepass) {
      const bool may_match =
          buffers.ranks != nullptr
              ? LinfMayMatch(s, m,
                             RankedMasks<kStep>{buffers.ranks, threshold},
                             buffers.rows, cells)
              : LinfMayMatch(s, m,
                             ComparedMasks<kStep>{q.data(), m, threshold},
                             buffers.rows, cells);
      if (!may_match) {
        return kInfiniteDistance;
      }
      const size_t last = m - 1;
      const uint64_t* final_row = buffers.rows + n * ((m + 63) / 64);
      if (((final_row[last / 64] >> (last % 64)) & 1) == 0) {
        return kInfiniteDistance;
      }
      PathWindows(n, m, buffers.rows, buffers.lo, buffers.hi);
      return RollingDp<kStep, kCombiner>(
          s, q, PathWindow{buffers.lo, buffers.hi}, threshold, buffers.prev,
          buffers.curr, cells);
    }
  }
  return RollingDp<kStep, kCombiner>(s, q, BandWindow{band, m}, threshold,
                                     buffers.prev, buffers.curr, cells);
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

  const size_t n = s.size();
  const size_t m = q.size();
  const size_t band = EffectiveSakoeChibaRadius(options_, n, m);
  // Work in the accumulated domain; take_sqrt is applied on exit, so the
  // threshold must be squared-domain too.
  const double internal_threshold =
      options_.take_sqrt ? threshold * threshold : threshold;
  const bool prepass = RunsLinfPrePass() && internal_threshold >= 0.0 &&
                       internal_threshold < kInfiniteDistance;

  // With a scratch, resize() reuses the retained capacity; the local
  // vectors stay empty and cost nothing.
  DtwScratch local;
  DtwScratch& scratch_ref = scratch != nullptr ? *scratch : local;
  scratch_ref.prev_.resize(m + 1);
  scratch_ref.curr_.resize(m + 1);
  const ColumnRanks* ranks = nullptr;
  if (prepass) {
    scratch_ref.bits_.resize((n + 1) * ((m + 63) / 64));
    scratch_ref.lo_.resize(n);
    scratch_ref.hi_.resize(n);
    if (m <= kMaxRankedColumns) {
      scratch_ref.ranks_.Assign(q.data(), m);
      ranks = &scratch_ref.ranks_;
    }
  }
  const Buffers buffers{ranks, scratch_ref.prev_.data(),
                        scratch_ref.curr_.data(),
                        scratch_ref.bits_.data(), scratch_ref.lo_.data(),
                        scratch_ref.hi_.data()};
  uint64_t* cells = &result.cells;

  double value = 0.0;
  const bool sum = options_.combiner == DtwCombiner::kSum;
  if (options_.step == StepCost::kAbsolute) {
    value = sum ? Evaluate<StepCost::kAbsolute, DtwCombiner::kSum>(
                      s, q, band, prepass, internal_threshold, buffers, cells)
                : Evaluate<StepCost::kAbsolute, DtwCombiner::kMax>(
                      s, q, band, prepass, internal_threshold, buffers, cells);
  } else {
    value = sum ? Evaluate<StepCost::kSquared, DtwCombiner::kSum>(
                      s, q, band, prepass, internal_threshold, buffers, cells)
                : Evaluate<StepCost::kSquared, DtwCombiner::kMax>(
                      s, q, band, prepass, internal_threshold, buffers, cells);
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
  assert(epsilon >= 0.0);
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
