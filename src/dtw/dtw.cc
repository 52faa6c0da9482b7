#include "dtw/dtw.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "dtw/allowed_mask.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace warpindex {
namespace {

inline double Combine(double cost, double upstream, DtwCombiner combiner) {
  return combiner == DtwCombiner::kSum ? cost + upstream
                                       : std::max(cost, upstream);
}

// The rolling DP over the rows s[0 .. n) and the columns q[0 .. m) (both
// non-empty) inside the Sakoe-Chiba band: row i computes only the columns
// [i - band, i + band] clipped to [0, m), every column when the band is
// at least max(n, m), and every cell outside the band counts as +inf.
// Returns D(n-1, m-1) in the accumulated domain, or kInfiniteDistance
// when a whole row exceeds `threshold` (early abandon).
//
// Each row buffer holds m + 1 entries: entry j + 1 is column j and entry
// 0 is a +inf sentinel left of column 0, so no cell tests its position.
// Row 0 reads the virtual row -1, which is +inf except for a 0 at the
// sentinel: the diagonal predecessor of (0, 0), through which
// Combine(cost, 0) == cost seeds the base case for both combiners.
//
// Band edges: a row writes only entries lo + 1 .. hi + 1 and reads the
// previous row's entries lo .. hi + 1. The entry left of lo still holds a
// value from two rows back, so it is reset to +inf; entries below it are
// never read again (lo never decreases). Entries right of hi + 1 are
// still +inf from the initial fill, since hi never decreases either. The
// DP therefore costs O(band) per row, not O(m).
//
// Cells whose predecessors are all +inf need no test: Combine(cost, +inf)
// is +inf for both combiners. Elements are finite (Sequence's
// invariant), so every cost and cell value is a number, +inf at most
// (a step cost can overflow), and the mins fold in any order alike.
template <StepCost kStep, DtwCombiner kCombiner>
double RollingDp(const double* s, size_t n, const double* q, size_t m,
                 size_t band, double threshold, double* prev, double* curr,
                 uint64_t* cells) {
  std::fill(prev, prev + m + 1, kInfiniteDistance);
  std::fill(curr, curr + m + 1, kInfiniteDistance);
  prev[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= band ? i - band : 0;
    const size_t hi = std::min(m - 1, i + band);
    const double s_i = s[i];
    curr[lo] = kInfiniteDistance;
    double left = kInfiniteDistance;
    double row_min = kInfiniteDistance;
    for (size_t j = lo; j <= hi; ++j) {
      const double cost = ElementCost(s_i, q[j], kStep);
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
    std::swap(prev, curr);
  }
  return prev[m];
}

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
bool LinfMayMatch(const double* s, size_t n, size_t m, Masks masks,
                  uint64_t* rows, uint64_t* cells) {
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
    masks.Row(s[i]);
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
// Every row keeps a cell (the path's), and lo and hi never decrease: a
// kept cell of row i is entered from a kept cell of row i - 1 at the same
// or a lower column, so lo[i - 1] <= lo[i], and row i - 1's last kept
// cell leaves to a kept cell of row i at the same or the next column, so
// hi[i - 1] <= hi[i]. DiagonalDp relies on both.
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

// The max-combined DP over the path windows [lo[i], hi[i]] of rows
// s[0 .. n) against the columns q[0 .. m), given reversed (q_reversed[k] =
// q[m - 1 - k]), one anti-diagonal d = i + j at a time. Cell (i, j) reads
// (i - 1, j) and (i, j - 1) on diagonal d - 1 and (i - 1, j - 1) on
// diagonal d - 2, never a cell of its own diagonal, so a diagonal's cells
// are independent: two per SSE2 instruction, with no loop-carried chain.
//
// Row i's window holds the diagonals [i + lo[i], i + hi[i]]. Both ends
// rise by at least one per row (lo and hi never decrease, PathWindows),
// so diagonal d's window cells are one run of rows [a, b]: a is the first
// row with a + hi[a] >= d and b the last with b + lo[b] <= d, and both
// only move forward as d grows. The run can be empty (b = a - 1) where
// the windows of two rows meet only diagonally.
//
// Three diagonal buffers rotate, n + 2 entries each: entry i + 1 is row
// i. Since a and b rise by at most one per diagonal, diagonal d reads
// diagonal d - 1 and diagonal d - 2 each only within rows [a - 1, b + 1]
// of that diagonal's own run. So writing +inf at rows a - 1 and b + 1
// beside each diagonal's run makes every cell outside the windows read as
// +inf, and what a buffer held three diagonals ago is never read. The
// virtual cell (-1, -1) is 0, as in RollingDp.
//
// Each cell is max(cost, min(up, left, diag)): the same values as
// RollingDp's, and no cell is -0 (costs are |d| or d * d, the seed is
// +0), so _mm_min_pd and _mm_max_pd return the same bits as std::min and
// std::max. Every window cell lies within a row of a path costing <= t,
// so no row exceeds t and there is nothing to abandon. Returns D(n-1,
// m-1); counts the window cells.
template <StepCost kStep>
double DiagonalDp(const double* s, size_t n, const double* q_reversed,
                  size_t m, const size_t* lo, const size_t* hi,
                  double* diagonals, uint64_t* cells) {
  double* before = diagonals;             // diagonal d - 2
  double* last = diagonals + (n + 2);     // diagonal d - 1
  double* next = diagonals + 2 * (n + 2);  // diagonal d
  before[0] = 0.0;                 // (-1, -1)
  last[0] = kInfiniteDistance;     // (-1, 0)
  last[1] = kInfiniteDistance;     // (0, -1)
  size_t a = 0;
  size_t b = 0;
  for (size_t d = 0; d + 1 < n + m; ++d) {
    while (a + hi[a] < d) {
      ++a;
    }
    while (b + 1 < n && b + 1 + lo[b + 1] <= d) {
      ++b;
    }
    // Column d - i is q_reversed[i + offset], modulo 2^64.
    const size_t offset = m - 1 - d;
    next[a] = kInfiniteDistance;      // row a - 1
    next[b + 2] = kInfiniteDistance;  // row b + 1
    size_t i = a;
#if defined(__SSE2__)
    const __m128d abs_mask =
        _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    for (; i + 1 <= b; i += 2) {
      const __m128d diff = _mm_sub_pd(_mm_loadu_pd(s + i),
                                      _mm_loadu_pd(q_reversed + (i + offset)));
      const __m128d cost = kStep == StepCost::kAbsolute
                               ? _mm_and_pd(diff, abs_mask)
                               : _mm_mul_pd(diff, diff);
      const __m128d best =
          _mm_min_pd(_mm_min_pd(_mm_loadu_pd(last + i),
                                _mm_loadu_pd(last + i + 1)),
                     _mm_loadu_pd(before + i));
      _mm_storeu_pd(next + i + 1, _mm_max_pd(cost, best));
    }
#endif
    for (; i <= b; ++i) {
      const double cost = ElementCost(s[i], q_reversed[i + offset], kStep);
      const double best =
          std::min(std::min(last[i], last[i + 1]), before[i]);
      next[i + 1] = std::max(cost, best);
    }
    *cells += b + 1 - a;
    double* const spare = before;
    before = last;
    last = next;
    next = spare;
  }
  return last[n];
}

// The evaluated pair: rows s[0 .. n), columns q[0 .. m), and for the
// pre-pass the columns reversed and their rank table (null: the pre-pass
// compares every column).
struct Pair {
  const double* s;
  size_t n;
  const double* q;
  size_t m;
  const double* q_reversed;
  const ColumnRanks* ranks;
};

// A DtwScratch's buffers, sized for one evaluation: two rows of m + 1
// entries, or (pre-pass only) n + 1 bit rows, n per-row windows and three
// diagonals of n + 2 entries.
struct Buffers {
  double* prev;
  double* curr;
  uint64_t* rows;
  size_t* lo;
  size_t* hi;
  double* diagonals;
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
double Evaluate(const Pair& pair, size_t band, bool prepass,
                double threshold, const Buffers& buffers, uint64_t* cells) {
  const size_t n = pair.n;
  const size_t m = pair.m;
  if constexpr (kCombiner == DtwCombiner::kMax) {
    if (prepass) {
      const bool may_match =
          pair.ranks != nullptr
              ? LinfMayMatch(pair.s, n, m,
                             RankedMasks<kStep>{pair.ranks, threshold},
                             buffers.rows, cells)
              : LinfMayMatch(pair.s, n, m,
                             ComparedMasks<kStep>{pair.q, m, threshold},
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
      return DiagonalDp<kStep>(pair.s, n, pair.q_reversed, m, buffers.lo,
                               buffers.hi, buffers.diagonals, cells);
    }
  }
  return RollingDp<kStep, kCombiner>(pair.s, n, pair.q, m, band, threshold,
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

bool LinfPathWindows(const Sequence& s, const Sequence& q, StepCost step,
                     double threshold, std::vector<size_t>* lo,
                     std::vector<size_t>* hi) {
  lo->clear();
  hi->clear();
  const size_t n = s.size();
  const size_t m = q.size();
  if (n == 0 || m == 0) {
    return false;
  }
  std::vector<uint64_t> rows((n + 1) * ((m + 63) / 64));
  uint64_t cells = 0;
  const bool may_match =
      step == StepCost::kAbsolute
          ? LinfMayMatch(s.data(), n, m,
                         ComparedMasks<StepCost::kAbsolute>{q.data(), m,
                                                            threshold},
                         rows.data(), &cells)
          : LinfMayMatch(s.data(), n, m,
                         ComparedMasks<StepCost::kSquared>{q.data(), m,
                                                           threshold},
                         rows.data(), &cells);
  const uint64_t final_word = rows[n * ((m + 63) / 64) + (m - 1) / 64];
  if (!may_match || ((final_word >> ((m - 1) % 64)) & 1) == 0) {
    return false;
  }
  lo->resize(n);
  hi->resize(n);
  PathWindows(n, m, rows.data(), lo->data(), hi->data());
  return true;
}

void PreparedQuery::Assign(const Sequence& q, bool linf) {
  const size_t m = q.size();
  values_.assign(q.data(), q.data() + m);
  linf_ = linf;
  if (!linf) {
    return;
  }
  reversed_.assign(values_.rbegin(), values_.rend());
  if (m > 0 && m <= kMaxRankedColumns) {
    ranks_.Assign(values_.data(), m);
  }
}

bool PreparedQuery::Holds(const Sequence& q, bool linf) const {
  return (linf_ || !linf) && values_.size() == q.size() &&
         std::equal(values_.begin(), values_.end(), q.data());
}

PreparedQuery Dtw::Prepare(const Sequence& q) const {
  PreparedQuery prepared;
  prepared.Assign(q, RunsLinfPrePass());
  return prepared;
}

DtwResult Dtw::Compute(const Sequence& s_in, const PreparedQuery& q_in,
                       double threshold, DtwScratch* scratch) const {
  DtwResult result;
  if (s_in.empty() && q_in.size() == 0) {
    result.distance = 0.0;
    return result;
  }
  if (s_in.empty() || q_in.size() == 0) {
    result.distance = kInfiniteDistance;
    return result;
  }

  // Work in the accumulated domain; take_sqrt is applied on exit, so the
  // threshold must be squared-domain too.
  const double internal_threshold =
      options_.take_sqrt ? threshold * threshold : threshold;
  const bool prepass = RunsLinfPrePass() && q_in.linf_ &&
                       internal_threshold >= 0.0 &&
                       internal_threshold < kInfiniteDistance;
  // Under the pre-pass's options the query stays on the columns, where its
  // prepared state serves every candidate; any evaluation order is exact
  // under the max combiner. Otherwise D_tw's symmetry puts the shorter
  // sequence on the columns, bounding the rolling rows by min(|S|, |Q|);
  // the sum combiner must keep that order, since swapping would reorder
  // its floating-point sums.
  const double* sd = s_in.data();
  const double* qd = q_in.values_.data();
  size_t n = s_in.size();
  size_t m = q_in.size();
  if (!RunsLinfPrePass() && n < m) {
    std::swap(sd, qd);
    std::swap(n, m);
  }
  const Pair pair{sd, n, qd, m, q_in.reversed_.data(),
                  prepass && m <= kMaxRankedColumns ? &q_in.ranks_ : nullptr};
  const size_t band = EffectiveSakoeChibaRadius(options_, n, m);

  // With a scratch, resize() reuses the retained capacity; the local
  // vectors stay empty and cost nothing.
  DtwScratch local;
  DtwScratch& scratch_ref = scratch != nullptr ? *scratch : local;
  if (prepass) {
    scratch_ref.bits_.resize((n + 1) * ((m + 63) / 64));
    scratch_ref.lo_.resize(n);
    scratch_ref.hi_.resize(n);
    scratch_ref.diagonals_.resize(3 * (n + 2));
  } else {
    scratch_ref.prev_.resize(m + 1);
    scratch_ref.curr_.resize(m + 1);
  }
  const Buffers buffers{scratch_ref.prev_.data(), scratch_ref.curr_.data(),
                        scratch_ref.bits_.data(),  scratch_ref.lo_.data(),
                        scratch_ref.hi_.data(),
                        scratch_ref.diagonals_.data()};
  uint64_t* cells = &result.cells;

  double value = 0.0;
  const bool sum = options_.combiner == DtwCombiner::kSum;
  if (options_.step == StepCost::kAbsolute) {
    value = sum ? Evaluate<StepCost::kAbsolute, DtwCombiner::kSum>(
                      pair, band, prepass, internal_threshold, buffers, cells)
                : Evaluate<StepCost::kAbsolute, DtwCombiner::kMax>(
                      pair, band, prepass, internal_threshold, buffers, cells);
  } else {
    value = sum ? Evaluate<StepCost::kSquared, DtwCombiner::kSum>(
                      pair, band, prepass, internal_threshold, buffers, cells)
                : Evaluate<StepCost::kSquared, DtwCombiner::kMax>(
                      pair, band, prepass, internal_threshold, buffers, cells);
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

DtwResult Dtw::ComputeCached(const Sequence& s, const Sequence& q,
                             double threshold, DtwScratch* scratch) const {
  DtwScratch local;
  DtwScratch& scratch_ref = scratch != nullptr ? *scratch : local;
  const double internal_threshold =
      options_.take_sqrt ? threshold * threshold : threshold;
  const bool linf =
      RunsLinfPrePass() && internal_threshold < kInfiniteDistance;
  if (!scratch_ref.query_.Holds(q, linf)) {
    scratch_ref.query_.Assign(q, linf);
  }
  return Compute(s, scratch_ref.query_, threshold, &scratch_ref);
}

DtwResult Dtw::Distance(const Sequence& s, const PreparedQuery& q,
                        DtwScratch* scratch) const {
  return Compute(s, q, kInfiniteDistance, scratch);
}

DtwResult Dtw::DistanceWithThreshold(const Sequence& s,
                                     const PreparedQuery& q, double epsilon,
                                     DtwScratch* scratch) const {
  assert(epsilon >= 0.0);
  return Compute(s, q, epsilon, scratch);
}

DtwResult Dtw::Distance(const Sequence& s, const Sequence& q,
                        DtwScratch* scratch) const {
  return ComputeCached(s, q, kInfiniteDistance, scratch);
}

DtwResult Dtw::DistanceWithThreshold(const Sequence& s, const Sequence& q,
                                     double epsilon,
                                     DtwScratch* scratch) const {
  assert(epsilon >= 0.0);
  return ComputeCached(s, q, epsilon, scratch);
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
