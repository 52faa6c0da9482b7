// Allowed-cell bit masks for the L_inf decision pre-pass (dtw/dtw.cc).
//
// Under the max combiner, D_tw(S, Q) <= t holds exactly when a monotone
// path from (0, 0) to (n-1, m-1) visits only cells whose step cost is
// <= t. The pre-pass walks that reachability one DP row at a time as a
// bitset; these helpers build one 64-column word of a row's "allowed"
// mask: bit b is set iff ElementCost(s_i, q[b], step) <= t.
//
// Three builders produce identical words. ColumnRanks (below) is the one
// the pre-pass uses for rows of up to kMaxRankedColumns columns: per row,
// two bucket lookups and a few compares each instead of a compare per
// column. A PreparedQuery (dtw/dtw.h) builds the query's table once, in
// O(m) by a counting sort, and every evaluation against that query reads
// it; nothing here checks or caches which columns a table belongs to.
// Longer rows use the per-column builders: an SSE2 one (the x86-64
// baseline, compiled under __SSE2__) and a portable scalar one, which is
// the fallback everywhere else and the reference the other two are tested
// against.

#ifndef WARPINDEX_DTW_ALLOWED_MASK_H_
#define WARPINDEX_DTW_ALLOWED_MASK_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "dtw/base_distance.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace warpindex {

// Mask word for columns q[0 .. count), count <= 64.
template <StepCost kStep>
inline uint64_t AllowedWordPortable(double s_i, const double* q, size_t count,
                                    double threshold) {
  uint64_t word = 0;
  for (size_t b = 0; b < count; ++b) {
    word |= static_cast<uint64_t>(ElementCost(s_i, q[b], kStep) <= threshold)
            << b;
  }
  return word;
}

#if defined(__SSE2__)
// Same word as AllowedWordPortable, two columns per instruction. The
// absolute value clears the sign bit exactly as std::fabs does.
template <StepCost kStep>
inline uint64_t AllowedWordSse2(double s_i, const double* q, size_t count,
                                double threshold) {
  const __m128d s = _mm_set1_pd(s_i);
  const __m128d t = _mm_set1_pd(threshold);
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
  uint64_t word = 0;
  size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const __m128d d = _mm_sub_pd(s, _mm_loadu_pd(q + b));
    const __m128d cost = kStep == StepCost::kAbsolute ? _mm_and_pd(d, abs_mask)
                                                      : _mm_mul_pd(d, d);
    word |= static_cast<uint64_t>(_mm_movemask_pd(_mm_cmple_pd(cost, t)))
            << b;
  }
  if (b < count) {
    word |= AllowedWordPortable<kStep>(s_i, q + b, count - b, threshold) << b;
  }
  return word;
}
#endif

// The builder the pre-pass uses on this platform.
template <StepCost kStep>
inline uint64_t AllowedWord(double s_i, const double* q, size_t count,
                            double threshold) {
#if defined(__SSE2__)
  return AllowedWordSse2<kStep>(s_i, q, count, threshold);
#else
  return AllowedWordPortable<kStep>(s_i, q, count, threshold);
#endif
}

// The longest row ColumnRanks serves: its table holds (m + 1) masks of m
// bits, m^2 / 8 bytes (128 KiB at this length), and 4 m bucket entries.
inline constexpr size_t kMaxRankedColumns = 1024;

// Row masks from the columns' value order. For a fixed s_i, d = s_i - q[j]
// is non-increasing in q[j] (rounding is monotone) and the step cost is
// non-decreasing in |d|, so with the values of q sorted ascending the
// allowed columns are exactly the ranks [lo, hi):
//   lo = the first rank where d <= 0 or cost <= t   (false, then true)
//   hi = the first rank where d < 0 and cost > t    (false, then true)
// and the row's mask is below(hi) & ~below(lo), where below(r) holds the
// columns of the ranks under r. Under kAbsolute, t >= 0 folds each
// predicate into one compare: d <= t for lo and d < -t for hi.
//
// Finding lo and hi. lo sits where the sorted values cross s_i - r, and hi
// where they cross s_i + r (r = t under kAbsolute, sqrt(t) under
// kSquared). Assign splits the span from the second smallest to the
// second largest value (all values when m <= 2) into 4 m equal buckets,
// so one far outlier on either side does not stretch them, and stores for
// each bucket the first rank in the bucket below it or above. A row maps
// s_i - r and s_i + r to their buckets, which gives each bound a window of
// kWindow ranks starting one bucket low (the predicates round differently
// from the bucket arithmetic). If the predicate is false just below the
// window and true at its top, the bound is the window's first rank plus
// the count of its false ranks: kWindow + 1 independent compares.
// Otherwise (a dense bucket, or rounding that put the crossing
// below the window) a branch-free binary search runs over all ranks, so
// the result is always the exact first rank. Per bound, the worst case is
// therefore the full-range search plus one bucket lookup and kWindow + 1
// compares. On paper-range's columns (perturbed 256-point walks) about
// 0.2% of lookups take the full-range search; with many equal values, or
// two or more outliers on a side, most lookups near them do. A span whose
// scale is not finite (0, subnormal, or beyond DBL_MAX) puts every value
// in bucket 0.
//
// Building the table is O(m) on spread-out columns: one scan finds the
// span's trimmed ends, a counting sort over the same 4 m buckets orders
// the columns by bucket (the bucket is non-decreasing in the value, so
// only values sharing a bucket can be out of order), and an insertion
// sort by (value, column) finishes each bucket. The bucket windows are
// then the counting sort's bucket starts. Dense buckets (equal values, or
// a span stretched by outliers) fall back to std::sort once the insertion
// sort has moved more than kMaxInsertionMoves entries per column; either
// way the table is the one a full sort by (value, column) gives.
//
// Besides costing fewer instructions per row, the lookups run at a
// steadier speed than the per-column compares: on a shared 4-vCPU VM
// under varying host load, identical blocks of the SSE2 compares took up
// to 2.4x as long as the fastest block (about 1.2x for the DP), which
// made whole benchmark runs of a compare-bound workload spread 15-30%.
class ColumnRanks {
 public:
  // Builds the table for columns q[0 .. m), 0 < m <= kMaxRankedColumns.
  void Assign(const double* q, size_t m) {
    count_ = m;
    words_ = (m + 63) / 64;
    const size_t buckets = 4 * m;
    // The span from the second smallest to the second largest value (the
    // smallest to the largest when m <= 2), counting equal values apart.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double min1 = kInf;
    double min2 = kInf;
    double max1 = -kInf;
    double max2 = -kInf;
    for (size_t j = 0; j < m; ++j) {
      const double x = q[j];
      min2 = x < min1 ? min1 : std::min(min2, x);
      min1 = std::min(min1, x);
      max2 = x > max1 ? max1 : std::max(max2, x);
      max1 = std::max(max1, x);
    }
    low_ = m > 2 ? min2 : min1;
    last_bucket_ = static_cast<double>(buckets - 1);
    // A zero span gives an infinite scale and a span beyond DBL_MAX a
    // zero one: either way every value goes to bucket 0.
    scale_ = static_cast<double>(buckets) / ((m > 2 ? max2 : max1) - low_);
    if (!std::isfinite(scale_)) {
      scale_ = 0.0;
    }
    // Counting sort by bucket. window_[k + 1] first counts bucket k, then
    // (prefix sums) holds the end of bucket k; the backward scatter moves
    // it down to bucket k's start, the first rank in bucket k or above,
    // which is bucket k + 1's window. Scattering backwards keeps each
    // bucket in column order.
    bucket_of_.resize(m);
    window_.assign(buckets + 1, 0);
    for (size_t j = 0; j < m; ++j) {
      bucket_of_[j] = static_cast<uint16_t>(Bucket(q[j]));
      ++window_[bucket_of_[j] + 1];
    }
    for (size_t k = 1; k <= buckets; ++k) {
      window_[k] = static_cast<uint16_t>(window_[k] + window_[k - 1]);
    }
    ranked_.resize(m);
    for (size_t j = m; j-- > 0;) {
      ranked_[--window_[bucket_of_[j] + 1]] = {q[j], static_cast<uint32_t>(j)};
    }
    SortWithinBuckets();
    // Both predicates are false at -inf and true at +inf, so these
    // sentinels let a window start below rank 0 or run past the last.
    values_.assign(m + 1 + kWindow, kInf);
    values_[0] = -kInf;
    below_.assign((m + 1) * words_, 0);
    for (size_t r = 0; r < m; ++r) {
      values_[r + 1] = ranked_[r].first;
      uint64_t* next = below_.data() + (r + 1) * words_;
      std::copy(next - words_, next, next);
      next[ranked_[r].second / 64] |= uint64_t{1} << (ranked_[r].second % 64);
    }
  }

  // The table, for tests: the column values ascending, below(r) for ranks
  // r = 0 .. m, and bucket k's window (the first rank in bucket k - 1 or
  // above) for k = 0 .. 4 m - 1.
  double value(size_t r) const { return values_[r + 1]; }
  const uint64_t* below(size_t r) const {
    return below_.data() + r * words_;
  }
  size_t window(size_t k) const { return window_[k]; }

  // Row s_i's allowed mask is below(hi)[w] & ~below(lo)[w] for each word w
  // of the columns; t >= 0.
  template <StepCost kStep>
  void Row(double s_i, double t, const uint64_t** below_lo,
           const uint64_t** below_hi) const {
    size_t lo = 0;
    size_t hi = 0;
    if constexpr (kStep == StepCost::kAbsolute) {
      lo = Find(s_i - t, [&](double v) { return s_i - v <= t; });
      hi = Find(s_i + t, [&](double v) { return s_i - v < -t; });
    } else {
      // `|` and `&` rather than `||` and `&&`: no branch per compare.
      const double r = std::sqrt(t);
      lo = Find(s_i - r, [&](double v) {
        const double d = s_i - v;
        return (d <= 0.0) | (d * d <= t);
      });
      hi = Find(s_i + r, [&](double v) {
        const double d = s_i - v;
        return (d < 0.0) & (d * d > t);
      });
    }
    *below_lo = below_.data() + lo * words_;
    *below_hi = below_.data() + hi * words_;
  }

 private:
  static constexpr size_t kWindow = 4;
  static constexpr size_t kMaxInsertionMoves = 8;
  static_assert(4 * kMaxRankedColumns <= UINT16_MAX);

  // Sorts ranked_, ordered by bucket, by (value, column): an insertion
  // sort, which moves entries only within their bucket, or std::sort
  // once it has moved more than kMaxInsertionMoves entries per column.
  void SortWithinBuckets() {
    const size_t m = ranked_.size();
    size_t moves = 0;
    for (size_t r = 1; r < m; ++r) {
      const std::pair<double, uint32_t> entry = ranked_[r];
      size_t k = r;
      for (; k > 0 && entry < ranked_[k - 1]; --k) {
        ranked_[k] = ranked_[k - 1];
      }
      ranked_[k] = entry;
      moves += r - k;
      if (moves > kMaxInsertionMoves * m) {
        std::sort(ranked_.begin(), ranked_.end());
        return;
      }
    }
  }

  // The bucket of x: floor((x - low) * scale) clamped to the buckets. It
  // is non-decreasing in x, and Assign and Row compute it alike. A NaN
  // (an infinite x times a zero scale) lands in bucket 0.
  size_t Bucket(double x) const {
    double y = (x - low_) * scale_;
    y = y > 0.0 ? y : 0.0;
    y = y < last_bucket_ ? y : last_bucket_;
    return static_cast<size_t>(y);
  }

  // The first rank whose value satisfies `pred` (false, then true over
  // the ranks), or the count of values when none does; `near` is where
  // the values cross from false to true, up to rounding.
  template <typename Pred>
  size_t Find(double near, Pred pred) const {
    const size_t first = window_[Bucket(near)];
    const double* v = values_.data() + first;  // v[j]: rank first - 1 + j
    size_t below = 0;
    for (size_t j = 1; j < kWindow; ++j) {
      below += pred(v[j]) ? 0 : 1;
    }
    if (!pred(v[0]) && pred(v[kWindow])) {
      return first + below;
    }
    return FirstTrue(pred);
  }

  // Find over all ranks, branch-free.
  template <typename Pred>
  size_t FirstTrue(Pred pred) const {
    const size_t count = count_;
    const double* v = values_.data() + 1;
    size_t first = 0;
    for (size_t step = std::bit_floor(count); step > 0; step >>= 1) {
      first = first + step <= count && !pred(v[first + step - 1])
                  ? first + step
                  : first;
    }
    return first;
  }

  size_t count_ = 0;  // m
  size_t words_ = 0;
  // Build space: each column's bucket, the columns in rank order.
  std::vector<uint16_t> bucket_of_;
  std::vector<std::pair<double, uint32_t>> ranked_;
  // -inf, the column values ascending, then kWindow copies of +inf.
  std::vector<double> values_;
  std::vector<uint64_t> below_;  // below(r) at r * words_, r = 0 .. count
  double low_ = 0.0;             // the bucket span's lower end
  double scale_ = 0.0;           // buckets per unit of value
  double last_bucket_ = 0.0;
  // Per bucket k, the first rank in bucket k - 1 or above (0 for k = 0).
  std::vector<uint16_t> window_;
};

}  // namespace warpindex

#endif  // WARPINDEX_DTW_ALLOWED_MASK_H_
