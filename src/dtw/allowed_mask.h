// Allowed-cell bit masks for the L_inf decision pre-pass (dtw/dtw.cc).
//
// Under the max combiner, D_tw(S, Q) <= t holds exactly when a monotone
// path from (0, 0) to (n-1, m-1) visits only cells whose step cost is
// <= t. The pre-pass walks that reachability one DP row at a time as a
// bitset; these helpers build one 64-column word of a row's "allowed"
// mask: bit b is set iff ElementCost(s_i, q[b], step) <= t.
//
// Three builders produce identical words. ColumnRanks (below) is the one
// the pre-pass uses for rows of up to kMaxRankedColumns columns: two
// binary searches per row instead of a compare per column. Longer rows
// use the per-column builders: an SSE2 one (the x86-64 baseline,
// compiled under __SSE2__) and a portable scalar one, which is the
// fallback everywhere else and the reference the other two are tested
// against.

#ifndef WARPINDEX_DTW_ALLOWED_MASK_H_
#define WARPINDEX_DTW_ALLOWED_MASK_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
// bits, m^2 / 8 bytes (128 KiB at this length).
inline constexpr size_t kMaxRankedColumns = 1024;

// Row masks from the columns' value order. For a fixed s_i, d = s_i - q[j]
// is non-increasing in q[j] (rounding is monotone) and the step cost is
// non-decreasing in |d|, so with the values of q sorted ascending the
// allowed columns are exactly the ranks [lo, hi):
//   lo = the first rank where d <= 0 or cost <= t   (false, then true)
//   hi = the first rank where d < 0 and cost > t    (false, then true)
// and the row's mask is below(hi) & ~below(lo), where below(r) holds the
// columns of the ranks under r. Besides costing fewer instructions per
// row, the searches run at a steadier speed than the per-column compares:
// on a shared 4-vCPU VM under varying host load, identical blocks of the
// SSE2 compares took up to 2.4x as long as the fastest block (about 1.2x
// for the DP), which made whole benchmark runs of a compare-bound
// workload spread 15-30%.
//
// One table serves every row of every evaluation against the same
// columns: Assign rebuilds it only when they change.
class ColumnRanks {
 public:
  // Holds the table for columns q[0 .. m), 0 < m <= kMaxRankedColumns;
  // rebuilds it unless it already holds exactly these values.
  void Assign(const double* q, size_t m) {
    if (key_.size() == m &&
        std::memcmp(key_.data(), q, m * sizeof(double)) == 0) {
      return;
    }
    key_.assign(q, q + m);
    words_ = (m + 63) / 64;
    ranked_.resize(m);
    for (size_t j = 0; j < m; ++j) {
      ranked_[j] = {q[j], static_cast<uint32_t>(j)};
    }
    std::sort(ranked_.begin(), ranked_.end());
    sorted_.resize(m);
    below_.assign((m + 1) * words_, 0);
    for (size_t r = 0; r < m; ++r) {
      sorted_[r] = ranked_[r].first;
      uint64_t* next = below_.data() + (r + 1) * words_;
      std::copy(next - words_, next, next);
      next[ranked_[r].second / 64] |= uint64_t{1} << (ranked_[r].second % 64);
    }
  }

  // Row s_i's allowed mask is below(hi)[w] & ~below(lo)[w] for each word w
  // of the columns; t >= 0.
  template <StepCost kStep>
  void Row(double s_i, double t, const uint64_t** below_lo,
           const uint64_t** below_hi) const {
    const size_t lo = FirstTrue([&](double v) {
      return s_i - v <= 0.0 || ElementCost(s_i, v, kStep) <= t;
    });
    const size_t hi = FirstTrue([&](double v) {
      return s_i - v < 0.0 && ElementCost(s_i, v, kStep) > t;
    });
    *below_lo = below_.data() + lo * words_;
    *below_hi = below_.data() + hi * words_;
  }

 private:
  // The first rank whose value satisfies `pred` (false, then true over
  // the ranks), or the count of values when none does. Branch-free.
  template <typename Pred>
  size_t FirstTrue(Pred pred) const {
    const size_t count = sorted_.size();
    size_t first = 0;
    for (size_t step = std::bit_floor(count); step > 0; step >>= 1) {
      first = first + step <= count && !pred(sorted_[first + step - 1])
                  ? first + step
                  : first;
    }
    return first;
  }

  std::vector<double> key_;      // the columns the table was built for
  size_t words_ = 0;
  std::vector<std::pair<double, uint32_t>> ranked_;  // build space
  std::vector<double> sorted_;   // the column values, ascending
  std::vector<uint64_t> below_;  // below(r) at r * words_, r = 0 .. count
};

}  // namespace warpindex

#endif  // WARPINDEX_DTW_ALLOWED_MASK_H_
