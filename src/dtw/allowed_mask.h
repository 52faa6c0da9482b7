// Allowed-cell bit masks for the L_inf decision pre-pass (dtw/dtw.cc).
//
// Under the max combiner, D_tw(S, Q) <= t holds exactly when a monotone
// path from (0, 0) to (n-1, m-1) visits only cells whose step cost is
// <= t. The pre-pass walks that reachability one DP row at a time as a
// bitset; these helpers build one 64-column word of a row's "allowed"
// mask: bit b is set iff ElementCost(s_i, q[b], step) <= t. A NaN cost
// compares false, so NaN cells are never allowed.
//
// Two builders produce identical words: an SSE2 one (the x86-64 baseline,
// compiled under __SSE2__) and a portable scalar one, which is the
// fallback everywhere else and the reference the SSE2 builder is tested
// against.

#ifndef WARPINDEX_DTW_ALLOWED_MASK_H_
#define WARPINDEX_DTW_ALLOWED_MASK_H_

#include <cstddef>
#include <cstdint>

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

}  // namespace warpindex

#endif  // WARPINDEX_DTW_ALLOWED_MASK_H_
