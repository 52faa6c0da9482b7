// Sequence transformations from the similarity-search literature the paper
// builds on (§1): shifting, scaling, normalization [9,12,16], and moving
// average [17,21]. Real corpora are usually preprocessed with one of these
// before warping-distance search (e.g. z-normalized stock returns), so the
// library ships them as first-class utilities.
//
// Each transform writes its result to `out` and returns OK, or returns
// InvalidArgument and leaves `out` untouched. Finite input can overflow:
// Scale(<1e300, -1e300>, 1e10) or Shift(<DBL_MAX>, 1e300). A result holding
// a non-finite element is refused, never returned, so what reaches the
// index and the kernels keeps the Sequence input contract (every element
// finite) in release builds too, where Sequence's own check is compiled
// out. The message names the first such element.

#ifndef WARPINDEX_SEQUENCE_TRANSFORMS_H_
#define WARPINDEX_SEQUENCE_TRANSFORMS_H_

#include <cstddef>

#include "common/status.h"
#include "sequence/sequence.h"

namespace warpindex {

// S + c: adds `offset` to every element.
Status Shift(const Sequence& s, double offset, Sequence* out);

// S * c: multiplies every element by `factor`.
Status Scale(const Sequence& s, double factor, Sequence* out);

// (S - mean(S)) / std(S). A constant sequence (std == 0) maps to all
// zeros. InvalidArgument for an empty sequence, and when the mean or the
// standard deviation overflows (elements beyond about 1e154).
Status ZNormalize(const Sequence& s, Sequence* out);

// Min-max normalization into [0, 1]. A constant sequence maps to all
// zeros. InvalidArgument for an empty sequence.
Status MinMaxNormalize(const Sequence& s, Sequence* out);

// Simple moving average with the given window. Output has length
// |S| - window + 1; InvalidArgument unless 1 <= window <= |S|.
Status MovingAverage(const Sequence& s, size_t window, Sequence* out);

// First differences: <s_2 - s_1, ..., s_n - s_{n-1}>. Output has length
// |S| - 1; InvalidArgument unless |S| >= 2. (Price series are often
// differenced before similarity search.)
Status Difference(const Sequence& s, Sequence* out);

}  // namespace warpindex

#endif  // WARPINDEX_SEQUENCE_TRANSFORMS_H_
