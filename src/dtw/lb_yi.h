// LB_Yi: the O(|S| + |Q|) lower bound of Yi, Jagadish & Faloutsos used by
// the LB-Scan baseline (paper §3.2, reference [25]).
//
// Intuition: under time warping, every element of S must map to *some*
// element of Q, hence to a value inside [Smallest(Q), Greatest(Q)]; the
// part of S sticking out of that envelope is unavoidable cost (and
// symmetrically for Q vs S's envelope).
//
//   * sum-combined (L1) variant (Yi et al.'s original):
//       LB = max( sum_i dist(s_i, [minQ, maxQ]),
//                 sum_j dist(q_j, [minS, maxS]) )
//   * max-combined (L_inf) variant (this paper's similarity model; used by
//     the modified LB-Scan of §5.1):
//       LB = max( max_i dist(s_i, [minQ, maxQ]),
//                 max_j dist(q_j, [minS, maxS]) )
//
// Both consistently lower-bound the corresponding D_tw (tested as a
// property in tests/lb_yi_test.cc).

#ifndef WARPINDEX_DTW_LB_YI_H_
#define WARPINDEX_DTW_LB_YI_H_

#include "dtw/base_distance.h"
#include "sequence/sequence.h"

namespace warpindex {

// Lower-bounds D_tw(S, Q) for the matching combiner. Requires non-empty
// sequences. O(|S| + |Q|) given nothing precomputed.
double LbYi(const Sequence& s, const Sequence& q, DtwCombiner combiner);

// Variant taking precomputed envelopes (Smallest/Greatest of each side);
// the cascade's lb_yi stage computes the query envelope once per query.
struct Envelope {
  double smallest = 0.0;
  double greatest = 0.0;
};

Envelope ComputeEnvelope(const Sequence& s);

double LbYiWithEnvelopes(const Sequence& s, const Envelope& s_env,
                         const Sequence& q, const Envelope& q_env,
                         DtwCombiner combiner);

// DtwOptions-aware variants: accumulate the configured step cost
// (|.| or (.)^2) and apply take_sqrt on exit, so the bound is valid for
// all three base-distance models and directly comparable to
// Dtw::Distance. The combiner-only overloads above are correct for the
// absolute step cost (L1 / L_inf) but NOT for the L2 convention — a sum
// of absolute interval distances does not lower-bound the sqrt of a sum
// of squares.
double LbYi(const Sequence& s, const Sequence& q, const DtwOptions& options);

double LbYiWithEnvelopes(const Sequence& s, const Envelope& s_env,
                         const Sequence& q, const Envelope& q_env,
                         const DtwOptions& options);

}  // namespace warpindex

#endif  // WARPINDEX_DTW_LB_YI_H_
