// LB_Improved: Lemire's two-pass refinement of LB_Keogh (arXiv:0811.3301),
// adapted to the three base-distance models.
//
// Pass 1 is plain LB_Keogh of S against Q's envelope, but it also records
// the projection h of S onto that envelope (h_i = S_i clamped into
// [L_i, U_i]). Pass 2 adds the cost forced onto Q by h's envelope:
//
//   * sum-combined (L1/L2):  LB = keogh(S, Env(Q)) + keogh(Q, Env(h))
//   * max-combined (L_inf):  LB = max of the two parts
//
// Validity (sum case, Lemire Prop. 2 generalised): for any warping path,
// each step cost(S_i, Q_j) with |i - j| <= r splits as
// cost >= cost(S_i, h_i) + cost(h_i, Q_j) when S_i is outside the window
// (the clamp puts h_i between S_i and Q_j; for squared costs the cross
// term 2(S_i - h_i)(h_i - Q_j) is non-negative), and cost >= cost(h_i, Q_j)
// when inside (h_i = S_i). Charging the first part per-i recovers pass 1
// and the second part is >= LB_Keogh(Q, Env(h)) because h_i lies in Q_j's
// radius-r window. In the max case the same per-step inequality
// cost(S_i, Q_j) >= max(cost(S_i, h_i), cost(h_i, Q_j)) holds (|S_i - Q_j|
// >= |S_i - h_i| and >= |h_i - Q_j| whenever Q_j is inside S_i's window),
// so the path max dominates both parts.
//
// Pass 2 needs Env(h), the radius-r window min/max of h. It is streamed
// (dtw/lb_keogh.h's ForEachWindowExtremes) inside the pass instead of being
// built as an envelope first, so pass 2 can stop early too: both passes
// abandon once the bound is known to exceed `abandon_above` (the
// monotone-accumulator argument of lb_keogh.h; in pass 2 the value
// checked is part1 + partial part2, or their max).
//
// Always >= LB_Keogh (it adds a non-negative second pass), still O(n), and
// in practice prunes a large fraction of the candidates LB_Keogh lets
// through. Measured cost of the full bound (no threshold, no scratch) in
// perfbench's kernel replay on ingest-cascade pairs (256-point walks,
// 25-point band, L_inf, one x86-64 vCPU), two sessions: 50.3 and
// 54.9 ns/elem against LB_Keogh's 5.5 and 9.6, about 6-9x. A plan never
// runs LB_Keogh ahead of it: pass 1 is LB_Keogh with the same early stop,
// so the default banded plan is LB_Improved alone (DefaultCascadePlan,
// plan/filter_cascade.h).

#ifndef WARPINDEX_DTW_LB_IMPROVED_H_
#define WARPINDEX_DTW_LB_IMPROVED_H_

#include "dtw/base_distance.h"
#include "dtw/lb_keogh.h"
#include "sequence/sequence.h"

namespace warpindex {

// Lower-bounds Dtw(options).Distance(s, q); always >= the LbKeogh of the
// same arguments. `q_env` as for LbKeogh (rebuilt when too narrow for the
// pair). Same domain as Dtw::Distance (sqrt for L2). `abandon_above` and
// `scratch` as for LbKeogh; without a scratch each call allocates h and
// the filter's index storage.
double LbImproved(const Sequence& s, const Sequence& q,
                  const BandEnvelope& q_env, const DtwOptions& options,
                  double abandon_above = kInfiniteDistance,
                  LbScratch* scratch = nullptr);

}  // namespace warpindex

#endif  // WARPINDEX_DTW_LB_IMPROVED_H_
