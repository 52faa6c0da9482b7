// FilterCascade: an ordered pipeline of progressively tighter,
// progressively costlier DTW lower bounds, run over a candidate list
// before the exact-DTW post-filter.
//
// Stage contracts (the no-false-dismissal argument):
//
//   feature_lb   D_tw-lb over the 4-tuple feature (paper Def. 3)
//   lb_yi        global-envelope bound (Yi et al.)
//   lb_keogh     per-position banded envelope bound (dtw/lb_keogh.h)
//   lb_improved  Lemire's two-pass refinement (dtw/lb_improved.h)
//   dtw          exact early-abandoning D_tw (always last, implicit)
//
// Every lower-bound stage L satisfies L(S, Q) <= D_tw(S, Q) for the
// configured DtwOptions (each proved in its own header; all three base
// distances). A stage eliminates a candidate only when its bound already
// EXCEEDS epsilon — ties (bound == epsilon) are kept, matching
// Algorithm 1's `<= epsilon` acceptance — so every true match reaches
// the exact stage and the final answer set is bit-identical to running
// exact DTW on the unfiltered list, for every plan. Only the amount of
// DP work varies.
//
// Each stage records candidates-in / pruned into SearchCost::prunes and
// its elapsed time into SearchCost::stages (names shared with traces and
// metrics).
//
// The exact stage (RunExactStage) is the one post-filter of every range
// method: TW-Sim-Search with or without a planned cascade
// (core/tw_sim_search.h), ST-Filter (core/st_filter_search.h) and the
// Naive-Scan and LB-Scan baselines (core/scan_search.h) all end with it.

#ifndef WARPINDEX_PLAN_FILTER_CASCADE_H_
#define WARPINDEX_PLAN_FILTER_CASCADE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/search_method.h"
#include "dtw/base_distance.h"
#include "dtw/dtw.h"
#include "dtw/lb_keogh.h"
#include "obs/trace.h"
#include "sequence/sequence.h"

namespace warpindex {

// The lower-bound stages a plan may run, in canonical cheapest-to-
// tightest order. The exact-DTW stage is implicit and always last.
enum class CascadeStage {
  kFeatureLb = 0,
  kLbYi = 1,
  kLbKeogh = 2,
  kLbImproved = 3,
};

inline constexpr size_t kNumCascadeStages = 4;

// Canonical stage name, shared across timings, prune counters, trace
// spans, and metrics (the kStage*Cascade constants).
std::string_view CascadeStageName(CascadeStage stage);

// An ordered subset of lower-bound stages to run before exact DTW.
struct CascadePlan {
  std::vector<CascadeStage> stages;

  // All four bounds in canonical order — the full cascade.
  static CascadePlan Full();
  // No lower-bound stage at all: the paper's Algorithm 1 (index filter
  // then exact DTW).
  static CascadePlan Paper() { return CascadePlan{}; }

  // "feature_lb_cascade > lb_keogh_cascade > dtw" (always ends in dtw).
  std::string ToString() const;
};

// True when `stage`'s bound never exceeds D_tw-lb for `options`, so it
// cannot prune a candidate that passed the index predicate (the
// dominance table in docs/PLANNER.md).
bool StageDominated(CascadeStage stage, const DtwOptions& options);

// The plan TW-Sim-Search-Cascade runs unless EngineOptions::cascade_plan
// fixes one, read off `options` alone:
//
//   L_inf, no band   {}             every stage is dominated
//   any band >= 0    {lb_improved}  its pass 1 is LB_Keogh, with the same
//                                   early stop; LB_Yi's one-sided term is
//                                   <= LB_Keogh's element by element
//   L1/L2, no band   {lb_yi}        LB_Keogh is LB_Yi's first term, and
//                                   LB_Improved's pass 2 costs more than
//                                   the DP it saves
//
// feature_lb is dominated under every model (it is the index predicate).
CascadePlan DefaultCascadePlan(const DtwOptions& options);

// The exact stage (Algorithm 1 Steps 4-7): thresholded D_tw over
// `candidates` on the calling thread, keeping those within epsilon.
// Matches and their distances append to `result` in candidate order.
// dtw_evals, dtw_cells, the dtw_postfilter span, stage wall and CPU time
// and the prune record accumulate into result->cost. `trace` and
// `scratch` are optional.
void RunExactStage(const Dtw& dtw, const Sequence& query, double epsilon,
                   const std::vector<const Sequence*>& candidates,
                   SearchResult* result, Trace* trace, DtwScratch* scratch);

class FilterCascade {
 public:
  explicit FilterCascade(DtwOptions options)
      : options_(options), dtw_(options) {}

  const DtwOptions& options() const { return options_; }
  const Dtw& dtw() const { return dtw_; }

  // Runs `plan`'s lower-bound stages over `candidates` (borrowed
  // sequences), pruning the list in place and leaving the exact-DTW stage
  // to the caller (RunExactStage). Stage timings, prune counters and lb
  // eval counts accumulate into result->cost; `trace` is optional.
  // LB_Keogh and LB_Improved share one LbScratch per call, and the three
  // envelope bounds stop early once they exceed epsilon.
  void RunLbStages(const Sequence& query, double epsilon,
                   std::vector<const Sequence*>* candidates,
                   const CascadePlan& plan, SearchResult* result,
                   Trace* trace) const;

 private:
  DtwOptions options_;
  Dtw dtw_;
};

}  // namespace warpindex

#endif  // WARPINDEX_PLAN_FILTER_CASCADE_H_
