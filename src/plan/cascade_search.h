// TW-Sim-Search-Cascade: Algorithm 1's index filter + candidate fetch,
// followed by a planned FilterCascade instead of going straight to exact
// DTW. Same answers as TwSimSearch for every plan (each stage is a valid
// lower bound and ties at epsilon are kept — see filter_cascade.h);
// strictly fewer exact-DTW evaluations whenever any bound fires.

#ifndef WARPINDEX_PLAN_CASCADE_SEARCH_H_
#define WARPINDEX_PLAN_CASCADE_SEARCH_H_

#include <vector>

#include "core/search_method.h"
#include "core/tw_sim_search.h"
#include "plan/cascade_planner.h"
#include "plan/filter_cascade.h"

namespace warpindex {

class TwSimSearchCascade : public SearchMethod {
 public:
  // `base` (borrowed, must outlive this object) supplies Algorithm 1
  // Steps 1-5 (feature extraction, index range query, candidate fetch)
  // with its I/O accounting; `dtw_options` must match the base's so every
  // bound lower-bounds the same distance.
  TwSimSearchCascade(const TwSimSearch* base, DtwOptions dtw_options,
                     CascadePlannerOptions planner_options = {})
      : base_(base), cascade_(dtw_options), planner_(planner_options) {}

  const char* name() const override { return "TW-Sim-Search-Cascade"; }

  // Steps 1-5 plus the planned lower-bound stages: returns the surviving
  // candidates, leaving the exact-DTW stage to the caller (the executor
  // fans it out in parallel chunks). The caller finishes the query by
  // filling `obs->dtw` and passing `obs` to ObserveOutcome() so the
  // planner's cost model keeps learning.
  std::vector<const Sequence*> FilterFetchAndPrune(
      const Sequence& query, double epsilon, SearchResult* result,
      Trace* trace, CascadeObservation* obs) const;

  // Feeds one executed query's observations back into the planner.
  void ObserveOutcome(const CascadeObservation& obs) const {
    planner_.Observe(obs);
  }

  const FilterCascade& cascade() const { return cascade_; }
  const CascadePlanner& planner() const { return planner_; }

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  const TwSimSearch* base_;
  FilterCascade cascade_;
  // The planner accumulates cost-model state across const queries; it is
  // internally synchronized (see cascade_planner.h).
  mutable CascadePlanner planner_;
};

}  // namespace warpindex

#endif  // WARPINDEX_PLAN_CASCADE_SEARCH_H_
