// TW-Sim-Search: the paper's query processing algorithm (Algorithm 1).
//
//   Step-1  extract Feature(Q);
//   Step-2  square range query of radius epsilon on the 4-d feature index;
//   Step-3  candidate set := returned ids;
//   Step-4..7  for each candidate, read the sequence from the store and
//              keep it iff D_tw(S, Q) <= epsilon.
//
// Guarantees: no false dismissal (Theorem 1 + Corollary 1); the index
// range predicate equals "D_tw-lb <= epsilon", and D_tw-lb lower-bounds
// D_tw.
//
// With a CascadePlan the same class is TW-Sim-Search-Cascade: the plan's
// lower-bound stages (plan/filter_cascade.h) run between the fetch and
// the exact stage. Same answers for every plan (each stage is a valid
// lower bound and ties at epsilon are kept); fewer exact-DTW evaluations
// whenever a bound fires. Without one the plan is the paper's: fetch,
// then exact DTW.

#ifndef WARPINDEX_CORE_TW_SIM_SEARCH_H_
#define WARPINDEX_CORE_TW_SIM_SEARCH_H_

#include <optional>
#include <vector>

#include "core/feature_index.h"
#include "core/search_method.h"
#include "dtw/dtw.h"
#include "plan/filter_cascade.h"
#include "storage/buffer_pool.h"
#include "storage/sequence_store.h"

namespace warpindex {

class TwSimSearch : public SearchMethod {
 public:
  // `index` and `store` must outlive this object. `index_pool` (optional,
  // borrowed) caches index pages across queries: hot pages (the root and
  // upper levels) stop paying random reads. The pool is itself
  // thread-safe (lock-striped shards, see storage/buffer_pool.h), so
  // Search stays safe to call from many threads even with a pool —
  // per-query hit/miss attribution lands in SearchCost, not on shared
  // counters. `plan` (optional) makes this TW-Sim-Search-Cascade.
  TwSimSearch(const FeatureIndex* index, const SequenceStore* store,
              DtwOptions dtw_options,
              const BufferPool* index_pool = nullptr,
              std::optional<CascadePlan> plan = std::nullopt);

  const char* name() const override {
    return plan_.has_value() ? "TW-Sim-Search-Cascade" : "TW-Sim-Search";
  }

  // Algorithm 1's refine half over `candidates` (borrowed sequences;
  // the list is consumed): the plan's lower-bound stages, then
  // RunExactStage. Matches report the
  // candidates' own ids and append to `result` with their distances;
  // stage costs and prune records accumulate into result->cost. Search
  // runs it on the index's candidates; IngestEngine runs it on buffered
  // rows selected by the same D_tw-lb <= epsilon predicate.
  void Refine(const Sequence& query, double epsilon,
              std::vector<const Sequence*> candidates, SearchResult* result,
              Trace* trace, DtwScratch* scratch) const;

  // The lower-bound stages every query runs; none for the paper's plan.
  const std::optional<CascadePlan>& plan() const { return plan_; }

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  // Algorithm 1 Steps 1-5: feature extraction, index range query, and
  // candidate fetch, with I/O and node costs accounted into `result`
  // (stages rtree_search + candidate_fetch). Returns the fetched
  // sequences in index-return order, as pointers into the store.
  std::vector<const Sequence*> FilterAndFetch(const Sequence& query,
                                              double epsilon,
                                              SearchResult* result,
                                              Trace* trace) const;

  const FeatureIndex* index_;
  const SequenceStore* store_;
  FilterCascade cascade_;
  const BufferPool* index_pool_;
  std::optional<CascadePlan> plan_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_TW_SIM_SEARCH_H_
