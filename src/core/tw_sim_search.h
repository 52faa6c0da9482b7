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

#ifndef WARPINDEX_CORE_TW_SIM_SEARCH_H_
#define WARPINDEX_CORE_TW_SIM_SEARCH_H_

#include "core/feature_index.h"
#include "core/search_method.h"
#include "dtw/dtw.h"
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
  // counters.
  //
  // `lb_cascade` inserts the O(n) LB_Yi bound between the feature filter
  // and the exact DTW in Step-6 — D_tw-lb <= LB_Yi <= D_tw, so a
  // candidate failing LB_Yi needs no DP at all. (The cascade idea later
  // became standard practice, e.g. in the UCR suite.) Answers are
  // unchanged; only dtw_cells drop.
  TwSimSearch(const FeatureIndex* index, const SequenceStore* store,
              DtwOptions dtw_options,
              const BufferPool* index_pool = nullptr,
              bool lb_cascade = false)
      : index_(index), store_(store), dtw_(dtw_options),
        index_pool_(index_pool), lb_cascade_(lb_cascade) {}

  const char* name() const override { return "TW-Sim-Search"; }

  // Algorithm 1 Steps 1-5 on their own: feature extraction, index range
  // query, and candidate fetch, with I/O and node costs accounted into
  // `result` (stages rtree_search + candidate_fetch). Returns the fetched
  // candidate sequences in index-return order, as pointers into the
  // store (valid until the engine's next mutator). The concurrent
  // executor uses this to run the remaining post-filter step in parallel
  // chunks; SearchImpl composes it with the post-filter for the
  // sequential path.
  std::vector<const Sequence*> FilterAndFetch(const Sequence& query,
                                              double epsilon,
                                              SearchResult* result,
                                              Trace* trace) const;

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  const FeatureIndex* index_;
  const SequenceStore* store_;
  Dtw dtw_;
  const BufferPool* index_pool_;
  bool lb_cascade_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_TW_SIM_SEARCH_H_
