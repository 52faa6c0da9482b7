// Exact k-nearest-neighbor search under the time-warping distance.
//
// The paper observes that "most users are interested in just a few
// answers" (§5.2) but only formalizes range queries. kNN is the natural
// companion, and the paper's machinery supports it exactly: because
// D_tw-lb lower-bounds D_tw and is the L_inf metric over feature tuples,
// enumerating records in increasing L_inf feature distance (the R-tree's
// incremental nearest iterator) enumerates them in non-decreasing
// lower-bound order. The classical optimal filter-and-refine loop
// (Hjaltason & Samet / Seidl & Kriegel) then gives exact kNN:
//
//   while next candidate's lower bound <= current k-th exact distance:
//     refine with exact (thresholded) D_tw and update the top-k heap.
//
// No false dismissal for the same reason as Algorithm 1 (Theorem 1).
//
// Determinism: ties at equal D_tw are broken by SequenceId (smaller id
// wins), so the answer — including WHICH sequences fill the k-th place
// when several tie there — is a pure function of the database and query,
// independent of heap insertion order, thread count, or shard count.
//
// Sharded search: a SharedKnnBound carries the best k-th distance any
// concurrent searcher has proven so far. Each per-shard search publishes
// its local k-th distance into the bound and prunes against the tightest
// value it sees; pruning is strictly-greater-than so distance ties at the
// bound survive for the id tie-break, keeping the K-shard merge
// bit-identical to a single-engine search (see docs/SHARDING.md).

#ifndef WARPINDEX_CORE_TW_KNN_SEARCH_H_
#define WARPINDEX_CORE_TW_KNN_SEARCH_H_

#include <atomic>
#include <vector>

#include "core/feature_index.h"
#include "core/search_method.h"
#include "dtw/dtw.h"
#include "storage/sequence_store.h"

namespace warpindex {

struct KnnMatch {
  SequenceId id = kInvalidSequenceId;
  double distance = 0.0;  // exact D_tw

  friend bool operator==(const KnnMatch& a, const KnnMatch& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

// The canonical neighbor order: by distance, ties by id. A KnnResult's
// neighbors are sorted by this everywhere (single engine and shard
// merge), which is what makes answers reproducible run to run.
inline bool KnnMatchOrder(const KnnMatch& a, const KnnMatch& b) {
  if (a.distance != b.distance) {
    return a.distance < b.distance;
  }
  return a.id < b.id;
}

struct KnnResult {
  // The k nearest sequences in non-decreasing D_tw order, equal
  // distances in increasing id order (fewer than k if the database is
  // smaller than k).
  std::vector<KnnMatch> neighbors;
  // Candidates refined with exact D_tw before the cutoff fired (each
  // counted once; cost.dtw_evals counts every DP run, re-tests included).
  size_t num_refined = 0;
  SearchCost cost;
};

// A monotonically tightening distance bound shared by concurrent kNN
// searchers over disjoint partitions of one database. Any published
// value is some searcher's proven local k-th distance, which upper-
// bounds the global k-th distance — so every reader may discard
// candidates whose distance (or lower bound) strictly exceeds
// Current(). Ties at the bound must be kept (id tie-break decides them).
//
// Thread-safety: Tighten/Current may race freely; the bound only ever
// decreases. A stale read is merely a looser (still correct) bound.
class SharedKnnBound {
 public:
  double Current() const { return bound_.load(std::memory_order_relaxed); }

  // Lowers the bound to `d` if tighter.
  void Tighten(double d) {
    double seen = bound_.load(std::memory_order_relaxed);
    while (d < seen && !bound_.compare_exchange_weak(
                           seen, d, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> bound_{kInfiniteDistance};
};

// A candidate handed to TwKnnSearch::Refine: a lower bound (>= 0) on its
// exact D_tw to the query and the sequence, whose id() the answer reports.
struct KnnCandidate {
  double lower_bound = 0.0;
  const Sequence* sequence = nullptr;
};

class TwKnnSearch {
 public:
  // `index` and `store` must outlive this object.
  TwKnnSearch(const FeatureIndex* index, const SequenceStore* store,
              DtwOptions dtw_options)
      : index_(index), store_(store), dtw_(dtw_options) {}

  // Exact kNN of `query` under D_tw. Requires a non-empty query, k >= 1.
  // When a trace is attached, the filter-and-refine loop is recorded as
  // a `knn_refine` span with per-stage breakdown in the returned cost.
  //
  // `shared_bound` (optional) tightens the refine threshold with the
  // best k-th distance concurrent searchers over OTHER partitions of the
  // same logical database have proven; this search publishes its own
  // k-th distance back. With a foreign bound active the LOCAL result may
  // legitimately omit candidates that cannot make the GLOBAL top-k, so
  // only the cross-partition merge of every searcher's neighbors is a
  // complete answer (see shard/sharded_engine.h).
  KnnResult Search(const Sequence& query, size_t k, Trace* trace = nullptr,
                   SharedKnnBound* shared_bound = nullptr) const;

  // The same filter-and-refine loop over `candidates` instead of the
  // index: they are sorted by (lower bound, id) here and refined in that
  // order, with the cutoff break, the decision-first fill and the
  // `shared_bound` contract of Search. IngestEngine feeds its buffered
  // rows through it. The candidates' sequences must outlive the call.
  KnnResult Refine(const Sequence& query, size_t k,
                   std::vector<KnnCandidate> candidates, Trace* trace,
                   SharedKnnBound* shared_bound) const;

 private:
  const FeatureIndex* index_;
  const SequenceStore* store_;
  Dtw dtw_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_TW_KNN_SEARCH_H_
