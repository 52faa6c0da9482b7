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
// Partitioned search: the refine loop does not care where its candidates
// come from, only that their lower bounds never decrease. The sharded
// and ingest shapes hand it one KnnCandidateStream that merges every
// partition's nearest iterator (and the buffered rows) by lower bound
// (shard/fanout.h), so a K-partition query refines the candidates one
// engine over the union would, in its order when no two lower bounds tie
// (Seidl & Kriegel, "Optimal Multi-Step k-Nearest Neighbor Search",
// SIGMOD 1998, applied across partitions). Each candidate carries the id
// the answer reports, which for a partition is its global id.

#ifndef WARPINDEX_CORE_TW_KNN_SEARCH_H_
#define WARPINDEX_CORE_TW_KNN_SEARCH_H_

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

// One candidate of the refine loop: a lower bound (>= 0) on its exact
// D_tw to the query, the id the answer reports (distance ties order by
// it), and where its stream finds the sequence.
struct KnnCandidate {
  double lower_bound = 0.0;
  SequenceId id = kInvalidSequenceId;
  size_t source = 0;
  int64_t record = -1;
};

// Candidates from somewhere other than the searcher's own index: the
// partitioned shapes' merged stream (shard/fanout.h).
class KnnCandidateStream {
 public:
  virtual ~KnnCandidateStream() = default;
  // The next candidate in non-decreasing lower-bound order; false when
  // exhausted.
  virtual bool Next(KnnCandidate* out) = 0;
  // The sequence of a candidate Next returned; the reference stays valid
  // for the stream's lifetime. Page reads land in `io`.
  virtual const Sequence& Fetch(const KnnCandidate& candidate, IoStats* io,
                                Trace* trace) = 0;
  // Index pages visited so far.
  virtual uint64_t nodes_accessed() const = 0;
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
  // `initial_cutoff` is a valid upper bound on the k-th distance (a
  // cache seed, or a router's wave bound; kInfiniteDistance for none).
  // Pruning is strictly above it, so ties survive and the answer is the
  // unseeded one; only the work shrinks.
  //
  // The candidates come from this searcher's index, or from
  // `candidates` when it is non-null.
  KnnResult Search(const Sequence& query, size_t k, double initial_cutoff,
                   KnnCandidateStream* candidates, Trace* trace) const;

 private:
  const FeatureIndex* index_;
  const SequenceStore* store_;
  Dtw dtw_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_TW_KNN_SEARCH_H_
