// EngineLike: the query-serving surface shared by the single-index
// Engine (core/engine.h) and the partitioned ShardedEngine
// (shard/sharded_engine.h).
//
// The concurrent executor (exec/query_executor.h) serves through this
// interface, so a thread pool built for one engine shape serves the
// other unchanged: Submit/SubmitBatch only ever need "run this method at
// this tolerance" plus the metrics registry the serving layer records
// into.
//
// Thread-safety contract: like Engine, every method here must be safe to
// call concurrently from any number of threads (implementations keep
// per-query state on the stack or in caller-supplied objects).

#ifndef WARPINDEX_CORE_ENGINE_LIKE_H_
#define WARPINDEX_CORE_ENGINE_LIKE_H_

#include "core/search_method.h"
#include "core/tw_knn_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sequence/sequence.h"

namespace warpindex {

enum class MethodKind;

class EngineLike {
 public:
  virtual ~EngineLike() = default;

  // Runs the selected range-query method; see Engine::SearchWith.
  virtual SearchResult SearchWith(MethodKind kind, const Sequence& query,
                                  double epsilon, Trace* trace = nullptr,
                                  DtwScratch* scratch = nullptr) const = 0;

  // Exact k-nearest-neighbor search under D_tw: SearchKnnSeeded with no
  // seed.
  KnnResult SearchKnn(const Sequence& query, size_t k,
                      Trace* trace = nullptr) const {
    return SearchKnnSeeded(query, k, kInfiniteDistance, trace);
  }

  // Exact k-NN pre-seeded with an upper bound on the true k-th distance
  // (the semantic cache supplies the exact k-th distance of a stored
  // range answer; kInfiniteDistance seeds nothing). Engines prune
  // strictly ABOVE the bound, so ties survive and the answer is identical
  // to SearchKnn — only cheaper. An engine may ignore the seed.
  virtual KnnResult SearchKnnSeeded(const Sequence& query, size_t k,
                                    double seed_bound,
                                    Trace* trace = nullptr) const = 0;

  // The registry per-query metrics land in.
  virtual MetricsRegistry& metrics() const = 0;

  // The DTW configuration answers are computed under — part of the
  // semantic cache key (the paper's base distance and warp width).
  virtual DtwOptions dtw_options() const { return DtwOptions(); }

  // Simulated elapsed time of a query under the disk model.
  virtual double ElapsedMillis(const SearchCost& cost) const = 0;

  // Monotonic counter that advances whenever the VISIBLE data changes —
  // every insert, delete, and compaction swap (not just epoch bumps:
  // buffered delta writes change answers without an epoch change).
  // Static build-then-serve engines never change, so they stay at 0
  // forever. The semantic cache tags each entry with the version it
  // answered under and treats any advance as a global invalidation;
  // per-partition invalidation would be unsound, because a new insert
  // can extend a partition's feature MBR past what an old query's
  // pruning assumed.
  virtual uint64_t DataVersion() const { return 0; }
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_ENGINE_LIKE_H_
