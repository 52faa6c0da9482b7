// The partition fan-out core: the one copy of the rule every composite
// serving shape (ShardedEngine, IngestEngine, ShardServer, Router)
// answers a query with.
//
//   1. Prune. A partition whose feature MBR lies strictly farther than
//      epsilon (L_inf MINDIST) from the query's feature point holds no
//      sequence with D_tw-lb <= epsilon, hence none with D_tw <= epsilon
//      (the paper's Theorem 1 lifted to the MBR; shard/partitioner.h).
//      Ties at epsilon keep the partition. Exact for every MethodKind.
//   2. Run. Algorithm 1 on every remaining partition, fanned out over
//      ScatterGather (RunFanOut).
//   3. Merge. Local ids remapped to global ids, ids in a sorted dead set
//      dropped, matches in canonical ascending-id order.
//
// kNN has no epsilon to prune with and no per-partition answers to
// merge: SearchPartitionsKnn runs ONE refine loop over one candidate
// stream that merges every partition's nearest iterator by lower bound,
// so the work of a query does not depend on how many partitions hold
// its rows.
//
// The module also owns the layer CPU rule (FanOutClock) and the shard-set
// builder and loader over BaseShard (shard/shard_view.h), so building,
// saving-format checks and live-MBR computation have one implementation.

#ifndef WARPINDEX_SHARD_FANOUT_H_
#define WARPINDEX_SHARD_FANOUT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "shard/partitioner.h"
#include "shard/shard_io.h"
#include "shard/shard_view.h"

namespace warpindex {

// ---- Pruning.

// Whether a partition bounded by `bounds` may hold a match within
// `epsilon` of the query's feature point (FeatureIndex::FeatureToPoint):
// a live MBR no farther than epsilon (ties kept).
inline bool PartitionMayMatch(const ShardFeatureBounds& bounds,
                              const Point& query_point, double epsilon) {
  return bounds.valid && bounds.mbr.MinDistLinf(query_point) <= epsilon;
}

// Ascending indices of the partitions PartitionMayMatch keeps. kNN has
// no epsilon to prune with up front: kInfiniteDistance keeps every
// partition with a live MBR.
std::vector<size_t> ActivePartitions(const std::vector<BaseShard>& shards,
                                     const Point& query_point,
                                     double epsilon);

// ---- The CPU rule.

// Wall and CPU accounting of one layer's query. The caller thread also
// runs fan-out tasks (ScatterGather has it participate) and the k-NN
// loop, and that CPU is already inside their costs, so a layer adds only
// its own share: max(0, caller CPU - CPU excluded as spent there).
class FanOutClock {
 public:
  // Caller-thread CPU already counted in some partial's cost.
  void ExcludeCpu(double ms) { excluded_cpu_ms_ += ms; }

  // Sets cost->wall_ms to the elapsed wall time (the critical path plus
  // this layer's overhead) and adds this layer's own CPU to cost->cpu_ms.
  void Stamp(SearchCost* cost) const;

 private:
  WallTimer wall_;
  ThreadCpuTimer cpu_;
  double excluded_cpu_ms_ = 0.0;
};

// ---- The fan-out runner.

// A per-partition task: `i` indexes `active`, `partition` is active[i],
// and `sub` (null when untraced) is the task's own child trace with its
// "shard" span open — the task adds its counters there.
using PartitionTask =
    std::function<void(size_t i, size_t partition, Trace* sub)>;

// Runs `task` once for every active partition on ScatterGather(pool)
// (inline on the caller when pool is null) inside one "scatter_gather"
// span carrying shard_fanout, shards_skipped and then `counters`.
// Tracing: a zero-duration "shard_skipped" marker per partition of
// [0, num_partitions) not in `active` (ascending); each task records into
// a child Trace from ContextForSpan, tagged (partition, worker + 1), under
// a "shard" span with a shard_index counter; the children are adopted in
// partition order after the barrier, so the tree shape does not depend on
// scheduling. The caller-thread CPU of the fan-out window goes to
// clock->ExcludeCpu.
void RunFanOut(
    ThreadPool* pool, size_t num_partitions, const std::vector<size_t>& active,
    Trace* trace,
    std::initializer_list<std::pair<std::string_view, double>> counters,
    FanOutClock* clock, const PartitionTask& task);

// ---- The merges.

// Whether `id` is in the sorted `dead` set (never when null).
inline bool IsDead(const std::vector<SequenceId>* dead, SequenceId id) {
  return dead != nullptr &&
         std::binary_search(dead->begin(), dead->end(), id);
}

// Rewrites a partition's answer from local to global ids through
// `global_of`, dropping ids in the sorted `dead` set (none when null).
void RemapToGlobal(const std::vector<SequenceId>& global_of,
                   const std::vector<SequenceId>* dead,
                   SearchResult* partial);

// Folds global-id partition answers into one: counts summed, costs merged
// with MergeParallel (work summed, wall = critical path), matches in the
// canonical ascending-id order.
SearchResult MergeRange(std::vector<SearchResult>* partials);

// Sorts `matches` in (distance, id) order and keeps the first k: the
// Router's merge of its remote groups' k-NN answers.
void KeepTopK(size_t k, std::vector<KnnMatch>* matches);

// ---- k-NN.

// A row offered to SearchPartitionsKnn beside the partitions' indexes
// (IngestEngine's buffered inserts): its D_tw-lb to the query on its
// feature tuple, its global id and its sequence.
struct BufferedKnnRow {
  double lower_bound = 0.0;
  SequenceId id = kInvalidSequenceId;
  const Sequence* sequence = nullptr;
};

// Exact k-NN over partitions `active` of `shards` and the `buffered`
// rows (in any order), as one refine loop (core/tw_knn_search.h) on the
// calling thread. Its candidate stream opens one L_inf nearest iterator
// per active partition and merges their heads with the buffered rows in
// (lower bound, global id) order. A record maps to its global id through
// its partition's global_of; one whose global id is in `dead[s]`
// (sorted; `dead` empty or null entries for none) is dropped before it
// is fetched. The loop stops once the next lower bound exceeds the k-th
// distance or `seed_bound`, so it refines the candidates one engine over
// the union would. Runs on, and counts as one query in the metrics of,
// shards.front()'s engine (the partitions share DtwOptions). Requires
// shards non-empty, a non-empty query and k >= 1.
KnnResult SearchPartitionsKnn(
    const std::vector<BaseShard>& shards, const std::vector<size_t>& active,
    const std::vector<const std::vector<SequenceId>*>& dead,
    std::vector<BufferedKnnRow> buffered, const Sequence& query, size_t k,
    double seed_bound, Trace* trace);

// ---- The shard-set builder and loader.

// Splits `dataset` by `assignment` and bulk-loads one engine per shard.
// Shard-local ids follow ascending global id (the kNN tie-break and the
// compaction merge rely on it; shard/partitioner.h).
std::vector<BaseShard> BuildShardSet(const Dataset& dataset,
                                     const ShardAssignment& assignment,
                                     const EngineOptions& options);

// The shape a caller was configured with. A saved set whose manifest
// differs in shard count, partitioner or page size is rejected, never
// re-partitioned (see shard/shard_io.h).
struct ShardSetShape {
  size_t num_shards = 0;
  PartitionerKind partitioner = PartitionerKind::kHash;
  size_t page_size_bytes = 0;
};

struct ShardSet {
  ShardManifest manifest;
  std::vector<BaseShard> shards;  // one per requested id, in request order
};

// Opens the shard set saved in `dir`: loads its manifest, checks it
// against `expect` when given, then opens the engine of every shard in
// `shard_ids` (all of them, in index order, when empty) with the
// manifest's page size, checks each holds the sequence count the
// manifest assigns it, and computes the live-only feature MBRs (a
// tombstoned sequence must not widen the pruning box). Out-of-range and
// repeated ids are rejected.
Status OpenShardSet(const std::string& dir,
                    const std::vector<uint32_t>& shard_ids,
                    EngineOptions engine, const ShardSetShape* expect,
                    ShardSet* out);

// The range partitioner's initial routing cuts for a freshly built or a
// v1-manifest set: each shard's maximum feature key, prefix-maxed so the
// sequence is non-decreasing. An empty shard set leaves every cut at
// -inf (all inserts route to the last shard until it rebalances).
std::vector<FeatureKey> InitialRangeCuts(const std::vector<BaseShard>& shards);

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_FANOUT_H_
