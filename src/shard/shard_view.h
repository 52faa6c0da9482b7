// ShardView: the immutable per-epoch serving snapshot of the partitioned
// engine (ingest/ingest_engine.h).
//
// Under streaming ingest the base shards are REPLACED at compaction
// time, so the serving topology is an epoch-published value: one
// ShardView holds shared ownership of every base Engine, the
// local->global id mapping of each, the feature-MBR pruning bounds, and
// the range partitioner's routing cut points. Readers pin the view (a
// shared_ptr copy under the epoch lock) and keep querying it even while
// the compactor swaps in a successor — sequences never disappear under a
// running query, and a query's answer is computed against exactly one
// topology.
//
// A ShardView is deep-immutable after publication: the compactor builds
// a fresh copy (cheap — K shared_ptrs and id vectors are reused for the
// untouched shards), replaces the one compacted entry, and publishes the
// new view with the epoch counter bumped. A write-free engine (the
// read-only ShardedEngine) never compacts, so it publishes one view for
// its whole lifetime. See docs/INGEST.md.

#ifndef WARPINDEX_SHARD_SHARD_VIEW_H_
#define WARPINDEX_SHARD_SHARD_VIEW_H_

#include <array>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "shard/partitioner.h"

namespace warpindex {

// A sequence's 4-d feature tuple as the lexicographic routing key the
// range partitioner orders by (same order AssignShards sorts with).
using FeatureKey = std::array<double, kFeatureDims>;

inline FeatureKey FeatureKeyOf(const FeatureVector& f) {
  return f.AsPoint();
}

// One immutable base shard of a view.
struct BaseShard {
  // The STR-bulk-loaded (or Open()-restored) engine serving this
  // partition's compacted sequences. Shared: successive views alias the
  // engines they did not replace.
  std::shared_ptr<const Engine> engine;
  // Shard-local id -> global id, ascending (local ids are assigned in
  // increasing global id order, preserving the kNN tie-break property;
  // see shard/partitioner.h).
  std::shared_ptr<const std::vector<SequenceId>> global_of;
  // Live feature MBR at build time (deletes buffered in the delta layer
  // do not shrink it — conservative, so pruning stays exact).
  ShardFeatureBounds bounds;
};

struct ShardView {
  std::vector<BaseShard> shards;
  // Routing cut points for PartitionerKind::kRange: an insert routes to
  // the first shard whose cut (upper feature key, lexicographic) is >=
  // the sequence's key, else the last shard. Routing only — answers
  // never depend on placement — so the compactor may recompute cuts
  // freely when a shard outgrows its neighbors. Empty for kHash.
  std::vector<FeatureKey> range_cuts;
  // Monotonic publication counter (0 = initial build).
  uint64_t epoch = 0;
};

// The shard an insert with key `key` routes to under `cuts` (see
// ShardView::range_cuts). Requires cuts non-empty.
inline size_t RouteByRangeCuts(const std::vector<FeatureKey>& cuts,
                               const FeatureKey& key) {
  for (size_t s = 0; s + 1 < cuts.size(); ++s) {
    if (key <= cuts[s]) {
      return s;
    }
  }
  return cuts.size() - 1;
}

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_SHARD_VIEW_H_
