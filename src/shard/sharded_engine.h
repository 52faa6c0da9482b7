// ShardedEngine: the build-then-serve partitioned database — a
// write-free IngestEngine (ingest/ingest_engine.h) behind a read-only
// interface.
//
// The dataset is split across K partitions with one STR-bulk-loaded
// Engine each, and every query runs the IngestEngine's path: a range
// query skips the partitions whose feature MBR lies farther than epsilon
// from the query (exact by the Theorem 1 argument lifted to an MBR; see
// shard/partitioner.h) and fans the rest out over the attached pool; a
// kNN query runs one refine loop over every partition's index
// (SearchPartitionsKnn, shard/fanout.h). Answers are bit-identical to a
// single Engine over the same dataset, matches in ascending global-id
// order. Work counters sum across partitions; wall time is the measured
// end-to-end time.
//
// The wrapped engine is built without a compactor and ShardedEngine
// exposes no write, so its deltas stay empty and its ShardView never
// swaps: shard(s) and ToGlobalId stay valid for the engine's lifetime.
// The health snapshot, the warpindex_shard_* metrics and the
// per-partition flight records are the IngestEngine's.
//
// Threading: all query entry points are const and safe to call
// concurrently. AttachPool lends the range fan-out a pool (typically the
// QueryExecutor's own; the calling thread participates, so there is no
// nested-pool deadlock — shard/scatter_gather.h); without one, shards
// run sequentially on the caller with the same answers.
//
// Persistence: Save() writes a manifest (shard count, partitioner,
// global-id assignment) plus one Engine::Save directory per shard;
// Open() validates the requested topology against the manifest and
// rejects mismatches (see shard/shard_io.h).

#ifndef WARPINDEX_SHARD_SHARDED_ENGINE_H_
#define WARPINDEX_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <string>

#include "core/engine.h"
#include "core/engine_like.h"
#include "exec/thread_pool.h"
#include "ingest/ingest_engine.h"
#include "shard/partitioner.h"
#include "shard/shard_view.h"

namespace warpindex {

// A ShardedEngine is configured like the partitioned engine it wraps:
// num_shards, partitioner and the per-shard engine options (whose
// metrics registry every partition shares). Its compactor is never
// started, so the compaction fields have no effect.
using ShardedEngineOptions = IngestOptions;

class ShardedEngine : public EngineLike {
 public:
  // Partitions `dataset` (consumed) and builds one Engine per shard.
  ShardedEngine(Dataset dataset, ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- Persistence (manifest + per-shard Engine directories).

  Status Save(const std::string& dir) const { return ingest_->Save(dir); }

  // Restores a sharded engine saved with Save() (or IngestEngine::Save).
  // `options` must request the same shard count, partitioner, and page
  // size the directory was written with — mismatches are rejected, never
  // re-partitioned.
  static Status Open(const std::string& dir,
                     ShardedEngineOptions options,
                     std::unique_ptr<ShardedEngine>* out);

  // ---- Queries (EngineLike).

  SearchResult Search(const Sequence& query, double epsilon,
                      Trace* trace = nullptr) const {
    return ingest_->Search(query, epsilon, trace);
  }
  SearchResult SearchWith(MethodKind kind, const Sequence& query,
                          double epsilon, Trace* trace = nullptr,
                          DtwScratch* scratch = nullptr) const override {
    return ingest_->SearchWith(kind, query, epsilon, trace, scratch);
  }
  KnnResult SearchKnnSeeded(const Sequence& query, size_t k,
                            double seed_bound,
                            Trace* trace = nullptr) const override {
    return ingest_->SearchKnnSeeded(query, k, seed_bound, trace);
  }
  MetricsRegistry& metrics() const override { return ingest_->metrics(); }
  DtwOptions dtw_options() const override { return ingest_->dtw_options(); }
  double ElapsedMillis(const SearchCost& cost) const override {
    return ingest_->ElapsedMillis(cost);
  }

  // ---- Topology.

  size_t num_shards() const { return view_->shards.size(); }
  PartitionerKind partitioner() const { return ingest_->partitioner(); }
  const Engine& shard(size_t index) const {
    return *view_->shards[index].engine;
  }
  const ShardFeatureBounds& shard_bounds(size_t index) const {
    return view_->shards[index].bounds;
  }
  // Size of the global id space (including ids a v2 manifest dropped).
  size_t total_sequences() const { return ingest_->id_space(); }
  size_t live_size() const { return ingest_->live_size(); }
  // Global id of shard-local sequence `local` of shard `shard_index`.
  SequenceId ToGlobalId(size_t shard_index, SequenceId local) const {
    return (*view_->shards[shard_index].global_of)[static_cast<size_t>(local)];
  }

  // Lends a thread pool for query fan-out (typically the serving
  // executor's: `sharded.AttachPool(&executor.pool())`). Null detaches;
  // not thread-safe against in-flight queries — wire before serving.
  void AttachPool(ThreadPool* pool) { ingest_->AttachPool(pool); }

  // ---- Observability: the partitioned engine's health (feeds the
  // /statusz "sharding" section) and the engine itself.
  IngestEngine::Health TakeHealthSnapshot() const {
    return ingest_->TakeHealthSnapshot();
  }
  const IngestEngine& ingest() const { return *ingest_; }

 private:
  explicit ShardedEngine(std::unique_ptr<IngestEngine> ingest);

  std::unique_ptr<IngestEngine> ingest_;
  // The one view a write-free engine ever publishes.
  std::shared_ptr<const ShardView> view_;
};

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_SHARDED_ENGINE_H_
