// ShardedEngine: one logical sequence database partitioned across K
// independent per-shard Engines, with scatter-gather query fan-out.
//
// Why: every structure a query touches — R-tree, sequence store, buffer
// pool — is per-shard, so each index stays N/K small and K shards answer
// one range query in parallel on the serving pool. Every shard runs the
// same cascade plan, read off the shared DtwOptions. Answers are
// bit-identical to a single Engine over the same dataset:
//
//   * Range queries run TW-Sim-Search (or any MethodKind) per shard and
//     take the union, remapped to global ids and sorted ascending — the
//     canonical order a single engine's answer is compared in. Shards
//     whose feature-space MBR is strictly farther than epsilon from the
//     query's feature point (L_inf MINDIST) are skipped without being
//     touched; exact by the Theorem 1 argument lifted to a shard's MBR
//     (see shard/partitioner.h). With the range partitioner, clustered
//     data makes these skips routine.
//
//   * kNN runs ONE filter-and-refine loop over one candidate stream
//     that merges every shard's nearest iterator by lower bound
//     (SearchPartitionsKnn, shard/fanout.h): the candidates one engine
//     over the union would refine, so the answer is the single-engine
//     one (ties at the k-th distance resolve by global id) and so is
//     the DTW work, whatever K is. It runs on the calling thread.
//
// Cost semantics: a range query's per-shard SearchCosts are folded with
// MergeParallel —
// page reads, DTW evals/cells, node visits, and per-stage attribution
// are summed (work actually done), wall time is NOT (concurrent shards
// overlap); the reported wall_ms is the measured end-to-end time of the
// sharded query, which is the critical path plus fan-out/merge overhead.
//
// Threading: range queries fan out over a borrowed ThreadPool
// (AttachPool) —
// typically the QueryExecutor's own pool, shared safely because the
// scatter-gather layer has the calling thread participate (see
// shard/scatter_gather.h; no nested-pool deadlock). Without a pool,
// shards run sequentially on the caller: same answers. All query entry
// points are const and safe to call concurrently; like Engine, there is
// no concurrent mutation to exclude — ShardedEngine is read-only after
// construction (repartition-on-insert is future work; rebuild instead).
//
// Persistence: Save() writes a manifest (shard count, partitioner,
// global-id assignment) plus one Engine::Save directory per shard;
// Open() validates the requested topology against the manifest and
// rejects mismatches (see shard/shard_io.h).

#ifndef WARPINDEX_SHARD_SHARDED_ENGINE_H_
#define WARPINDEX_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/engine_like.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "shard/partitioner.h"
#include "shard/shard_view.h"

namespace warpindex {

struct ShardedEngineOptions {
  // Number of shards (>= 1).
  size_t num_shards = 4;
  PartitionerKind partitioner = PartitionerKind::kHash;
  // Per-shard engine configuration. Every shard gets an identical copy;
  // options.engine.metrics (or the global registry) is shared by all
  // shards AND the sharded layer, so per-shard query metrics aggregate
  // in one place. Note warpindex_queries_total then counts a range query
  // once per shard searched (a kNN query once);
  // warpindex_shard_queries_total counts logical queries.
  EngineOptions engine;
  // Optional (borrowed, must outlive the engine): every per-shard
  // sub-query is offered here with its shard id, so /flightrecorder can
  // attribute latency to the shard that caused it. The serving layer's
  // own recorder entry (shard = -1) covers the merged query.
  FlightRecorder* flight_recorder = nullptr;
};

class ShardedEngine : public EngineLike {
 public:
  // Partitions `dataset` and builds one Engine per shard. Takes
  // ownership of the dataset (it is consumed by the split).
  ShardedEngine(Dataset dataset, ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- Persistence (manifest + per-shard Engine directories).

  Status Save(const std::string& dir) const;

  // Restores a sharded engine saved with Save(). `options` must request
  // the same shard count, partitioner, and page size the directory was
  // written with — mismatches are rejected, never re-partitioned.
  static Status Open(const std::string& dir, ShardedEngineOptions options,
                     std::unique_ptr<ShardedEngine>* out);

  // ---- Queries (EngineLike).

  SearchResult Search(const Sequence& query, double epsilon,
                      Trace* trace = nullptr) const {
    return SearchWith(MethodKind::kTwSimSearch, query, epsilon, trace);
  }

  // Scatter-gather over the non-prunable shards; matches are global ids
  // sorted ascending. `scratch` is accepted for interface compatibility
  // but unused — each per-shard task keeps its own scratch (sub-queries
  // run on different threads). Prune, fan-out, trace stitching and merge
  // are the fan-out core's (shard/fanout.h): one scatter_gather span
  // (fanout/skip/partitioner counters), one stitched "shard" subtree per
  // searched shard in shard order, and a "shard_skipped" marker per
  // pruned shard.
  SearchResult SearchWith(MethodKind kind, const Sequence& query,
                          double epsilon, Trace* trace = nullptr,
                          DtwScratch* scratch = nullptr) const override;

  // Exact kNN: one refine loop over every live shard's index
  // (SearchPartitionsKnn), its cutoff seeded with `seed_bound`, a valid
  // upper bound on the k-th distance (EngineLike); identical answers. No
  // fan-out: a traced query records one knn_query tree.
  KnnResult SearchKnnSeeded(const Sequence& query, size_t k,
                            double seed_bound,
                            Trace* trace = nullptr) const override;

  MetricsRegistry& metrics() const override {
    return shards_.front().engine->metrics();
  }
  DtwOptions dtw_options() const override {
    return shards_.front().engine->dtw_options();
  }

  double ElapsedMillis(const SearchCost& cost) const override {
    return shards_.front().engine->ElapsedMillis(cost);
  }

  // ---- Topology.

  size_t num_shards() const { return shards_.size(); }
  PartitionerKind partitioner() const { return options_.partitioner; }
  const Engine& shard(size_t index) const { return *shards_[index].engine; }
  const ShardFeatureBounds& shard_bounds(size_t index) const {
    return shards_[index].bounds;
  }

  // Total sequences across shards (including tombstones).
  size_t total_sequences() const { return shard_of_.size(); }
  size_t live_size() const;

  // Global id of shard-local sequence `local` of shard `shard_index`.
  SequenceId ToGlobalId(size_t shard_index, SequenceId local) const {
    return (*shards_[shard_index].global_of)[static_cast<size_t>(local)];
  }
  // (shard, local id) of a global id. For an id a v2 manifest marks
  // dropped (deleted + compacted; see shard/shard_io.h) the local id is
  // kInvalidSequenceId.
  std::pair<size_t, SequenceId> ToShardLocal(SequenceId global) const;

  // Lends a thread pool for query fan-out (typically the serving
  // executor's: `sharded.AttachPool(&executor.pool())`). Null detaches;
  // not thread-safe against in-flight queries — wire before serving.
  void AttachPool(ThreadPool* pool) { pool_ = pool; }

  // ---- Observability.

  struct ShardStatus {
    size_t shard_index = 0;
    Engine::Health health;
    ShardFeatureBounds bounds;
    // Sub-queries this shard served / times MBR pruning skipped it.
    uint64_t queries = 0;
    uint64_t skipped = 0;
  };
  struct Health {
    size_t num_shards = 0;
    PartitionerKind partitioner = PartitionerKind::kHash;
    uint64_t queries_total = 0;     // logical (merged) queries
    uint64_t subqueries_total = 0;  // per-shard executions
    uint64_t shards_skipped_total = 0;
    std::vector<ShardStatus> shards;
  };
  // Safe to call concurrently with queries (one index traversal per
  // shard; poll from dashboards, not per query). Feeds /statusz.
  Health TakeHealthSnapshot() const;

 private:
  // Open() path: adopts the opened shards and the global id -> shard
  // assignment.
  ShardedEngine(std::vector<BaseShard> shards, ShardedEngineOptions options,
                std::vector<uint32_t> shard_of);

  void InitWiring();

  // The shards a query visits (fan-out core's ActivePartitions), with the
  // per-shard and registry serving stats updated.
  std::vector<size_t> SelectShards(const Point& query_point,
                                   double epsilon) const;
  void RecordShardFlight(size_t shard_index, const char* method,
                         double epsilon, size_t query_length,
                         const SearchResult& result,
                         uint64_t trace_id) const;

  ShardedEngineOptions options_;
  // Per shard: engine, local -> global ids, live feature MBR (pruning).
  std::vector<BaseShard> shards_;
  // global id -> shard (kDroppedShard for ids a v2 manifest dropped).
  std::vector<uint32_t> shard_of_;
  ThreadPool* pool_ = nullptr;

  // Per-instance serving stats for /statusz (relaxed; dashboards only).
  // The registry counters below can be shared across engines (process
  // metrics); Health must describe THIS engine, so it reads these.
  mutable std::atomic<uint64_t> logical_queries_{0};
  mutable std::vector<std::atomic<uint64_t>> shard_queries_;
  mutable std::vector<std::atomic<uint64_t>> shard_skipped_;

  // Metric handles (shared registry).
  Counter* queries_total_ = nullptr;
  Counter* subqueries_total_ = nullptr;
  Counter* skipped_total_ = nullptr;
  Histogram* fanout_hist_ = nullptr;
};

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_SHARDED_ENGINE_H_
