// IngestEngine: a writable, serving sequence database — the streaming
// ingest subsystem that turns the build-then-serve ShardedEngine shape
// into a live system.
//
// Architecture (LSM-style; see docs/INGEST.md):
//
//   * K partitions. Each pairs an immutable, STR-bulk-loaded base
//     Engine (published through an epoch ShardView; shard/shard_view.h)
//     with a small mutable DeltaShard absorbing concurrent
//     Insert/Delete (ingest/delta_shard.h).
//
//   * Reads take an epoch snapshot: under a brief shared lock a query
//     pins the current ShardView and copies each partition's visible
//     delta (shared_ptr aliases + tombstone ids). Everything after —
//     range scatter-gather or the kNN loop, DTW — runs lock-free against
//     that snapshot, so a query sees one consistent union of base +
//     delta even while writes land and the compactor swaps epochs.
//
//   * Answers carry the exact merge semantics of the sharded engine:
//     range results are the union of per-base results (feature-MBR
//     pruning included) and the delta's, tombstones filtered exactly,
//     global ids sorted ascending. The delta only selects candidates
//     (D_tw-lb <= epsilon on each entry's stored feature, the R-tree's
//     predicate); its partition engine refines them (Engine::Refine:
//     planned lower-bound stages, then the exact stage), so its work
//     lands in that engine's prune records and counters. kNN is one
//     refine loop (SearchPartitionsKnn, shard/fanout.h) over one
//     candidate stream: every live base's nearest iterator and the
//     buffered rows (by D_tw-lb on their stored features) merged in
//     lower-bound order, tombstoned base rows dropped before their
//     fetch. It refines what a from-scratch engine over the live set
//     would, so the answer and the DTW work are that engine's.
//
//   * A background Compactor (ingest/compactor.h) freezes a delta that
//     exceeds size/tombstone/age thresholds, merges it with the live
//     base rows into a freshly bulk-loaded Engine off-lock, then takes
//     the epoch writer lock for the atomic swap: new ShardView
//     published, frozen writes dropped from the delta. Range-partitioner
//     cut points are recomputed when a shard outgrows its neighbors
//     (routing only — placement never changes answers).
//
// Consistency contract: at any quiescent point (no writes in flight)
// every query answer is bit-identical to a from-scratch Engine over the
// live set. Under concurrent writes each query observes an atomic
// prefix-consistent snapshot per partition: every write acknowledged
// before the query began is visible, none acknowledged after it
// completed is, and in-flight writes appear atomically or not at all.
//
// Thread-safety: all query entry points are const and freely
// concurrent; Insert/Delete are freely concurrent with queries, each
// other, and compaction. Save() compacts first and requires no
// concurrent writes. AttachPool before serving, like ShardedEngine.

#ifndef WARPINDEX_INGEST_INGEST_ENGINE_H_
#define WARPINDEX_INGEST_INGEST_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/engine_like.h"
#include "exec/thread_pool.h"
#include "ingest/delta_shard.h"
#include "obs/trace_store.h"
#include "shard/scatter_gather.h"
#include "shard/shard_view.h"

namespace warpindex {

class Compactor;

struct IngestOptions {
  // Number of partitions (>= 1).
  size_t num_shards = 4;
  PartitionerKind partitioner = PartitionerKind::kHash;
  // Per-base-shard engine configuration (the base engines also refine
  // the delta's candidates), including the R*-style insert knobs
  // (EngineOptions::rtree_*) applied to every compacted rebuild.
  EngineOptions engine;

  // ---- Compaction triggers (evaluated per partition).
  // Buffered delta entries that force a merge.
  size_t compact_max_delta_entries = 512;
  // Tombstones that force a merge (deletes rewrite the base).
  size_t compact_max_tombstones = 256;
  // Age of the oldest buffered entry that forces a merge; 0 disables.
  double compact_max_delta_age_ms = 0.0;
  // Poll cadence of the background compactor.
  double compact_poll_ms = 25.0;
  // Start the background compactor thread. Off = compaction only via
  // explicit CompactShard/CompactAll (deterministic tests).
  bool start_compactor = true;
  // Run triggered compactions on the attached pool (scheduling them off
  // the poll thread) instead of inline on it.
  bool compact_on_pool = true;
  // A shard whose live base row count exceeds rebalance_factor * the
  // per-shard average after a compaction gets its range cut point
  // recomputed (median split) so future inserts spill to a neighbor.
  // Range partitioner only; <= 1 disables.
  double rebalance_factor = 2.0;

  // Optional (borrowed; must outlive the engine): compaction span trees
  // ("compaction" root with freeze/build/swap children) are offered
  // here for /tracez retention.
  TraceStore* trace_store = nullptr;
};

class IngestEngine : public EngineLike {
 public:
  // Builds the initial epoch from `dataset` (consumed): partitioned
  // like ShardedEngine, one bulk-loaded base Engine per shard, empty
  // deltas. Global ids 0..n-1 are the dataset positions; inserts
  // continue the id space monotonically (ids are never reused).
  IngestEngine(Dataset dataset, IngestOptions options);
  ~IngestEngine() override;

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  // ---- Queries (EngineLike).

  SearchResult Search(const Sequence& query, double epsilon,
                      Trace* trace = nullptr) const {
    return SearchWith(MethodKind::kTwSimSearch, query, epsilon, trace);
  }
  SearchResult SearchWith(MethodKind kind, const Sequence& query,
                          double epsilon, Trace* trace = nullptr,
                          DtwScratch* scratch = nullptr) const override;
  // Exact k-NN as one refine loop over the snapshot's bases and buffered
  // rows, its cutoff seeded with `seed_bound`, a valid upper bound on the
  // k-th distance (EngineLike); identical answers. Runs on the caller.
  KnnResult SearchKnnSeeded(const Sequence& query, size_t k,
                            double seed_bound,
                            Trace* trace = nullptr) const override;

  MetricsRegistry& metrics() const override { return *metrics_; }
  DtwOptions dtw_options() const override { return options_.engine.dtw; }
  double ElapsedMillis(const SearchCost& cost) const override;

  // Advances on every successful Insert, Delete, and compaction swap —
  // the semantic cache's invalidation signal (see EngineLike). Reads
  // are acquire so a version observed AFTER a query covers every write
  // the query could have seen.
  uint64_t DataVersion() const override {
    return data_version_.load(std::memory_order_acquire);
  }

  // ---- Writes. Safe to call concurrently with queries, each other,
  // and compaction; each call is atomic and visible to every query that
  // starts after it returns.

  // Buffers `s` in its partition's delta; returns the new global id.
  // Requires a non-empty sequence of finite elements (Sequence's input
  // contract); outside input reaches it only through a checking decoder.
  SequenceId Insert(Sequence s);

  // Tombstones `id` (a base sequence or a buffered insert). False if
  // unknown or already deleted.
  bool Delete(SequenceId id);

  // ---- Compaction.

  // Merges shard `s`'s frozen delta + tombstones into a freshly
  // bulk-loaded base and publishes the next epoch. Returns false when
  // there was nothing to merge. Safe concurrently with queries and
  // writes; concurrent compactions serialize.
  bool CompactShard(size_t s);
  // CompactShard over every shard; returns how many merged anything.
  size_t CompactAll();

  // ---- Persistence: manifest v2 (dropped-id sentinels + range cuts;
  // shard/shard_io.h) + per-shard Engine::Save directories. Compacts
  // everything first, so the saved form has empty deltas — which is
  // exactly what makes the directory re-openable by the read-only
  // ShardedEngine::Open as well. No concurrent writes during Save.
  Status Save(const std::string& dir);
  static Status Open(const std::string& dir, IngestOptions options,
                     std::unique_ptr<IngestEngine>* out);

  // ---- Topology / wiring.

  size_t num_shards() const { return deltas_.size(); }
  PartitionerKind partitioner() const { return options_.partitioner; }
  const IngestOptions& options() const { return options_; }
  // Lends a pool for range fan-out and (with compact_on_pool) compaction
  // scheduling. Wire before serving; null detaches.
  void AttachPool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  size_t live_size() const {
    return static_cast<size_t>(live_count_.load(std::memory_order_relaxed));
  }
  // Size of the global id space (next id to be assigned).
  size_t id_space() const;
  // The current epoch snapshot (tests and introspection).
  std::shared_ptr<const ShardView> CurrentView() const;

  // ---- Observability (feeds the /statusz "ingest" section).

  struct ShardStatus {
    size_t shard_index = 0;
    size_t base_sequences = 0;  // rows in the base engine
    size_t delta_entries = 0;   // buffered log entries (tombstoned incl.)
    size_t tombstones = 0;
    uint64_t writes_total = 0;
    double write_rate_per_s = 0.0;  // over the compactor's poll window
    uint64_t compactions = 0;
    double last_compaction_ms = 0.0;  // duration; 0 = never compacted
    Engine::Health base_health;
    ShardFeatureBounds bounds;
  };
  struct Health {
    size_t num_shards = 0;
    PartitionerKind partitioner = PartitionerKind::kHash;
    uint64_t epoch = 0;
    size_t live_sequences = 0;
    size_t id_space = 0;
    uint64_t inserts_total = 0;
    uint64_t deletes_total = 0;
    uint64_t compactions_total = 0;
    uint64_t cut_rebalances_total = 0;
    size_t compaction_backlog = 0;  // shards currently over threshold
    std::vector<ShardStatus> shards;
  };
  Health TakeHealthSnapshot() const;

  // Whether shard `s` currently exceeds a compaction trigger (the
  // compactor's poll predicate; exposed for tests and backlog gauges).
  bool ShouldCompact(size_t s) const;
  // The delta stats the compactor polls.
  DeltaShard::Stats DeltaStats(size_t s) const {
    return deltas_[s]->TakeStats();
  }
  void SetWriteRate(size_t s, double per_s) {
    deltas_[s]->set_write_rate(per_s);
  }
  void SetCompactionBacklog(size_t backlog);

 private:
  friend class Compactor;

  // Open() path: adopts a restored view.
  IngestEngine(std::shared_ptr<const ShardView> view,
               std::vector<uint32_t> part_of, IngestOptions options);

  // What a query runs against: the pinned view + per-partition delta
  // copies, taken under one brief shared epoch lock.
  struct QuerySnapshot {
    std::shared_ptr<const ShardView> view;
    std::vector<DeltaShard::Snapshot> parts;
  };
  QuerySnapshot AcquireSnapshot() const;

  void InitWiring();
  size_t RouteInsert(const ShardView& view, const FeatureVector& feature,
                     SequenceId id) const;
  // Recomputes the range cut point of an outgrown shard `s` in `next`
  // (median split; routing only). Called under the epoch writer lock.
  void MaybeRebalanceCuts(ShardView* next, size_t s);

  IngestOptions options_;
  DiskModel disk_model_;
  WallTimer clock_;

  // Epoch state: view_ swaps under the writer side; queries/writes pin
  // it under the reader side. Lock order: epoch_mu_ -> ids_mu_ ->
  // DeltaShard::mu_ (compaction additionally serializes on
  // compaction_mu_, taken before any of these).
  mutable std::shared_mutex epoch_mu_;
  std::shared_ptr<const ShardView> view_;

  std::vector<std::unique_ptr<DeltaShard>> deltas_;

  // Global id allocation + id -> partition routing history (kDroppedShard
  // for ids a loaded manifest marked dropped).
  mutable std::mutex ids_mu_;
  std::vector<uint32_t> part_of_;

  std::mutex compaction_mu_;
  std::unique_ptr<Compactor> compactor_;

  ThreadPool* pool_ = nullptr;
  std::atomic<int64_t> live_count_{0};
  // Per-instance write stats for Health (the registry counters below may
  // be shared across engines; Health must describe THIS engine).
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> cut_rebalances_{0};
  // Visible-data version; see DataVersion(). Bumped with release order
  // AFTER the write is visible to new queries.
  std::atomic<uint64_t> data_version_{0};
  mutable std::vector<std::atomic<uint64_t>> shard_compactions_;
  mutable std::vector<std::atomic<double>> shard_last_compaction_ms_;

  // Metric handles (shared registry; see docs/OBSERVABILITY.md).
  MetricsRegistry* metrics_ = nullptr;
  Counter* inserts_total_ = nullptr;
  Counter* deletes_total_ = nullptr;
  Counter* compactions_total_ = nullptr;
  Counter* cut_rebalances_total_ = nullptr;
  Gauge* delta_entries_gauge_ = nullptr;
  Gauge* backlog_gauge_ = nullptr;
  Histogram* compaction_ms_hist_ = nullptr;
  std::vector<Gauge*> shard_delta_gauges_;
};

}  // namespace warpindex

#endif  // WARPINDEX_INGEST_INGEST_ENGINE_H_
