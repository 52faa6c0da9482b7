// Engine: the library facade. Owns the paged sequence store (which owns
// the dataset), the feature index, and (optionally) the comparison
// baselines, and exposes uniform query entry points plus the disk cost
// model.
//
// Typical use (see examples/quickstart.cc):
//
//   Engine engine(std::move(dataset), EngineOptions{});
//   SearchResult r = engine.Search(query, /*epsilon=*/0.1);
//   for (SequenceId id : r.matches) { ... }
//
// Thread-safety contract: all const query entry points — Search,
// SearchWith, SearchKnn, SearchSubsequences — are safe to call
// concurrently from any number of threads. The read path holds no shared
// mutable state: the index buffer pool is internally lock-striped, and
// per-query metrics land in an internally synchronized registry. Each
// caller must pass its own Trace/DtwScratch (those are per-thread
// objects). Mutations — Insert, Remove, Rebuild* — require external
// exclusion: no query may run concurrently with them. For a pooled
// multi-threaded serving loop, see exec/query_executor.h and
// docs/CONCURRENCY.md.

#ifndef WARPINDEX_CORE_ENGINE_H_
#define WARPINDEX_CORE_ENGINE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/engine_like.h"
#include "core/feature_index.h"
#include "core/scan_search.h"
#include "core/search_method.h"
#include "core/st_filter_search.h"
#include "core/subsequence_index.h"
#include "core/tw_knn_search.h"
#include "core/tw_sim_search.h"
#include "dtw/dtw.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sequence/dataset.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/sequence_store.h"
#include "suffixtree/st_filter.h"

namespace warpindex {

enum class MethodKind {
  kTwSimSearch,
  kNaiveScan,
  kLbScan,
  kStFilter,
  // TW-Sim-Search with the planned lower-bound cascade between the index
  // filter and exact DTW (src/plan/). Identical answers, fewer DTW
  // evaluations; see docs/PLANNER.md.
  kTwSimSearchCascade,
};

const char* MethodKindName(MethodKind kind);

struct EngineOptions {
  // Storage and index page size (paper §5.1: 1 KB).
  size_t page_size_bytes = 1024;
  // Similarity model; the paper's default is L_inf (Definition 2).
  DtwOptions dtw = DtwOptions::Linf();
  // Feature index configuration.
  SplitPolicy split_policy = SplitPolicy::kQuadratic;
  bool bulk_load = true;
  // R*-style insert tuning for the feature index (see rtree/rtree.h).
  // The defaults reproduce the paper configuration; the streaming ingest
  // path (src/ingest/) is the intended consumer — delta inserts and
  // compacted rebuilds keep insert-built trees near bulk-load quality
  // with forced reinsertion + a distribution-factor R* split + bulk-load
  // headroom (bulk_fill_fraction < 1).
  double rtree_min_fill_fraction = 0.4;
  bool rtree_forced_reinsert = false;
  double rtree_reinsert_fraction = 0.3;
  double rtree_split_distribution_factor = 0.0;
  double rtree_bulk_fill_fraction = 1.0;
  // Build the ST-Filter baseline too (its suffix tree is expensive; only
  // the comparison benches need it).
  bool build_st_filter = false;
  size_t st_filter_categories = 100;
  // Index-page buffer pool frames for TW-Sim-Search (0 disables). With a
  // pool, hot index pages stop paying random reads across queries. The
  // pool is thread-safe (lock-striped shards), so queries stay safe to
  // run concurrently; see docs/CONCURRENCY.md.
  size_t index_buffer_pages = 0;
  // Planner configuration for MethodKind::kTwSimSearchCascade (plan
  // mode, fixed plan, cost-model knobs). The default runs the full
  // lower-bound cascade on every query; see docs/PLANNER.md.
  CascadePlannerOptions cascade_planner;
  // Build the §6 subsequence-matching window index too (opt-in: its size
  // is O(total elements * window range / stride)).
  bool build_subsequence_index = false;
  size_t subsequence_min_window = 16;
  size_t subsequence_max_window = 64;
  size_t subsequence_stride = 1;
  // Simulated disk parameters for ElapsedMillis().
  DiskParameters disk;
  // Registry the engine records per-query metrics into. Defaults to the
  // process-wide MetricsRegistry::Global(); tests point it at their own.
  MetricsRegistry* metrics = nullptr;
};

class Engine : public EngineLike {
 public:
  // Takes ownership of the dataset.
  Engine(Dataset dataset, EngineOptions options);

  // ---- Persistence. A saved engine directory holds the dataset
  // (dataset.wids), the feature index (index.wirt), and the tombstone
  // list (tombstones.bin); Open() restores all three without rebuilding
  // the index. The optional ST-Filter is always rebuilt (its suffix tree
  // is a derived structure).

  // Writes this engine's state into `dir` (created if missing).
  Status Save(const std::string& dir) const;

  // Restores an engine saved with Save(). `options` must request the same
  // page size the index was built with (validated).
  static Status Open(const std::string& dir, EngineOptions options,
                     std::unique_ptr<Engine>* out);

  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The paper's Algorithm 1 over the feature index. Attach a Trace to
  // record the query's span tree (see obs/trace.h and
  // docs/OBSERVABILITY.md); every query also lands in metrics().
  SearchResult Search(const Sequence& query, double epsilon,
                      Trace* trace = nullptr) const {
    return SearchWith(MethodKind::kTwSimSearch, query, epsilon, trace);
  }

  // Runs the selected method. kStFilter requires
  // options.build_st_filter == true. `scratch` (optional) provides
  // reusable DTW buffers — the concurrent executor passes one per worker
  // so repeated queries stop allocating; answers are unchanged.
  SearchResult SearchWith(MethodKind kind, const Sequence& query,
                          double epsilon, Trace* trace = nullptr,
                          DtwScratch* scratch = nullptr) const override;

  // Algorithm 1's refine half (TwSimSearch::Refine) over candidates a
  // caller selected with the D_tw-lb <= epsilon predicate: IngestEngine's
  // buffered rows. The cascade kind runs its planned lower-bound stages
  // first; every other kind runs the exact stage alone. Matches keep the
  // candidates' own ids. The work reaches this engine's work counters
  // (DTW evaluations, stage prunes, pool traffic) but is not a query:
  // warpindex_queries_total and the per-query histograms do not move.
  SearchResult Refine(MethodKind kind, const Sequence& query, double epsilon,
                      std::vector<const Sequence*> candidates, Trace* trace,
                      DtwScratch* scratch) const;

  // Exact k-nearest-neighbor search under D_tw via the feature index
  // (lower-bound-guided filter and refine; see core/tw_knn_search.h),
  // its cutoff seeded with a valid upper bound on the k-th distance
  // (EngineLike); identical answers, fewer refinements. SearchKnn seeds
  // nothing.
  KnnResult SearchKnnSeeded(const Sequence& query, size_t k,
                            double seed_bound,
                            Trace* trace = nullptr) const override {
    return SearchKnnOver(query, k, seed_bound, nullptr, trace);
  }

  // The same query over `candidates` instead of this engine's index (when
  // non-null): the partitioned shapes' one merged stream
  // (shard/fanout.h), refined under this engine's DtwOptions. It counts
  // as one k-NN query in metrics(), whichever partitions the stream
  // spans.
  KnnResult SearchKnnOver(const Sequence& query, size_t k, double seed_bound,
                          KnnCandidateStream* candidates, Trace* trace) const;

  // ---- Dynamic maintenance (paper §4.3.1: the index supports ordinary
  // insertion; the store appends / tombstones).
  //
  // The optional ST-Filter baseline is a static structure: after
  // Insert/Remove it reflects the dataset at its last build — call
  // RebuildStFilter() before comparing against it again.

  // Adds a sequence to the store and the feature index; returns its id.
  // Requires a non-empty sequence of finite elements (Sequence's input
  // contract); outside input reaches it only through a checking decoder.
  SequenceId Insert(Sequence s);

  // Removes a sequence from the store (tombstone) and the index. Returns
  // false if `id` is unknown or already removed.
  bool Remove(SequenceId id);

  // True iff `id` names a live sequence.
  bool Contains(SequenceId id) const { return store_.IsLive(id); }

  // Live sequence count (dataset().size() counts tombstones too).
  size_t live_size() const { return store_.num_live(); }

  // Rebuilds the ST-Filter over the current live sequences. Requires
  // options.build_st_filter.
  void RebuildStFilter();

  // ---- Subsequence matching (paper §6). Requires
  // options.build_subsequence_index. Matches inside tombstoned sequences
  // are suppressed (Remove() stays exact without a rebuild), but Insert()
  // leaves the window index blind to the new sequence — a silent
  // false-dismissal footgun. Insert() therefore marks the index STALE:
  // SearchSubsequences throws std::logic_error until
  // RebuildSubsequenceIndex() runs, so staleness is a hard error instead
  // of a quietly incomplete answer.
  bool has_subsequence_index() const {
    return subsequence_index_ != nullptr;
  }
  // True after an Insert() that the window index does not cover yet.
  bool subsequence_index_stale() const { return subsequence_index_stale_; }
  const SubsequenceIndex* subsequence_index() const {
    return subsequence_index_.get();
  }
  std::vector<SubsequenceMatch> SearchSubsequences(
      const Sequence& query, double epsilon,
      SearchCost* cost = nullptr) const;
  void RebuildSubsequenceIndex();

  const SearchMethod& method(MethodKind kind) const;
  // The planner of MethodKind::kTwSimSearchCascade (live cost-model
  // state for /statusz and tests).
  const CascadePlanner& cascade_planner() const {
    return *tw_sim_search_cascade_->planner();
  }
  bool has_st_filter() const { return st_filter_ != nullptr; }

  // The stored sequences, by id (tombstoned ones included). References
  // into it stay valid until the next mutator (Insert, Remove, Rebuild*).
  const Dataset& dataset() const { return store_.dataset(); }
  const SequenceStore& store() const { return store_; }
  const FeatureIndex& feature_index() const { return feature_index_; }
  const StFilter* st_filter() const { return st_filter_.get(); }
  // Null unless options.index_buffer_pages > 0.
  const BufferPool* index_pool() const { return index_pool_.get(); }
  const DiskModel& disk_model() const { return disk_model_; }
  const EngineOptions& options() const { return options_; }
  DtwOptions dtw_options() const override { return options_.dtw; }

  // Simulated elapsed time of a query: measured CPU wall time plus the
  // disk model's cost for the recorded I/O.
  double ElapsedMillis(const SearchCost& cost) const override {
    return cost.wall_ms + disk_model_.CostMillis(cost.io);
  }

  // ---- Observability (see docs/OBSERVABILITY.md).

  // Point-in-time health of the engine's storage and index layers, the
  // core of /statusz (exec/introspection.h). Safe to call concurrently
  // with queries; one full index traversal, so poll it from dashboards,
  // not per query.
  struct Health {
    size_t dataset_sequences = 0;
    size_t live_sequences = 0;
    size_t index_entries = 0;
    RTreeHealth index;
    bool has_pool = false;
    BufferPool::StatsSnapshot pool;  // zeros when !has_pool
  };
  Health TakeHealthSnapshot() const;

  // The registry this engine records per-query metrics into.
  MetricsRegistry& metrics() const override { return *metrics_; }

  // Point-in-time view of metrics() for the exporters.
  MetricsRegistry::Snapshot MetricsSnapshot() const {
    return metrics_->TakeSnapshot();
  }

  // Appends `trace`'s spans to `path` as JSON lines (one span per line).
  Status ExportTrace(const Trace& trace, const std::string& path,
                     int64_t query_id = -1) const;

  // Writes `traces` to `path` as one Chrome/Perfetto trace-event JSON
  // document (overwrites; open it in ui.perfetto.dev). See
  // obs/exporters.h TraceEventsJson.
  Status ExportTraceEvents(const std::vector<const Trace*>& traces,
                           const std::string& path) const;

 private:
  // Restores from persisted parts (Open()).
  Engine(Dataset dataset, FeatureIndex index, EngineOptions options);

  void BuildMethods();
  void RegisterMetrics();
  // Per-query metrics (queries_total, matches, the histograms), then
  // RecordWorkMetrics.
  void RecordQueryMetrics(const SearchResult& result) const;
  // The counters that sum work rather than queries.
  void RecordWorkMetrics(const SearchCost& cost) const;

  EngineOptions options_;
  SequenceStore store_;
  FeatureIndex feature_index_;
  std::unique_ptr<StFilter> st_filter_;
  std::unique_ptr<SubsequenceIndex> subsequence_index_;
  // Set by Insert() while a subsequence index exists; cleared by
  // RebuildSubsequenceIndex(). Guards SearchSubsequences against silent
  // false dismissals on uncovered sequences.
  bool subsequence_index_stale_ = false;
  std::unique_ptr<BufferPool> index_pool_;
  DiskModel disk_model_;

  std::unique_ptr<TwSimSearch> tw_sim_search_;
  std::unique_ptr<TwSimSearch> tw_sim_search_cascade_;
  std::unique_ptr<TwKnnSearch> tw_knn_search_;
  std::unique_ptr<ScanSearch> naive_scan_;
  std::unique_ptr<ScanSearch> lb_scan_;
  std::unique_ptr<StFilterSearch> st_filter_search_;

  // Metric handles, resolved once at construction (hot-path recording is
  // pointer increments, no registry lookups).
  MetricsRegistry* metrics_ = nullptr;
  Counter* queries_total_ = nullptr;
  Counter* matches_total_ = nullptr;
  Counter* pool_hits_total_ = nullptr;
  Counter* pool_misses_total_ = nullptr;
  Histogram* latency_ms_hist_ = nullptr;
  Histogram* candidate_ratio_hist_ = nullptr;
  Histogram* dtw_cells_hist_ = nullptr;
  Histogram* index_nodes_hist_ = nullptr;
  Histogram* knn_latency_ms_hist_ = nullptr;
  Counter* dtw_evals_total_ = nullptr;
  // Per-stage pruning counters (candidates-in / pruned per filtering
  // stage), pre-resolved for the known stage names.
  struct StagePruneHandles {
    std::string_view stage;
    Counter* in = nullptr;
    Counter* pruned = nullptr;
  };
  std::vector<StagePruneHandles> prune_handles_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_ENGINE_H_
