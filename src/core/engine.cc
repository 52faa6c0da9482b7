#include "core/engine.h"

#include <cassert>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "common/binary_file.h"
#include "obs/exporters.h"
#include "rtree/rtree_io.h"

namespace warpindex {
namespace {

RTreeOptions MakeRTreeOptions(const EngineOptions& options) {
  RTreeOptions rtree;
  rtree.page_size_bytes = options.page_size_bytes;
  rtree.split_policy = options.split_policy;
  rtree.min_fill_fraction = options.rtree_min_fill_fraction;
  rtree.forced_reinsert = options.rtree_forced_reinsert;
  rtree.reinsert_fraction = options.rtree_reinsert_fraction;
  rtree.split_distribution_factor = options.rtree_split_distribution_factor;
  rtree.bulk_fill_fraction = options.rtree_bulk_fill_fraction;
  return rtree;
}

FeatureIndexOptions MakeFeatureIndexOptions(const EngineOptions& options) {
  FeatureIndexOptions fi;
  fi.rtree = MakeRTreeOptions(options);
  fi.bulk_load = options.bulk_load;
  return fi;
}

}  // namespace

const char* MethodKindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kTwSimSearch:
      return "TW-Sim-Search";
    case MethodKind::kNaiveScan:
      return "Naive-Scan";
    case MethodKind::kLbScan:
      return "LB-Scan";
    case MethodKind::kStFilter:
      return "ST-Filter";
    case MethodKind::kTwSimSearchCascade:
      return "TW-Sim-Search-Cascade";
  }
  return "unknown";
}

Engine::Engine(Dataset dataset, EngineOptions options)
    : options_(options),
      store_(std::move(dataset), options_.page_size_bytes),
      feature_index_(store_.dataset(), MakeFeatureIndexOptions(options_)),
      disk_model_(options_.disk, options_.page_size_bytes) {
  BuildMethods();
}

Engine::Engine(Dataset dataset, FeatureIndex index, EngineOptions options)
    : options_(options),
      store_(std::move(dataset), options_.page_size_bytes),
      feature_index_(std::move(index)),
      disk_model_(options_.disk, options_.page_size_bytes) {
  BuildMethods();
}

void Engine::BuildMethods() {
  if (options_.build_subsequence_index) {
    RebuildSubsequenceIndex();
  }
  if (options_.build_st_filter) {
    StFilterOptions st;
    st.num_categories = options_.st_filter_categories;
    st.combiner = options_.dtw.combiner;
    st.page_size_bytes = options_.page_size_bytes;
    st_filter_ = std::make_unique<StFilter>(dataset(), st);
    st_filter_search_ = std::make_unique<StFilterSearch>(
        st_filter_.get(), &store_, options_.dtw);
  }
  if (options_.index_buffer_pages > 0) {
    index_pool_ = std::make_unique<BufferPool>(options_.index_buffer_pages);
  }
  tw_sim_search_ = std::make_unique<TwSimSearch>(
      &feature_index_, &store_, options_.dtw, index_pool_.get());
  tw_sim_search_cascade_ = std::make_unique<TwSimSearch>(
      &feature_index_, &store_, options_.dtw, index_pool_.get(),
      options_.cascade_planner);
  tw_knn_search_ = std::make_unique<TwKnnSearch>(&feature_index_, &store_,
                                                 options_.dtw);
  naive_scan_ = std::make_unique<ScanSearch>(&store_, options_.dtw,
                                             /*lb_yi=*/false);
  lb_scan_ = std::make_unique<ScanSearch>(&store_, options_.dtw,
                                          /*lb_yi=*/true);
  RegisterMetrics();
}

void Engine::RegisterMetrics() {
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &MetricsRegistry::Global();
  queries_total_ = metrics_->GetCounter(
      "warpindex_queries_total",
      "queries served (range + kNN, all methods)");
  matches_total_ = metrics_->GetCounter("warpindex_query_matches_total",
                                        "matches returned by range queries");
  pool_hits_total_ = metrics_->GetCounter(
      "warpindex_index_pool_hits_total", "index buffer-pool page hits");
  pool_misses_total_ = metrics_->GetCounter(
      "warpindex_index_pool_misses_total", "index buffer-pool page misses");
  latency_ms_hist_ = metrics_->GetHistogram(
      "warpindex_query_latency_ms",
      ExponentialBoundaries(0.01, 2.0, 20),
      "measured CPU wall time per range query (ms)");
  candidate_ratio_hist_ = metrics_->GetHistogram(
      "warpindex_query_candidate_ratio",
      LinearBoundaries(0.05, 0.05, 20),
      "candidates / live sequences per range query");
  dtw_cells_hist_ = metrics_->GetHistogram(
      "warpindex_query_dtw_cells", ExponentialBoundaries(64, 4.0, 16),
      "exact-DTW DP cells per query");
  index_nodes_hist_ = metrics_->GetHistogram(
      "warpindex_query_index_nodes", ExponentialBoundaries(1, 2.0, 14),
      "index nodes visited per query");
  knn_latency_ms_hist_ = metrics_->GetHistogram(
      "warpindex_knn_latency_ms", ExponentialBoundaries(0.01, 2.0, 20),
      "measured CPU wall time per kNN query (ms)");
  dtw_evals_total_ = metrics_->GetCounter(
      "warpindex_query_dtw_evals_total",
      "exact-DTW evaluations started across all range and k-NN queries");
  // One in/pruned counter pair per known filtering stage, matching the
  // SearchCost::prunes stage names.
  const std::pair<std::string_view, std::string_view> stages[] = {
      {kStageFeatureLbCascade, "feature_lb"},
      {kStageLbYiCascade, "lb_yi"},
      {kStageLbKeoghCascade, "lb_keogh"},
      {kStageLbImprovedCascade, "lb_improved"},
      {kStageDtwPostfilter, "dtw"},
  };
  prune_handles_.clear();
  for (const auto& [stage, short_name] : stages) {
    StagePruneHandles handles;
    handles.stage = stage;
    handles.in = metrics_->GetCounter(
        "warpindex_cascade_" + std::string(short_name) + "_in_total",
        "candidates entering the " + std::string(stage) + " stage");
    handles.pruned = metrics_->GetCounter(
        "warpindex_cascade_" + std::string(short_name) + "_pruned_total",
        "candidates eliminated by the " + std::string(stage) + " stage");
    prune_handles_.push_back(handles);
  }
}

void Engine::RecordQueryMetrics(const SearchResult& result) const {
  queries_total_->Increment();
  matches_total_->Increment(result.matches.size());
  latency_ms_hist_->Observe(result.cost.wall_ms);
  const size_t live = store_.num_live();
  if (live > 0) {
    candidate_ratio_hist_->Observe(
        static_cast<double>(result.num_candidates) /
        static_cast<double>(live));
  }
  dtw_cells_hist_->Observe(static_cast<double>(result.cost.dtw_cells));
  index_nodes_hist_->Observe(static_cast<double>(result.cost.index_nodes));
  RecordWorkMetrics(result.cost);
}

void Engine::RecordWorkMetrics(const SearchCost& cost) const {
  // Per-query pool counters from the result, not before/after deltas of
  // the shared pool — concurrent queries would corrupt each other's
  // attribution.
  pool_hits_total_->Increment(cost.pool_hits);
  pool_misses_total_->Increment(cost.pool_misses);
  dtw_evals_total_->Increment(cost.dtw_evals);
  for (const auto& [stage, counts] : cost.prunes.entries()) {
    for (const StagePruneHandles& handles : prune_handles_) {
      if (handles.stage == stage) {
        handles.in->Increment(counts.in);
        handles.pruned->Increment(counts.pruned);
        break;
      }
    }
  }
}

Status Engine::ExportTrace(const Trace& trace, const std::string& path,
                           int64_t query_id) const {
  return AppendTraceJsonLines(trace, path, query_id);
}

Status Engine::ExportTraceEvents(const std::vector<const Trace*>& traces,
                                 const std::string& path) const {
  return WriteTraceEventsFile(traces, path);
}

Engine::Health Engine::TakeHealthSnapshot() const {
  Health health;
  health.dataset_sequences = dataset().size();
  health.live_sequences = store_.num_live();
  health.index_entries = feature_index_.size();
  health.index = feature_index_.rtree().HealthStats();
  if (index_pool_ != nullptr) {
    health.has_pool = true;
    health.pool = index_pool_->TakeStatsSnapshot();
  }
  return health;
}

void Engine::RebuildSubsequenceIndex() {
  assert(options_.build_subsequence_index);
  SubsequenceIndexOptions sub;
  sub.min_window = options_.subsequence_min_window;
  sub.max_window = options_.subsequence_max_window;
  sub.stride = options_.subsequence_stride;
  sub.rtree = MakeRTreeOptions(options_);
  sub.dtw = options_.dtw;
  subsequence_index_ =
      std::make_unique<SubsequenceIndex>(&store_.dataset(), sub);
  subsequence_index_stale_ = false;
}

std::vector<SubsequenceMatch> Engine::SearchSubsequences(
    const Sequence& query, double epsilon, SearchCost* cost) const {
  assert(subsequence_index_ != nullptr &&
         "construct the Engine with build_subsequence_index=true");
  if (subsequence_index_stale_) {
    throw std::logic_error(
        "subsequence index is stale: Insert() added sequences the window "
        "index does not cover; call RebuildSubsequenceIndex() first");
  }
  std::vector<SubsequenceMatch> matches =
      subsequence_index_->Search(query, epsilon, cost);
  // Suppress matches inside tombstoned sequences.
  std::erase_if(matches, [&](const SubsequenceMatch& m) {
    return !store_.IsLive(m.sequence_id);
  });
  return matches;
}

Status Engine::Save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  WARPINDEX_RETURN_IF_ERROR(dataset().SaveToFile(dir + "/dataset.wids"));
  WARPINDEX_RETURN_IF_ERROR(
      SaveRTreeToFile(feature_index_.rtree(), dir + "/index.wirt"));
  // Tombstones: ids not live in the store.
  std::vector<int64_t> dead;
  for (size_t i = 0; i < dataset().size(); ++i) {
    if (!store_.IsLive(static_cast<SequenceId>(i))) {
      dead.push_back(static_cast<int64_t>(i));
    }
  }
  BinaryWriter out(dir + "/tombstones.bin");
  if (!out.is_open()) {
    return Status::IoError("cannot write tombstones in " + dir);
  }
  out.Write(uint64_t{dead.size()});
  out.Write(dead.data(), dead.size() * sizeof(int64_t));
  return out.Finish() ? Status::Ok()
                      : Status::IoError("short tombstone write");
}

Status Engine::Open(const std::string& dir, EngineOptions options,
                    std::unique_ptr<Engine>* out) {
  Dataset dataset;
  WARPINDEX_RETURN_IF_ERROR(
      Dataset::LoadFromFile(dir + "/dataset.wids", &dataset));
  RTree tree(kFeatureDims);
  WARPINDEX_RETURN_IF_ERROR(LoadRTreeFromFile(dir + "/index.wirt", &tree));
  if (tree.dims() != kFeatureDims) {
    return Status::InvalidArgument("index is not a 4-d feature index");
  }
  if (tree.options().page_size_bytes != options.page_size_bytes) {
    return Status::InvalidArgument(
        "page size mismatch between saved index and EngineOptions");
  }
  std::vector<int64_t> dead;
  {
    BinaryReader in(dir + "/tombstones.bin");
    if (!in.is_open()) {
      return Status::IoError("cannot read tombstones in " + dir);
    }
    uint64_t count = 0;
    bool ok = in.Read(&count) && count <= dataset.size() &&
              in.Holds(count, sizeof(int64_t));
    dead.resize(ok ? count : 0);
    ok = ok && in.Read(dead.data(), count * sizeof(int64_t));
    if (!ok) {
      return Status::IoError("corrupt tombstone file in " + dir);
    }
  }
  auto engine = std::unique_ptr<Engine>(
      new Engine(std::move(dataset), FeatureIndex(std::move(tree)),
                 options));
  for (const int64_t id : dead) {
    if (!engine->store_.Remove(static_cast<SequenceId>(id))) {
      return Status::InvalidArgument("tombstone id out of range");
    }
  }
  *out = std::move(engine);
  return Status::Ok();
}

const SearchMethod& Engine::method(MethodKind kind) const {
  switch (kind) {
    case MethodKind::kTwSimSearch:
      return *tw_sim_search_;
    case MethodKind::kNaiveScan:
      return *naive_scan_;
    case MethodKind::kLbScan:
      return *lb_scan_;
    case MethodKind::kStFilter:
      assert(st_filter_search_ != nullptr &&
             "construct the Engine with build_st_filter=true");
      return *st_filter_search_;
    case MethodKind::kTwSimSearchCascade:
      return *tw_sim_search_cascade_;
  }
  return *tw_sim_search_;
}

SearchResult Engine::SearchWith(MethodKind kind, const Sequence& query,
                                double epsilon, Trace* trace,
                                DtwScratch* scratch) const {
  SearchResult result;
  {
    ScopedSpan span(trace, "query");
    TraceCounter(trace, "epsilon", epsilon);
    result = method(kind).Search(query, epsilon, trace, scratch);
  }
  RecordQueryMetrics(result);
  return result;
}

SearchResult Engine::Refine(MethodKind kind, const Sequence& query,
                            double epsilon,
                            std::vector<const Sequence*> candidates,
                            Trace* trace, DtwScratch* scratch) const {
  SearchResult result;
  result.num_candidates = candidates.size();
  (kind == MethodKind::kTwSimSearchCascade ? tw_sim_search_cascade_
                                           : tw_sim_search_)
      ->Refine(query, epsilon, std::move(candidates), &result, trace,
               scratch);
  RecordWorkMetrics(result.cost);
  return result;
}

KnnResult Engine::SearchKnnOver(const Sequence& query, size_t k,
                                double seed_bound,
                                KnnCandidateStream* candidates,
                                Trace* trace) const {
  KnnResult result;
  {
    ScopedSpan span(trace, "knn_query");
    result = tw_knn_search_->Search(query, k, seed_bound, candidates, trace);
  }
  queries_total_->Increment();
  knn_latency_ms_hist_->Observe(result.cost.wall_ms);
  dtw_cells_hist_->Observe(static_cast<double>(result.cost.dtw_cells));
  index_nodes_hist_->Observe(static_cast<double>(result.cost.index_nodes));
  RecordWorkMetrics(result.cost);
  return result;
}

SequenceId Engine::Insert(Sequence s) {
  assert(!s.empty());  // and finite, which Sequence asserts on construction
  const SequenceId id = store_.Append(std::move(s));
  feature_index_.Insert(id,
                        ExtractFeature(dataset()[static_cast<size_t>(id)]));
  if (subsequence_index_ != nullptr) {
    // The window index has no entries for the new sequence; answering
    // from it would silently miss matches. See SearchSubsequences.
    subsequence_index_stale_ = true;
  }
  return id;
}

bool Engine::Remove(SequenceId id) {
  if (!store_.Remove(id)) {
    return false;
  }
  const bool removed = feature_index_.Remove(
      id, ExtractFeature(dataset()[static_cast<size_t>(id)]));
  assert(removed);
  (void)removed;
  return true;
}

void Engine::RebuildStFilter() {
  assert(options_.build_st_filter);
  // The suffix tree indexes strings by dense position; rebuild over live
  // sequences only, preserving original ids via a remap in the filter
  // search would complicate the baseline — instead rebuild over the full
  // dataset and let tombstoned ids be filtered by liveness at
  // post-processing time.
  StFilterOptions st;
  st.num_categories = options_.st_filter_categories;
  st.combiner = options_.dtw.combiner;
  st.page_size_bytes = options_.page_size_bytes;
  st_filter_ = std::make_unique<StFilter>(dataset(), st);
  st_filter_search_ = std::make_unique<StFilterSearch>(st_filter_.get(),
                                                       &store_, options_.dtw);
}

}  // namespace warpindex
