#include "core/tw_sim_search.h"

#include <utility>

#include "common/timer.h"
#include "sequence/feature.h"

namespace warpindex {

TwSimSearch::TwSimSearch(const FeatureIndex* index,
                         const SequenceStore* store, DtwOptions dtw_options,
                         const BufferPool* index_pool,
                         std::optional<CascadePlan> plan)
    : index_(index),
      store_(store),
      cascade_(dtw_options),
      index_pool_(index_pool),
      plan_(std::move(plan)) {}

std::vector<const Sequence*> TwSimSearch::FilterAndFetch(
    const Sequence& query, double epsilon, SearchResult* result,
    Trace* trace) const {
  // Step-1: feature extraction.
  const FeatureVector query_feature = ExtractFeature(query);

  // Step-2/3: range query on the multi-dimensional index.
  RTreeQueryStats rstats;
  std::vector<NodeId> accessed;
  if (index_pool_ != nullptr) {
    rstats.accessed_nodes = &accessed;
  }
  std::vector<SequenceId> candidates;
  {
    StageTimer stage(&result->cost.stages, &result->cost.stages_cpu, trace, kStageRtreeSearch);
    candidates = index_->RangeQuery(query_feature, epsilon, &rstats, trace);
    result->cost.index_nodes = rstats.nodes_accessed;
    if (index_pool_ != nullptr) {
      // Only pool misses reach the disk (each R-tree node is one page).
      for (const NodeId id : accessed) {
        if (index_pool_->Access(id, &result->cost.io, trace)) {
          ++result->cost.pool_hits;
        } else {
          ++result->cost.pool_misses;
        }
      }
    } else {
      result->cost.io.RecordRandomRead(rstats.nodes_accessed);
    }
  }
  result->num_candidates = candidates.size();

  // Step-5: read the candidate sequences from the store.
  std::vector<const Sequence*> fetched;
  {
    StageTimer stage(&result->cost.stages, &result->cost.stages_cpu, trace, kStageCandidateFetch);
    fetched.reserve(candidates.size());
    for (const SequenceId id : candidates) {
      fetched.push_back(&store_->Fetch(id, &result->cost.io, trace));
    }
  }
  return fetched;
}

void TwSimSearch::Refine(const Sequence& query, double epsilon,
                         std::vector<const Sequence*> candidates,
                         SearchResult* result, Trace* trace,
                         DtwScratch* scratch) const {
  if (plan_.has_value()) {
    TraceCounter(trace, "cascade_stages",
                 static_cast<double>(plan_->stages.size()));
    cascade_.RunLbStages(query, epsilon, &candidates, *plan_, result, trace);
  }
  // Step-4..7: post-processing with the exact time-warping distance.
  RunExactStage(cascade_.dtw(), query, epsilon, candidates, result, trace,
                scratch);
}

SearchResult TwSimSearch::SearchImpl(const Sequence& query, double epsilon,
                                     Trace* trace,
                                     DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  Refine(query, epsilon, FilterAndFetch(query, epsilon, &result, trace),
         &result, trace, scratch);
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
