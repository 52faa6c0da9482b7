#include "core/tw_sim_search.h"

#include <utility>

#include "common/timer.h"
#include "dtw/lb_yi.h"
#include "sequence/feature.h"

namespace warpindex {

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

SearchResult TwSimSearch::SearchImpl(const Sequence& query, double epsilon,
                                     Trace* trace,
                                     DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  DtwScratch local_scratch;
  if (scratch == nullptr) {
    scratch = &local_scratch;  // reused across candidates within the query
  }

  std::vector<const Sequence*> fetched =
      FilterAndFetch(query, epsilon, &result, trace);

  // Optional LB_Yi cascade: discard candidates the O(n) bound already
  // rules out (LB_Yi <= D_tw, so answers are unchanged).
  if (lb_cascade_) {
    StageTimer stage(&result.cost.stages, &result.cost.stages_cpu, trace, kStageLbYiCascade);
    const Envelope query_env = ComputeEnvelope(query);
    const size_t in = fetched.size();
    size_t kept = 0;
    for (size_t i = 0; i < fetched.size(); ++i) {
      ++result.cost.lb_evals;
      if (LbYiWithEnvelopes(*fetched[i], ComputeEnvelope(*fetched[i]),
                            query, query_env, dtw_.options()) <= epsilon) {
        fetched[kept++] = fetched[i];
      }
    }
    fetched.resize(kept);
    result.cost.prunes.Record(kStageLbYiCascade, in, in - kept);
    TraceCounter(trace, "lb_evals",
                 static_cast<double>(result.cost.lb_evals));
  }

  // Step-4..7: post-processing with the exact time-warping distance.
  {
    StageTimer stage(&result.cost.stages, &result.cost.stages_cpu, trace, kStageDtwPostfilter);
    for (const Sequence* s : fetched) {
      ++result.cost.dtw_evals;
      const DtwResult d =
          dtw_.DistanceWithThreshold(*s, query, epsilon, scratch);
      result.cost.dtw_cells += d.cells;
      if (d.distance <= epsilon) {
        result.matches.push_back(s->id());
        result.distances.push_back(d.distance);
      }
    }
    result.cost.prunes.Record(kStageDtwPostfilter, fetched.size(),
                              fetched.size() - result.matches.size());
    TraceCounter(trace, "dtw_cells",
                 static_cast<double>(result.cost.dtw_cells));
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
