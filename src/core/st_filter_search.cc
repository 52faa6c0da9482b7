#include "core/st_filter_search.h"

#include <utility>

#include "common/timer.h"
#include "plan/filter_cascade.h"

namespace warpindex {

SearchResult StFilterSearch::SearchImpl(const Sequence& query,
                                        double epsilon, Trace* trace,
                                        DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  std::vector<SequenceId> candidates;
  {
    StageTimer stage(&result.cost.stages, &result.cost.stages_cpu, trace, kStageStFilter);
    StFilterQueryStats st_stats;
    candidates = filter_->FindCandidates(query, epsilon, &st_stats);
    result.cost.index_nodes = st_stats.nodes_visited;
    result.cost.dtw_cells += st_stats.dp_cells;
    // Distinct suffix-tree pages touched, charged as random reads (node
    // placement in a disk-resident suffix tree has no useful locality).
    result.cost.io.RecordRandomRead(st_stats.pages_accessed);
    TraceCounter(trace, "st_nodes",
                 static_cast<double>(st_stats.nodes_visited));
  }
  result.num_candidates = candidates.size();

  std::vector<const Sequence*> fetched;
  {
    StageTimer stage(&result.cost.stages, &result.cost.stages_cpu, trace, kStageCandidateFetch);
    fetched.reserve(candidates.size());
    for (const SequenceId id : candidates) {
      if (!store_->IsLive(id)) {
        continue;  // tombstoned since the suffix tree was (re)built
      }
      fetched.push_back(&store_->Fetch(id, &result.cost.io, trace));
    }
  }

  RunExactStage(dtw_, query, epsilon, fetched, &result, trace, scratch);
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
