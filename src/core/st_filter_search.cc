#include "core/st_filter_search.h"

#include <utility>

#include "common/timer.h"

namespace warpindex {

SearchResult StFilterSearch::SearchImpl(const Sequence& query,
                                        double epsilon, Trace* trace,
                                        DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  DtwScratch local_scratch;
  if (scratch == nullptr) {
    scratch = &local_scratch;  // reused across candidates within the query
  }

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
    TraceCounter(trace, "dtw_cells",
                 static_cast<double>(result.cost.dtw_cells));
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
