#include "core/scan_search.h"

#include <vector>

#include "common/timer.h"

namespace warpindex {

SearchResult ScanSearch::SearchImpl(const Sequence& query, double epsilon,
                                    Trace* trace,
                                    DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  // One sequential pass collects every live row, in id order.
  std::vector<const Sequence*> rows;
  {
    StageTimer stage(&result.cost.stages, &result.cost.stages_cpu, trace,
                     kStageStorageScan);
    rows.reserve(store_->num_live());
    store_->ScanAll(
        [&rows](SequenceId, const Sequence& s) {
          rows.push_back(&s);
          return true;
        },
        &result.cost.io, trace);
  }
  cascade_.RunLbStages(query, epsilon, &rows, plan_, &result, trace);
  RunExactStage(cascade_.dtw(), query, epsilon, rows, &result, trace,
                scratch);
  // Figure 2's candidates: LB_Yi's survivors. Naive-Scan has no
  // filtering step, so the paper depicts its final answers as its
  // "candidates".
  result.num_candidates =
      plan_.stages.empty() ? result.matches.size() : rows.size();
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
