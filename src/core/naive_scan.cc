#include "core/naive_scan.h"

#include "common/timer.h"

namespace warpindex {

SearchResult NaiveScan::SearchImpl(const Sequence& query, double epsilon,
                                   Trace* trace,
                                   DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  DtwScratch local_scratch;
  if (scratch == nullptr) {
    scratch = &local_scratch;  // reused across sequences within the scan
  }
  const PreparedQuery prepared = dtw_.Prepare(query);
  // One sequential pass; exact-DTW time is carved out of the scan so the
  // stage breakdown partitions the query: storage_scan holds the
  // deserialize/iterate residue, dtw_postfilter the DP work.
  double dtw_ms = 0.0;
  double dtw_cpu_ms = 0.0;
  {
    ScopedSpan span(trace, kStageStorageScan);
    WallTimer scan_timer;
    ThreadCpuTimer scan_cpu_timer;
    store_->ScanAll(
        [&](SequenceId id, const Sequence& s) {
          WallTimer per_item;
          ThreadCpuTimer per_item_cpu;
          ++result.cost.dtw_evals;
          const DtwResult d =
              dtw_.DistanceWithThreshold(s, prepared, epsilon, scratch);
          dtw_ms += per_item.ElapsedMillis();
          dtw_cpu_ms += per_item_cpu.ElapsedMillis();
          result.cost.dtw_cells += d.cells;
          if (d.distance <= epsilon) {
            result.matches.push_back(id);
            result.distances.push_back(d.distance);
          }
          return true;
        },
        &result.cost.io, trace);
    result.cost.stages.Add(kStageStorageScan,
                           scan_timer.ElapsedMillis() - dtw_ms);
    result.cost.stages.Add(kStageDtwPostfilter, dtw_ms);
    result.cost.stages_cpu.Add(kStageStorageScan,
                               scan_cpu_timer.ElapsedMillis() - dtw_cpu_ms);
    result.cost.stages_cpu.Add(kStageDtwPostfilter, dtw_cpu_ms);
    TraceCounter(trace, "dtw_cells",
                 static_cast<double>(result.cost.dtw_cells));
  }
  // No filtering step: the paper's Figure 2 depicts the final answers as
  // Naive-Scan's "candidates".
  result.num_candidates = result.matches.size();
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
