#include "core/lb_scan.h"

#include "common/timer.h"

namespace warpindex {

SearchResult LbScan::SearchImpl(const Sequence& query, double epsilon,
                                Trace* trace, DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  DtwScratch local_scratch;
  if (scratch == nullptr) {
    scratch = &local_scratch;  // reused across sequences within the scan
  }
  const Envelope query_env = ComputeEnvelope(query);
  const PreparedQuery prepared = dtw_.Prepare(query);
  const DtwOptions& options = dtw_.options();
  // One sequential pass; lower-bound and exact-DTW time are carved out of
  // the scan so the stage breakdown partitions the query.
  double lb_ms = 0.0;
  double dtw_ms = 0.0;
  double lb_cpu_ms = 0.0;
  double dtw_cpu_ms = 0.0;
  {
    ScopedSpan span(trace, kStageStorageScan);
    WallTimer scan_timer;
    ThreadCpuTimer scan_cpu_timer;
    store_->ScanAll(
        [&](SequenceId id, const Sequence& s) {
          ++result.cost.lb_evals;
          WallTimer per_item;
          ThreadCpuTimer per_item_cpu;
          const double lb = LbYiWithEnvelopes(s, ComputeEnvelope(s), query,
                                              query_env, options);
          lb_ms += per_item.ElapsedMillis();
          lb_cpu_ms += per_item_cpu.ElapsedMillis();
          if (lb > epsilon) {
            return true;  // filtered out, no exact evaluation
          }
          ++result.num_candidates;
          per_item.Reset();
          per_item_cpu.Reset();
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
                           scan_timer.ElapsedMillis() - lb_ms - dtw_ms);
    result.cost.stages.Add(kStageLbYiCascade, lb_ms);
    result.cost.stages.Add(kStageDtwPostfilter, dtw_ms);
    result.cost.stages_cpu.Add(
        kStageStorageScan,
        scan_cpu_timer.ElapsedMillis() - lb_cpu_ms - dtw_cpu_ms);
    result.cost.stages_cpu.Add(kStageLbYiCascade, lb_cpu_ms);
    result.cost.stages_cpu.Add(kStageDtwPostfilter, dtw_cpu_ms);
    TraceCounter(trace, "lb_evals",
                 static_cast<double>(result.cost.lb_evals));
    TraceCounter(trace, "dtw_cells",
                 static_cast<double>(result.cost.dtw_cells));
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
