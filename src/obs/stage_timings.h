// Per-stage wall-time breakdown of a query, carried inside SearchCost.
//
// Where a Trace records a tree of timestamped spans for one query (and
// only when a caller attaches one), StageTimings is the always-on
// aggregate: each search method accumulates elapsed milliseconds per
// named stage, and SearchCost::Merge folds breakdowns additively across
// queries, so a bench workload reports exactly where the time went.
//
// Stage names are shared with the trace spans (see the kStage* constants)
// so a traced query and a workload table line up.

#ifndef WARPINDEX_OBS_STAGE_TIMINGS_H_
#define WARPINDEX_OBS_STAGE_TIMINGS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"

namespace warpindex {

// Canonical stage names used across search methods, traces, metrics, and
// bench tables.
//
// CPU attribution: a stage's CPU time is normally its own thread-CPU
// reading (StageTimer). Exact k-NN's incremental loop interleaves
// rtree_search, candidate_fetch and knn_refine per candidate, where a
// thread-CPU reading (a system call) would cost as much as the work, so
// it reads the CPU clock once around the loop and splits that time
// across the three stages by their wall-time shares.
inline constexpr std::string_view kStageRtreeSearch = "rtree_search";
inline constexpr std::string_view kStageCandidateFetch = "candidate_fetch";
inline constexpr std::string_view kStageLbYiCascade = "lb_yi_cascade";
inline constexpr std::string_view kStageFeatureLbCascade =
    "feature_lb_cascade";
inline constexpr std::string_view kStageLbKeoghCascade = "lb_keogh_cascade";
inline constexpr std::string_view kStageLbImprovedCascade =
    "lb_improved_cascade";
inline constexpr std::string_view kStageDtwPostfilter = "dtw_postfilter";
inline constexpr std::string_view kStageKnnRefine = "knn_refine";
inline constexpr std::string_view kStageStorageScan = "storage_scan";
inline constexpr std::string_view kStageStFilter = "st_filter";

// Small insertion-ordered map of stage name -> accumulated milliseconds.
// Queries touch at most a handful of stages, so linear probing beats a
// real map.
class StageTimings {
 public:
  // Adds `ms` to `stage` (creating it at the end of the order if new).
  void Add(std::string_view stage, double ms);

  // Accumulated milliseconds for `stage`; 0 if never recorded.
  double Get(std::string_view stage) const;

  // Sum over all stages.
  double TotalMillis() const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Folds `other` into this breakdown additively (stage by stage).
  void Merge(const StageTimings& other);

  void Reset() { entries_.clear(); }

  // Multiplies every stage by `factor` (bench averaging).
  void Scale(double factor);

  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

// RAII stage clock: on destruction adds the elapsed wall time to
// `timings` and the elapsed thread-CPU time to `cpu_timings` (each when
// non-null, under the same stage name) and, when a trace is attached,
// brackets the scope in a span of the same name. All sinks are optional
// and independent. The CPU reading is per-thread, so a StageTimer must
// be constructed and destroyed on the same thread (true of every stage
// scope today).
class StageTimer {
 public:
  StageTimer(StageTimings* timings, StageTimings* cpu_timings, Trace* trace,
             std::string_view stage)
      : timings_(timings),
        cpu_timings_(cpu_timings),
        stage_(stage),
        span_(trace, stage) {}

  ~StageTimer() {
    if (timings_ != nullptr) {
      timings_->Add(stage_, timer_.ElapsedMillis());
    }
    if (cpu_timings_ != nullptr) {
      cpu_timings_->Add(stage_, cpu_timer_.ElapsedMillis());
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageTimings* timings_;
  StageTimings* cpu_timings_;
  std::string_view stage_;
  WallTimer timer_;
  ThreadCpuTimer cpu_timer_;
  ScopedSpan span_;
};

}  // namespace warpindex

#endif  // WARPINDEX_OBS_STAGE_TIMINGS_H_
