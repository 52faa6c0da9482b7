#include "plan/cascade_planner.h"

#include <cassert>

namespace warpindex {

const char* PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kPaper:
      return "paper";
    case PlanMode::kCascade:
      return "cascade";
    case PlanMode::kAuto:
      return "auto";
    case PlanMode::kFixed:
      return "fixed";
  }
  return "unknown";
}

bool StageDominated(CascadeStage stage, const DtwOptions& options) {
  const bool linf = options.combiner == DtwCombiner::kMax &&
                    options.step == StepCost::kAbsolute &&
                    !options.take_sqrt;
  switch (stage) {
    case CascadeStage::kFeatureLb:
      return true;
    case CascadeStage::kLbYi:
      return linf;
    case CascadeStage::kLbKeogh:
    case CascadeStage::kLbImproved:
      return linf && options.band < 0;
  }
  return false;
}

CascadePlan WithoutDominatedStages(const CascadePlan& plan,
                                   const DtwOptions& options) {
  CascadePlan out;
  for (const CascadeStage stage : plan.stages) {
    if (!StageDominated(stage, options)) {
      out.stages.push_back(stage);
    }
  }
  return out;
}

CascadePlanner::CascadePlanner(const DtwOptions& dtw_options,
                               CascadePlannerOptions options)
    : options_(options),
      useful_(WithoutDominatedStages(CascadePlan::Full(), dtw_options)) {
  assert(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0);
}

namespace {

void UpdateStats(CascadePlanner::StageStats* stats,
                 const StageObservation& obs, double alpha) {
  if (obs.in == 0) {
    return;
  }
  const double unit = obs.ms / static_cast<double>(obs.in);
  const double pass =
      static_cast<double>(obs.in - obs.pruned) / static_cast<double>(obs.in);
  if (stats->updates == 0) {
    stats->unit_cost_ms = unit;
    stats->pass_rate = pass;
  } else {
    stats->unit_cost_ms += alpha * (unit - stats->unit_cost_ms);
    stats->pass_rate += alpha * (pass - stats->pass_rate);
  }
  ++stats->updates;
}

}  // namespace

void CascadePlanner::Observe(const CascadeObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < kNumCascadeStages; ++i) {
    UpdateStats(&lb_stats_[i], obs.lb[i], options_.ewma_alpha);
  }
  UpdateStats(&dtw_stats_, obs.dtw, options_.ewma_alpha);
}

CascadePlan CascadePlanner::ChooseAutoLocked() const {
  const bool warming = plans_chosen_ <= options_.warmup_queries;
  const bool exploring =
      options_.explore_every > 0 &&
      plans_chosen_ % options_.explore_every == 0;
  if (warming || exploring || dtw_stats_.updates == 0) {
    return useful_;
  }

  // Backward greedy over the canonical order: `downstream` is the
  // expected per-candidate cost of everything after the stage under
  // consideration; a stage stays iff the bound evaluation is cheaper
  // than the downstream work it prunes in expectation.
  double downstream = dtw_stats_.unit_cost_ms;
  std::vector<CascadeStage> chosen_reversed;
  for (size_t k = useful_.stages.size(); k-- > 0;) {
    const CascadeStage stage = useful_.stages[k];
    const StageStats& stats = lb_stats_[static_cast<size_t>(stage)];
    if (stats.updates == 0) {
      continue;  // never measured (always-empty input); nothing to gain
    }
    const double saved = (1.0 - stats.pass_rate) * downstream;
    if (stats.unit_cost_ms < saved) {
      chosen_reversed.push_back(stage);
      downstream = stats.unit_cost_ms + stats.pass_rate * downstream;
    }
  }

  CascadePlan plan;
  plan.stages.assign(chosen_reversed.rbegin(), chosen_reversed.rend());
  return plan;
}

CascadePlan CascadePlanner::Choose() {
  std::lock_guard<std::mutex> lock(mu_);
  ++plans_chosen_;
  switch (options_.mode) {
    case PlanMode::kPaper:
      return CascadePlan::Paper();
    case PlanMode::kCascade:
      return useful_;
    case PlanMode::kFixed:
      return options_.fixed;
    case PlanMode::kAuto:
      return ChooseAutoLocked();
  }
  return useful_;
}

CascadePlanner::StageStats CascadePlanner::stage_stats(
    CascadeStage stage) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lb_stats_[static_cast<size_t>(stage)];
}

CascadePlanner::StageStats CascadePlanner::dtw_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dtw_stats_;
}

uint64_t CascadePlanner::plans_chosen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_chosen_;
}

CascadePlanner::Snapshot CascadePlanner::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.mode = options_.mode;
  snapshot.plans_chosen = plans_chosen_;
  switch (options_.mode) {
    case PlanMode::kPaper:
      snapshot.current_plan = CascadePlan::Paper();
      break;
    case PlanMode::kCascade:
      snapshot.current_plan = useful_;
      break;
    case PlanMode::kFixed:
      snapshot.current_plan = options_.fixed;
      break;
    case PlanMode::kAuto:
      // ChooseAutoLocked reads plans_chosen_ but does not bump it, so
      // the explore cadence is unaffected by snapshots.
      snapshot.current_plan = ChooseAutoLocked();
      break;
  }
  for (size_t i = 0; i < kNumCascadeStages; ++i) {
    snapshot.stages[i].stage = static_cast<CascadeStage>(i);
    snapshot.stages[i].stats = lb_stats_[i];
    for (const CascadeStage s : snapshot.current_plan.stages) {
      if (s == snapshot.stages[i].stage) {
        snapshot.stages[i].in_current_plan = true;
        break;
      }
    }
  }
  snapshot.dtw = dtw_stats_;
  return snapshot;
}

}  // namespace warpindex
