// CascadePlanner: chooses which lower-bound stages a query runs.
//
// Modes:
//   kPaper    no lower-bound stage — the paper's Algorithm 1 verbatim
//             (index filter, then exact DTW). Reproduction runs.
//   kCascade  every stage of the full cascade (feature_lb > lb_yi >
//             lb_keogh > lb_improved > dtw) that can prune a candidate
//             for the planner's DtwOptions (see "Dominance" below). The
//             default.
//   kAuto     cost-based over those same stages: keep a stage only when
//             its measured cost is beaten by the work it is expected to
//             save downstream.
//   kFixed    an explicit stage subset, run as given, dominated stages
//             included (the ablation bench sweeps these).
//
// Dominance. Every candidate the planner's owner (TwSimSearch) refines
// already satisfies the paper's index predicate D_tw-lb(S, Q) <= epsilon
// (Theorem 1): base rows come from the R-tree square range query, and
// buffered rows are selected with DtwLowerBoundDistance itself. A stage
// whose bound never exceeds D_tw-lb for the configured DtwOptions can
// therefore never prune (a stage prunes only on bound > epsilon), and
// StageDominated() marks it:
//
//   feature_lb, always. The stage computes DtwLowerBoundDistance, the
//     index's own predicate. (The R-tree tests the square [q - eps,
//     q + eps] with rounded edges, so a base candidate on an edge may sit
//     a few ulps above epsilon; skipping the stage then sends it to exact
//     DTW, whose result is >= D_tw-lb bit for bit and rejects it. The
//     answer is unchanged.)
//   lb_yi, under the max combiner with absolute step and no sqrt (L_inf).
//     Its one-sided term max_i dist(S_i, [minQ, maxQ]) is
//     max(0, minQ - minS, maxS - maxQ): floating-point subtraction is
//     monotone in each argument, so the maximum over i is attained at
//     S_i = minS or maxS, bit for bit. With fabs(a - b) == fabs(b - a),
//     both one-sided terms are <= max(|dGreatest|, |dSmallest|) <= D_tw-lb.
//     The sum combiners (L1, L2) add terms over all elements and keep it.
//   lb_keogh and lb_improved, under L_inf with no band (band < 0). The
//     envelope is then full width: every window of Q is [minQ, maxQ]
//     (also beyond Q's end, since the effective radius max(|S|, |Q|)
//     clips every suffix window to all of Q). LB_Keogh is LB_Yi's first
//     one-sided term, hence <= D_tw-lb as above. LB_Improved's pass 2 is
//     max_j dist(Q_j, [min h, max h]) with h = clamp(S, [minQ, maxQ]);
//     clamping is monotone, so [min h, max h] = [clamp(minS),
//     clamp(maxS)]. Each Q_j lies in [minQ, maxQ]; if Q_j < min h then
//     min h = minS > minQ (or min h = maxQ < minS when minS > maxQ) and
//     min h - Q_j <= minS - minQ = |dSmallest|; symmetrically for
//     Q_j > max h with |dGreatest|. So both passes are <= D_tw-lb and
//     the paper's own setting (unbanded L_inf) plans the empty cascade.
//
// A band keeps lb_keogh and lb_improved (their windows are narrower than
// [minQ, maxQ], so they can exceed D_tw-lb). Dropping a dominated stage
// changes no answer and no count except that stage's own prune record.
// tests/cascade_planner_test.cc checks every marked stage against
// D_tw-lb exactly, over random pairs of each supported DtwOptions.
//
// The kAuto cost model. For every stage the planner maintains EWMA
// estimates of
//
//   unit_cost(stage)   milliseconds per candidate evaluated
//   pass_rate(stage)   fraction of candidates the stage lets through
//
// observed online from executed queries (Observe()). A plan is built by
// walking the useful (non-dominated) stages in canonical order BACKWARD
// from exact DTW, tracking
// `downstream` = expected per-candidate cost of everything after the
// current stage. A stage earns its place iff
//
//   unit_cost(stage) < (1 - pass_rate(stage)) * downstream
//
// i.e. evaluating the bound on one candidate costs less than the
// downstream work it prunes in expectation; included stages update
// downstream = unit_cost + pass_rate * downstream. The first
// `warmup_queries` plans and every `explore_every`-th plan thereafter
// run every useful stage so each keeps fresh statistics even after being
// dropped (selectivity drifts with the workload).
//
// Whatever the mode chooses, answers are identical — stages only ever
// prune candidates whose bound strictly exceeds epsilon (see
// filter_cascade.h); planning affects cost, never correctness.
//
// Thread-safety: Choose() and Observe() are internally synchronized; one
// planner may serve concurrent queries (the executor's SubmitBatch path).

#ifndef WARPINDEX_PLAN_CASCADE_PLANNER_H_
#define WARPINDEX_PLAN_CASCADE_PLANNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "dtw/base_distance.h"
#include "plan/filter_cascade.h"

namespace warpindex {

// True when `stage`'s bound never exceeds D_tw-lb for `options`, so it
// cannot prune a candidate that passed the index predicate (the
// dominance table above).
bool StageDominated(CascadeStage stage, const DtwOptions& options);

// The stages of `plan` that StageDominated() does not mark, in order.
CascadePlan WithoutDominatedStages(const CascadePlan& plan,
                                   const DtwOptions& options);

enum class PlanMode {
  kPaper,
  kCascade,
  kAuto,
  kFixed,
};

const char* PlanModeName(PlanMode mode);

struct CascadePlannerOptions {
  PlanMode mode = PlanMode::kCascade;
  // The plan used by kFixed.
  CascadePlan fixed;
  // kAuto: first plans that always run every useful stage.
  size_t warmup_queries = 8;
  // kAuto: after warm-up, every explore_every-th plan runs every useful
  // stage to refresh statistics for dropped ones. 0 disables.
  size_t explore_every = 32;
  // EWMA smoothing for unit cost and pass rate, in (0, 1].
  double ewma_alpha = 0.2;
};

class CascadePlanner {
 public:
  // `dtw_options` are those of the exact stage the plans feed; they
  // decide which stages are dominated.
  explicit CascadePlanner(const DtwOptions& dtw_options,
                          CascadePlannerOptions options = {});

  const CascadePlannerOptions& options() const { return options_; }
  PlanMode mode() const { return options_.mode; }

  // The plan for the next query. Thread-safe.
  CascadePlan Choose();

  // Folds one executed query's per-stage observations into the cost
  // model. Thread-safe; cheap (a handful of multiplies under a mutex).
  void Observe(const CascadeObservation& obs);

  // Introspection (tests, bench tables).
  struct StageStats {
    double unit_cost_ms = 0.0;  // per candidate evaluated
    double pass_rate = 1.0;     // kept / in
    uint64_t updates = 0;       // Observe() calls that saw this stage
  };
  StageStats stage_stats(CascadeStage stage) const;
  StageStats dtw_stats() const;
  uint64_t plans_chosen() const;

  // Point-in-time view of the planner for live introspection (/statusz):
  // the cost-model state behind every stage plus the plan the next query
  // would get. Taking a snapshot does NOT count as choosing a plan —
  // scraping the endpoint never perturbs kAuto's warmup/explore cadence.
  struct StageSnapshot {
    CascadeStage stage;
    StageStats stats;
    bool in_current_plan = false;
  };
  struct Snapshot {
    PlanMode mode = PlanMode::kCascade;
    uint64_t plans_chosen = 0;
    // What Choose() would return for the next query (kAuto: the cost
    // model's current pick, ignoring the explore cadence).
    CascadePlan current_plan;
    std::array<StageSnapshot, kNumCascadeStages> stages;
    StageStats dtw;
  };
  Snapshot TakeSnapshot() const;

 private:
  CascadePlan ChooseAutoLocked() const;

  CascadePlannerOptions options_;
  // What kCascade runs and kAuto chooses from: the full cascade minus
  // the dominated stages.
  CascadePlan useful_;

  mutable std::mutex mu_;
  std::array<StageStats, kNumCascadeStages> lb_stats_;
  StageStats dtw_stats_;
  uint64_t plans_chosen_ = 0;
};

}  // namespace warpindex

#endif  // WARPINDEX_PLAN_CASCADE_PLANNER_H_
