// CascadePlanner (plan/cascade_planner.h): kPaper and kFixed return
// their shape verbatim; kCascade runs the stages the dominance table does
// not mark for the DtwOptions; kAuto warms up on those stages, learns
// per-stage unit costs and pass rates from observations, keeps only
// stages that pay for themselves, and periodically re-explores dropped
// stages. The dominance table itself is checked against D_tw-lb exactly.

#include "plan/cascade_planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "common/prng.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_keogh.h"
#include "dtw/lb_yi.h"
#include "sequence/feature.h"

namespace warpindex {
namespace {

using Stages = std::vector<CascadeStage>;

DtwOptions WithBand(DtwOptions options, int band) {
  options.band = band;
  return options;
}

// The paper's model with a band: lb_keogh and lb_improved are useful.
DtwOptions BandedLinf() { return WithBand(DtwOptions::Linf(), 4); }

// One synthetic executed query: per-lb-stage (in, pruned, ms) triples
// plus the dtw stage's.
CascadeObservation MakeObservation(
    const std::vector<std::tuple<CascadeStage, uint64_t, uint64_t, double>>&
        lb,
    uint64_t dtw_in, uint64_t dtw_pruned, double dtw_ms) {
  CascadeObservation obs;
  for (const auto& [stage, in, pruned, ms] : lb) {
    obs.at(stage).in = in;
    obs.at(stage).pruned = pruned;
    obs.at(stage).ms = ms;
  }
  obs.dtw.in = dtw_in;
  obs.dtw.pruned = dtw_pruned;
  obs.dtw.ms = dtw_ms;
  return obs;
}

TEST(CascadePlannerTest, PaperModeChoosesNoLowerBoundStage) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kPaper;
  CascadePlanner planner(BandedLinf(), options);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(planner.Choose().stages.empty());
  }
  EXPECT_EQ(planner.plans_chosen(), 5u);
}

TEST(CascadePlannerTest, CascadeModeChoosesTheUndominatedStages) {
  using S = CascadeStage;
  const Stages sum_stages = {S::kLbYi, S::kLbKeogh, S::kLbImproved};
  const std::vector<std::pair<DtwOptions, Stages>> cases = {
      // Banded L_inf: feature_lb and lb_yi never exceed D_tw-lb.
      {BandedLinf(), {S::kLbKeogh, S::kLbImproved}},
      {WithBand(DtwOptions::Linf(), 0), {S::kLbKeogh, S::kLbImproved}},
      // The paper's setting: every stage is dominated.
      {DtwOptions::Linf(), {}},
      // The sum combiners keep lb_yi, banded or not.
      {DtwOptions::L1(), sum_stages},
      {WithBand(DtwOptions::L1(), 3), sum_stages},
      {DtwOptions::L2(), sum_stages},
      {WithBand(DtwOptions::L2(), 3), sum_stages},
  };
  for (const auto& [dtw_options, expected] : cases) {
    CascadePlanner planner(dtw_options);  // default mode: kCascade
    EXPECT_EQ(planner.Choose().stages, expected)
        << "band=" << dtw_options.band;
    EXPECT_EQ(planner.TakeSnapshot().current_plan.stages, expected);
    EXPECT_EQ(WithoutDominatedStages(CascadePlan::Full(), dtw_options).stages,
              expected);
  }
}

TEST(CascadePlannerTest, FixedModeChoosesTheFixedPlan) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kFixed;
  options.fixed.stages = {CascadeStage::kFeatureLb, CascadeStage::kLbKeogh};
  CascadePlanner planner(BandedLinf(), options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(planner.Choose().stages, options.fixed.stages);
  }
  // kFixed runs dominated stages too (ablations keep all four), even in
  // the paper's setting where every stage is dominated.
  options.fixed = CascadePlan::Full();
  CascadePlanner unbanded(DtwOptions::Linf(), options);
  EXPECT_EQ(unbanded.Choose().stages, CascadePlan::Full().stages);
}

TEST(CascadePlannerTest, AutoWarmupRunsTheFullCascade) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 4;
  options.explore_every = 0;
  CascadePlanner planner(BandedLinf(), options);
  for (size_t i = 0; i < options.warmup_queries; ++i) {
    EXPECT_EQ(planner.Choose().stages,
              (Stages{CascadeStage::kLbKeogh, CascadeStage::kLbImproved}))
        << "warm-up plan " << i;
  }
  // Nothing to explore in the paper's setting.
  CascadePlanner unbanded(DtwOptions::Linf(), options);
  EXPECT_TRUE(unbanded.Choose().stages.empty());
}

TEST(CascadePlannerTest, AutoKeepsCheapSelectiveStagesDropsUselessOnes) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 0;
  options.explore_every = 0;
  CascadePlanner planner(DtwOptions::L1(), options);

  // lb_yi: 0.0001 ms/candidate, prunes 90% — clearly worth it.
  // lb_keogh: 0.01 ms/candidate, prunes NOTHING — pure overhead.
  // dtw: 1 ms/candidate downstream.
  const CascadeObservation obs = MakeObservation(
      {{CascadeStage::kLbYi, 100, 90, 0.01},
       {CascadeStage::kLbKeogh, 10, 0, 0.1}},
      /*dtw_in=*/10, /*dtw_pruned=*/5, /*dtw_ms=*/10.0);
  planner.Observe(obs);

  const CascadePlan plan = planner.Choose();
  EXPECT_EQ(plan.stages, Stages{CascadeStage::kLbYi})
      << "chose " << plan.ToString();
}

TEST(CascadePlannerTest, AutoNeverPlansADominatedStage) {
  // Statistics that would make feature_lb (and, under banded L_inf,
  // lb_yi) look like a bargain cannot put it in a kAuto plan.
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 0;
  options.explore_every = 0;
  CascadePlanner planner(BandedLinf(), options);
  planner.Observe(MakeObservation(
      {{CascadeStage::kFeatureLb, 100, 90, 0.01},
       {CascadeStage::kLbYi, 100, 90, 0.01},
       {CascadeStage::kLbKeogh, 10, 5, 0.01}},
      /*dtw_in=*/5, /*dtw_pruned=*/2, /*dtw_ms=*/5.0));
  const CascadePlan plan = planner.Choose();
  EXPECT_EQ(plan.stages, Stages{CascadeStage::kLbKeogh})
      << "chose " << plan.ToString();
}

TEST(CascadePlannerTest, AutoDropsExpensiveStageWhoseSavingsAreTooSmall) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 0;
  options.explore_every = 0;
  CascadePlanner planner(BandedLinf(), options);

  // lb_improved costs 0.9 ms/candidate but only prunes 10% of a 1
  // ms/candidate dtw stage: 0.9 > 0.1 * 1.0, not worth it.
  const CascadeObservation obs = MakeObservation(
      {{CascadeStage::kLbImproved, 100, 10, 90.0}},
      /*dtw_in=*/90, /*dtw_pruned=*/45, /*dtw_ms=*/90.0);
  planner.Observe(obs);
  EXPECT_TRUE(planner.Choose().stages.empty());
}

TEST(CascadePlannerTest, AutoReexploresPeriodically) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 1;
  options.explore_every = 3;
  CascadePlanner planner(DtwOptions::L1(), options);

  // Statistics that make every stage a loser, so the greedy plan is
  // empty — except on warm-up and every 3rd plan, which must re-run
  // every useful stage to refresh dropped stages' statistics.
  CascadeObservation obs = MakeObservation(
      {{CascadeStage::kFeatureLb, 100, 0, 1.0},
       {CascadeStage::kLbYi, 100, 0, 1.0},
       {CascadeStage::kLbKeogh, 100, 0, 1.0},
       {CascadeStage::kLbImproved, 100, 0, 1.0}},
      /*dtw_in=*/100, /*dtw_pruned=*/50, /*dtw_ms=*/1.0);
  planner.Observe(obs);

  const Stages full = {CascadeStage::kLbYi, CascadeStage::kLbKeogh,
                       CascadeStage::kLbImproved};
  for (int plan_number = 1; plan_number <= 9; ++plan_number) {
    const CascadePlan plan = planner.Choose();
    const bool warming = plan_number <= 1;
    const bool exploring = plan_number % 3 == 0;
    if (warming || exploring) {
      EXPECT_EQ(plan.stages, full) << "plan " << plan_number;
    } else {
      EXPECT_TRUE(plan.stages.empty()) << "plan " << plan_number;
    }
  }
}

TEST(CascadePlannerTest, ObserveMaintainsEwmaStatsPerStage) {
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.ewma_alpha = 0.5;
  CascadePlanner planner(BandedLinf(), options);

  planner.Observe(MakeObservation({{CascadeStage::kLbKeogh, 100, 80, 10.0}},
                                  20, 10, 40.0));
  // First observation seeds the estimate directly.
  CascadePlanner::StageStats stats =
      planner.stage_stats(CascadeStage::kLbKeogh);
  EXPECT_DOUBLE_EQ(stats.unit_cost_ms, 0.1);
  EXPECT_DOUBLE_EQ(stats.pass_rate, 0.2);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_DOUBLE_EQ(planner.dtw_stats().unit_cost_ms, 2.0);

  planner.Observe(MakeObservation({{CascadeStage::kLbKeogh, 100, 40, 30.0}},
                                  60, 30, 120.0));
  stats = planner.stage_stats(CascadeStage::kLbKeogh);
  EXPECT_DOUBLE_EQ(stats.unit_cost_ms, 0.5 * 0.1 + 0.5 * 0.3);
  EXPECT_DOUBLE_EQ(stats.pass_rate, 0.5 * 0.2 + 0.5 * 0.6);
  EXPECT_EQ(stats.updates, 2u);
  // A stage the query never ran keeps its defaults.
  EXPECT_EQ(planner.stage_stats(CascadeStage::kLbImproved).updates, 0u);
}

TEST(CascadePlannerTest, ConcurrentChooseAndObserveAreSafe) {
  // Exercised under TSan in CI: the planner is shared by every worker of
  // the concurrent executor.
  CascadePlannerOptions options;
  options.mode = PlanMode::kAuto;
  options.warmup_queries = 2;
  options.explore_every = 4;
  CascadePlanner planner(BandedLinf(), options);

  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&planner]() {
      for (int i = 0; i < kIterations; ++i) {
        const CascadePlan plan = planner.Choose();
        CascadeObservation obs;
        uint64_t in = 64;
        for (const CascadeStage stage : plan.stages) {
          obs.at(stage).in = in;
          obs.at(stage).pruned = in / 4;
          obs.at(stage).ms = 0.01;
          in -= in / 4;
        }
        obs.dtw.in = in;
        obs.dtw.pruned = in / 2;
        obs.dtw.ms = 1.0;
        planner.Observe(obs);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(planner.plans_chosen(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

Sequence RandomWalk(Prng* prng, int64_t min_len, int64_t max_len) {
  Sequence s;
  const int64_t len = prng->UniformInt(min_len, max_len);
  double v = prng->UniformDouble(-1.0, 1.0);
  for (int64_t i = 0; i < len; ++i) {
    s.Append(v);
    v += prng->UniformDouble(-0.25, 0.25);
  }
  return s;
}

// The bound each stage computes in the filter cascade, with the query's
// artifacts built as the cascade builds them.
double StageBoundOf(CascadeStage stage, const Sequence& s, const Sequence& q,
                    const DtwOptions& options) {
  switch (stage) {
    case CascadeStage::kFeatureLb:
      return DtwLowerBoundDistance(ExtractFeature(s), ExtractFeature(q));
    case CascadeStage::kLbYi:
      return LbYiWithEnvelopes(s, ComputeEnvelope(s), q, ComputeEnvelope(q),
                               options);
    case CascadeStage::kLbKeogh:
      return LbKeogh(s, q, ComputeBandEnvelope(q, EnvelopeRadiusFor(options)),
                     options);
    case CascadeStage::kLbImproved:
      return LbImproved(s, q,
                        ComputeBandEnvelope(q, EnvelopeRadiusFor(options)),
                        options);
  }
  return 0.0;
}

TEST(StageDominanceTest, DominatedStagesNeverExceedTheIndexPredicate) {
  // Random walks of mismatched lengths (so the widened-envelope and
  // beyond-the-end paths run), every base distance, unbanded and banded.
  // Every stage the table marks for the options must return a bound <=
  // D_tw-lb, compared exactly; so for each pair passing the index
  // predicate (D_tw-lb <= epsilon) it can never prune.
  Prng prng(2001);
  size_t passing_pairs = 0;
  size_t dominated_checks = 0;
  bool banded_keogh_exceeds = false;
  for (const DtwOptions& base :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    for (const int band : {-1, 0, 3, 10}) {
      const DtwOptions options = WithBand(base, band);
      for (int trial = 0; trial < 150; ++trial) {
        const Sequence s = RandomWalk(&prng, 4, 48);
        const Sequence q = RandomWalk(&prng, 4, 48);
        const double lb_feature =
            DtwLowerBoundDistance(ExtractFeature(s), ExtractFeature(q));
        const double epsilon = prng.UniformDouble(0.0, 2.0);
        const bool passes = lb_feature <= epsilon;
        passing_pairs += passes ? 1 : 0;
        for (size_t i = 0; i < kNumCascadeStages; ++i) {
          const CascadeStage stage = static_cast<CascadeStage>(i);
          const double bound = StageBoundOf(stage, s, q, options);
          if (!StageDominated(stage, options)) {
            banded_keogh_exceeds |= stage == CascadeStage::kLbKeogh &&
                                    bound > lb_feature;
            continue;
          }
          ++dominated_checks;
          ASSERT_LE(bound, lb_feature)
              << CascadeStageName(stage) << " band=" << band
              << " combiner=" << static_cast<int>(options.combiner)
              << " |s|=" << s.size() << " |q|=" << q.size();
          if (passes) {
            ASSERT_LE(bound, epsilon) << CascadeStageName(stage);
          }
        }
      }
    }
  }
  // The sweep is not vacuous: many pairs pass the predicate, and a band
  // really lets LB_Keogh exceed D_tw-lb (why the table keeps it).
  EXPECT_GT(passing_pairs, 300u);
  EXPECT_GT(dominated_checks, 2000u);
  EXPECT_TRUE(banded_keogh_exceeds);
}

TEST(StageDominanceTest, TableMarksExactlyTheProvedStages) {
  using S = CascadeStage;
  for (const int band : {-1, 0, 3}) {
    const DtwOptions linf = WithBand(DtwOptions::Linf(), band);
    EXPECT_TRUE(StageDominated(S::kFeatureLb, linf));
    EXPECT_TRUE(StageDominated(S::kLbYi, linf));
    EXPECT_EQ(StageDominated(S::kLbKeogh, linf), band < 0);
    EXPECT_EQ(StageDominated(S::kLbImproved, linf), band < 0);
    for (const DtwOptions& sum : {WithBand(DtwOptions::L1(), band),
                                  WithBand(DtwOptions::L2(), band)}) {
      EXPECT_TRUE(StageDominated(S::kFeatureLb, sum));
      EXPECT_FALSE(StageDominated(S::kLbYi, sum));
      EXPECT_FALSE(StageDominated(S::kLbKeogh, sum));
      EXPECT_FALSE(StageDominated(S::kLbImproved, sum));
    }
  }
  // A max combiner over squared steps is not the paper's L_inf model.
  DtwOptions max_squared = DtwOptions::Linf();
  max_squared.step = StepCost::kSquared;
  EXPECT_FALSE(StageDominated(S::kLbYi, max_squared));
  EXPECT_FALSE(StageDominated(S::kLbKeogh, max_squared));
}

}  // namespace
}  // namespace warpindex
