// Planning the filter cascade (plan/filter_cascade.h): DefaultCascadePlan
// reads the plan off the DtwOptions, one row of its table per similarity
// model and band; StageDominated, the proof of the table's first row, is
// checked against D_tw-lb exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_keogh.h"
#include "dtw/lb_yi.h"
#include "plan/filter_cascade.h"
#include "sequence/feature.h"

namespace warpindex {
namespace {

using Stages = std::vector<CascadeStage>;

DtwOptions WithBand(DtwOptions options, int band) {
  options.band = band;
  return options;
}

TEST(DefaultCascadePlanTest, EachRowOfTheTable) {
  using S = CascadeStage;
  // L_inf, no band: the empty plan.
  EXPECT_EQ(DefaultCascadePlan(DtwOptions::Linf()).stages, Stages{});
  for (const DtwOptions& base :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    // Any band: LB_Improved alone.
    for (const int band : {0, 3, 25}) {
      EXPECT_EQ(DefaultCascadePlan(WithBand(base, band)).stages,
                Stages{S::kLbImproved})
          << "band=" << band;
    }
  }
  // L1/L2, no band: LB_Yi alone.
  EXPECT_EQ(DefaultCascadePlan(DtwOptions::L1()).stages, Stages{S::kLbYi});
  EXPECT_EQ(DefaultCascadePlan(DtwOptions::L2()).stages, Stages{S::kLbYi});
  // A max combiner over squared steps is not the paper's L_inf model, so
  // LB_Yi can prune there.
  DtwOptions max_squared = DtwOptions::Linf();
  max_squared.step = StepCost::kSquared;
  EXPECT_EQ(DefaultCascadePlan(max_squared).stages, Stages{S::kLbYi});
}

TEST(DefaultCascadePlanTest, PlansNoDominatedStage) {
  // The first row follows from the dominance table: under unbanded L_inf
  // every stage is dominated. No row plans a dominated stage.
  for (size_t i = 0; i < kNumCascadeStages; ++i) {
    EXPECT_TRUE(StageDominated(static_cast<CascadeStage>(i),
                               DtwOptions::Linf()));
  }
  for (const DtwOptions& base :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    for (const int band : {-1, 0, 5}) {
      const DtwOptions options = WithBand(base, band);
      for (const CascadeStage stage : DefaultCascadePlan(options).stages) {
        EXPECT_FALSE(StageDominated(stage, options))
            << CascadeStageName(stage) << " band=" << band;
      }
    }
  }
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
