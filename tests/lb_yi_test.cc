#include "dtw/lb_yi.h"

#include <gtest/gtest.h>

#include "common/prng.h"
#include "dtw/dtw.h"

namespace warpindex {
namespace {

TEST(LbYiTest, EnvelopeComputation) {
  const Envelope env = ComputeEnvelope(Sequence({3.0, -1.0, 7.0, 2.0}));
  EXPECT_EQ(env.smallest, -1.0);
  EXPECT_EQ(env.greatest, 7.0);
}

TEST(LbYiTest, ZeroWhenRangesOverlapEntirely) {
  const Sequence s({1.0, 2.0, 3.0});
  const Sequence q({0.0, 4.0});
  // Every element of s lies inside [0, 4]; every element of q lies outside
  // [1, 3] by exactly 1.
  EXPECT_DOUBLE_EQ(LbYi(s, q, DtwCombiner::kMax), 1.0);
}

TEST(LbYiTest, KnownDisjointRangesLinf) {
  const Sequence s({0.0, 1.0});
  const Sequence q({5.0, 6.0});
  // max_i dist(s_i, [5,6]) = 5; max_j dist(q_j, [0,1]) = 5.
  EXPECT_DOUBLE_EQ(LbYi(s, q, DtwCombiner::kMax), 5.0);
}

TEST(LbYiTest, KnownDisjointRangesL1) {
  const Sequence s({0.0, 1.0});
  const Sequence q({5.0, 6.0});
  // sum_i dist(s_i, [5,6]) = 5 + 4 = 9; sum_j dist(q_j, [0,1]) = 4 + 5 = 9.
  EXPECT_DOUBLE_EQ(LbYi(s, q, DtwCombiner::kSum), 9.0);
}

TEST(LbYiTest, AsymmetricContributionsTakeTheMax) {
  const Sequence s({0.0});          // range [0,0]
  const Sequence q({0.0, 10.0});    // range [0,10]
  // s side: dist(0, [0,10]) = 0. q side: dist(10, [0,0]) = 10.
  EXPECT_DOUBLE_EQ(LbYi(s, q, DtwCombiner::kMax), 10.0);
  EXPECT_DOUBLE_EQ(LbYi(q, s, DtwCombiner::kMax), 10.0);
}

Sequence RandomSequence(Prng* prng, int64_t max_len) {
  Sequence s;
  const int64_t len = prng->UniformInt(1, max_len);
  for (int64_t i = 0; i < len; ++i) {
    s.Append(prng->UniformDouble(-5.0, 5.0));
  }
  return s;
}

class LbYiPropertyTest : public testing::TestWithParam<DtwCombiner> {};

TEST_P(LbYiPropertyTest, LowerBoundsTheExactDistance) {
  const DtwCombiner combiner = GetParam();
  const Dtw dtw(combiner == DtwCombiner::kMax ? DtwOptions::Linf()
                                              : DtwOptions::L1());
  Prng prng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const Sequence a = RandomSequence(&prng, 20);
    const Sequence b = RandomSequence(&prng, 20);
    const double lb = LbYi(a, b, combiner);
    const double exact = dtw.Distance(a, b).distance;
    EXPECT_LE(lb, exact + 1e-9)
        << "a=" << a.ToString() << " b=" << b.ToString();
  }
}

TEST_P(LbYiPropertyTest, SymmetricAndNonNegative) {
  const DtwCombiner combiner = GetParam();
  Prng prng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence a = RandomSequence(&prng, 15);
    const Sequence b = RandomSequence(&prng, 15);
    const double ab = LbYi(a, b, combiner);
    EXPECT_GE(ab, 0.0);
    EXPECT_DOUBLE_EQ(ab, LbYi(b, a, combiner));
  }
}

TEST_P(LbYiPropertyTest, PrecomputedEnvelopesMatchOnTheFly) {
  const DtwCombiner combiner = GetParam();
  Prng prng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const Sequence a = RandomSequence(&prng, 15);
    const Sequence b = RandomSequence(&prng, 15);
    EXPECT_DOUBLE_EQ(LbYiWithEnvelopes(a, ComputeEnvelope(a), b,
                                       ComputeEnvelope(b), combiner),
                     LbYi(a, b, combiner));
  }
}

TEST(LbYiThresholdTest, ThresholdedBoundDecidesExactly) {
  // With abandon_above = t, both forms return the unthresholded bound bit
  // for bit when it is <= t, and a value > t otherwise; so a cascade
  // stage keeps exactly the candidates whose full bound is <= epsilon.
  // Mismatched lengths, every model; the band does not enter LB_Yi.
  Prng prng(14);
  size_t abandoned = 0;
  size_t exact = 0;
  for (DtwOptions options :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    for (const int band : {-1, 0, 5}) {
      options.band = band;
      for (int trial = 0; trial < 200; ++trial) {
        const Sequence s = RandomSequence(&prng, 30);
        const Sequence q = RandomSequence(&prng, 30);
        const Envelope q_env = ComputeEnvelope(q);
        const double full = LbYi(s, q, options);
        // Thresholds below, at and above the bound, and random ones.
        for (const double t :
             {full, full * 0.5, full * 1.5, 0.0, prng.UniformDouble(0.0, 3.0),
              prng.UniformDouble(0.0, 30.0)}) {
          const double lazy = LbYi(s, q, q_env, options, t);
          const double given = LbYiWithEnvelopes(s, ComputeEnvelope(s), q,
                                                 q_env, options, t);
          if (full <= t) {
            ++exact;
            ASSERT_EQ(lazy, full) << "t=" << t;
            ASSERT_EQ(given, full) << "t=" << t;
          } else {
            abandoned += lazy < full ? 1 : 0;
            ASSERT_GT(lazy, t) << "full=" << full;
            ASSERT_GT(given, t) << "full=" << full;
            ASSERT_LE(lazy, full);
            ASSERT_LE(given, full);
          }
        }
      }
    }
  }
  // Both branches ran, and some calls really stopped early.
  EXPECT_GT(exact, 1000u);
  EXPECT_GT(abandoned, 100u);
}

INSTANTIATE_TEST_SUITE_P(BothCombiners, LbYiPropertyTest,
                         testing::Values(DtwCombiner::kMax,
                                         DtwCombiner::kSum),
                         [](const testing::TestParamInfo<DtwCombiner>& info) {
                           return info.param == DtwCombiner::kMax ? "Linf"
                                                                  : "L1";
                         });

}  // namespace
}  // namespace warpindex
