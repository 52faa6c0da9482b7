// FilterCascade (plan/filter_cascade.h): for every plan — no stage, any
// single stage, the full cascade — the lower-bound stages followed by the
// exact stage (RunLbStages + RunExactStage, as TwSimSearch::Refine runs
// them) leave exactly the brute-force exact-DTW answer set (no false
// dismissals, ties at epsilon kept), and the per-stage accounting (prune
// counters, timings) is recorded consistently.

#include "plan/filter_cascade.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.h"
#include "dtw/dtw.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_keogh.h"
#include "dtw/lb_yi.h"

namespace warpindex {
namespace {

Sequence RandomWalkSequence(Prng* prng, int64_t min_len, int64_t max_len,
                            SequenceId id) {
  Sequence s;
  const int64_t len = prng->UniformInt(min_len, max_len);
  double v = prng->UniformDouble(-1.0, 1.0);
  for (int64_t i = 0; i < len; ++i) {
    s.Append(v);
    v += prng->UniformDouble(-0.15, 0.15);
  }
  s.set_id(id);
  return s;
}

std::vector<Sequence> MakeCandidates(Prng* prng, size_t n) {
  std::vector<Sequence> candidates;
  candidates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    candidates.push_back(RandomWalkSequence(prng, 5, 40,
                                            static_cast<SequenceId>(i)));
  }
  return candidates;
}

// The cascade borrows its candidates (as the store's sequences are).
std::vector<const Sequence*> Pointers(const std::vector<Sequence>& seqs) {
  std::vector<const Sequence*> out;
  for (const Sequence& s : seqs) {
    out.push_back(&s);
  }
  return out;
}

std::vector<SequenceId> BruteForceMatches(
    const std::vector<Sequence>& candidates, const Sequence& query,
    double epsilon, const DtwOptions& options) {
  const Dtw dtw(options);
  std::vector<SequenceId> matches;
  for (const Sequence& s : candidates) {
    if (dtw.Distance(s, query).distance <= epsilon) {
      matches.push_back(s.id());
    }
  }
  return matches;
}

// `plan`'s lower-bound stages, then the exact stage over the survivors.
void RunPlan(const FilterCascade& cascade, const Sequence& query,
             double epsilon, std::vector<const Sequence*> candidates,
             const CascadePlan& plan, SearchResult* result) {
  cascade.RunLbStages(query, epsilon, &candidates, plan, result,
                      /*trace=*/nullptr);
  RunExactStage(cascade.dtw(), query, epsilon, candidates, result,
                /*trace=*/nullptr, /*scratch=*/nullptr);
}

// Every plan shape worth distinguishing: empty (paper), each stage alone,
// pairs out of canonical adjacency, and the full cascade.
std::vector<CascadePlan> AllPlanShapes() {
  using S = CascadeStage;
  return {
      CascadePlan::Paper(),
      CascadePlan{{S::kFeatureLb}},
      CascadePlan{{S::kLbYi}},
      CascadePlan{{S::kLbKeogh}},
      CascadePlan{{S::kLbImproved}},
      CascadePlan{{S::kFeatureLb, S::kLbKeogh}},
      CascadePlan{{S::kLbYi, S::kLbImproved}},
      CascadePlan::Full(),
  };
}

TEST(FilterCascadeTest, AnswersMatchBruteForceForEveryPlanAndMode) {
  Prng prng(201);
  std::vector<DtwOptions> modes = {DtwOptions::Linf(), DtwOptions::L1(),
                                   DtwOptions::L2()};
  for (DtwOptions& options : modes) {
    for (const int band : {-1, 3}) {
      options.band = band;
      const FilterCascade cascade(options);
      const std::vector<Sequence> candidates = MakeCandidates(&prng, 60);
      for (int trial = 0; trial < 8; ++trial) {
        const Sequence query = RandomWalkSequence(&prng, 5, 40, -1);
        const double epsilon = prng.UniformDouble(0.1, 2.0);
        const std::vector<SequenceId> expected =
            BruteForceMatches(candidates, query, epsilon, options);
        for (const CascadePlan& plan : AllPlanShapes()) {
          SearchResult result;
          RunPlan(cascade, query, epsilon, Pointers(candidates), plan,
                  &result);
          ASSERT_EQ(result.matches, expected)
              << "plan=" << plan.ToString() << " band=" << band
              << " eps=" << epsilon;
        }
      }
    }
  }
}

TEST(FilterCascadeTest, RunLbStagesPlusManualDtwEqualsExactStage) {
  Prng prng(202);
  DtwOptions options = DtwOptions::Linf();
  options.band = 4;
  const FilterCascade cascade(options);
  const Dtw dtw(options);
  const std::vector<Sequence> candidates = MakeCandidates(&prng, 50);
  const Sequence query = RandomWalkSequence(&prng, 10, 30, -1);
  const double epsilon = 0.8;
  const CascadePlan plan = CascadePlan::Full();

  SearchResult full;
  RunPlan(cascade, query, epsilon, Pointers(candidates), plan, &full);

  SearchResult staged;
  std::vector<const Sequence*> survivors = Pointers(candidates);
  cascade.RunLbStages(query, epsilon, &survivors, plan, &staged, nullptr);
  std::vector<SequenceId> matches;
  for (const Sequence* s : survivors) {
    if (dtw.Distance(*s, query).distance <= epsilon) {
      matches.push_back(s->id());
    }
  }
  EXPECT_EQ(matches, full.matches);
  // The split path reports the same lower-bound work.
  EXPECT_EQ(staged.cost.lb_evals, full.cost.lb_evals);
}

TEST(FilterCascadeTest, EachStageKeepsExactlyTheCandidatesWithinEpsilon) {
  // The envelope stages stop early once a bound exceeds epsilon; the
  // survivors must still be exactly the candidates whose full bound is
  // <= epsilon, so pass rates do not depend on where a kernel stopped.
  Prng prng(204);
  for (DtwOptions options :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    for (const int band : {-1, 2, 6}) {
      options.band = band;
      const FilterCascade cascade(options);
      const std::vector<Sequence> candidates = MakeCandidates(&prng, 60);
      const Sequence query = RandomWalkSequence(&prng, 5, 40, -1);
      const BandEnvelope env =
          ComputeBandEnvelope(query, EnvelopeRadiusFor(options));
      for (const CascadeStage stage :
           {CascadeStage::kLbYi, CascadeStage::kLbKeogh,
            CascadeStage::kLbImproved}) {
        for (const double epsilon : {0.2, 0.6, 1.5}) {
          std::vector<const Sequence*> expected;
          for (const Sequence& s : candidates) {
            const double full =
                stage == CascadeStage::kLbYi ? LbYi(s, query, options)
                : stage == CascadeStage::kLbKeogh
                    ? LbKeogh(s, query, env, options)
                    : LbImproved(s, query, env, options);
            if (full <= epsilon) {
              expected.push_back(&s);
            }
          }
          std::vector<const Sequence*> survivors = Pointers(candidates);
          SearchResult result;
          cascade.RunLbStages(query, epsilon, &survivors,
                              CascadePlan{{stage}}, &result, nullptr);
          ASSERT_EQ(survivors, expected)
              << CascadeStageName(stage) << " band=" << band
              << " eps=" << epsilon;
        }
      }
    }
  }
}

TEST(FilterCascadeTest, KeoghAheadOfImprovedLeavesTheSameSurvivors) {
  // LB_Improved's pass 1 is LB_Keogh with the same early stop, so a plan
  // that runs LB_Keogh first only repeats that pass on its survivors:
  // {lb_keogh, lb_improved} and {lb_improved} keep the same candidates.
  Prng prng(206);
  size_t kept = 0;
  size_t pruned = 0;
  for (DtwOptions options :
       {DtwOptions::Linf(), DtwOptions::L1(), DtwOptions::L2()}) {
    for (const int band : {-1, 0, 3, 8}) {
      options.band = band;
      const FilterCascade cascade(options);
      const std::vector<Sequence> candidates = MakeCandidates(&prng, 60);
      for (int trial = 0; trial < 6; ++trial) {
        const Sequence query = RandomWalkSequence(&prng, 5, 40, -1);
        const double epsilon = prng.UniformDouble(0.05, 2.5);
        std::vector<const Sequence*> both = Pointers(candidates);
        std::vector<const Sequence*> improved = Pointers(candidates);
        SearchResult result;
        cascade.RunLbStages(
            query, epsilon, &both,
            CascadePlan{{CascadeStage::kLbKeogh, CascadeStage::kLbImproved}},
            &result, nullptr);
        cascade.RunLbStages(query, epsilon, &improved,
                            CascadePlan{{CascadeStage::kLbImproved}}, &result,
                            nullptr);
        ASSERT_EQ(both, improved)
            << "combiner=" << static_cast<int>(options.combiner)
            << " band=" << band << " eps=" << epsilon;
        kept += improved.size();
        pruned += candidates.size() - improved.size();
      }
    }
  }
  // Not vacuous: the sweep both keeps and prunes candidates.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(pruned, 0u);
}

TEST(FilterCascadeTest, RecordsPerStageCountersAndTimings) {
  Prng prng(203);
  DtwOptions options = DtwOptions::Linf();
  options.band = 2;
  const FilterCascade cascade(options);
  const std::vector<Sequence> candidates = MakeCandidates(&prng, 40);
  const Sequence query = RandomWalkSequence(&prng, 10, 30, -1);

  SearchResult result;
  RunPlan(cascade, query, /*epsilon=*/0.5, Pointers(candidates),
          CascadePlan::Full(), &result);

  // First stage sees the whole list; each later stage sees the previous
  // stage's survivors; dtw sees the last survivors.
  uint64_t expect_in = candidates.size();
  for (const CascadeStage stage :
       {CascadeStage::kFeatureLb, CascadeStage::kLbYi,
        CascadeStage::kLbKeogh, CascadeStage::kLbImproved}) {
    const StageCounts counts = result.cost.prunes.Get(CascadeStageName(stage));
    ASSERT_EQ(counts.in, expect_in) << CascadeStageName(stage);
    ASSERT_LE(counts.pruned, counts.in);
    EXPECT_GT(result.cost.stages.Get(CascadeStageName(stage)), 0.0);
    expect_in -= counts.pruned;
  }
  const StageCounts dtw_counts = result.cost.prunes.Get(kStageDtwPostfilter);
  EXPECT_EQ(dtw_counts.in, expect_in);
  EXPECT_EQ(dtw_counts.in - dtw_counts.pruned, result.matches.size());
  EXPECT_EQ(result.cost.dtw_evals, expect_in);
  // Every candidate entering a bound stage costs one lb evaluation.
  uint64_t expected_lb_evals = 0;
  for (const auto& [stage, counts] : result.cost.prunes.entries()) {
    if (stage != kStageDtwPostfilter) {
      expected_lb_evals += counts.in;
    }
  }
  EXPECT_EQ(result.cost.lb_evals, expected_lb_evals);
}

TEST(FilterCascadeTest, TieAtEpsilonIsNeverPruned) {
  // A candidate at exactly epsilon: S = Q + c elementwise, so under the
  // L_inf model every stage's bound and the exact distance all equal c.
  // Algorithm 1 accepts D_tw <= eps, so the cascade must keep the tie at
  // every stage, for every plan.
  const std::vector<double> base = {1.0, 2.5, 2.0, 3.5, 3.0};
  const double c = 0.75;
  Sequence query(base);
  std::vector<double> shifted = base;
  for (double& v : shifted) {
    v += c;
  }
  std::vector<Sequence> candidates = {Sequence(shifted, /*id=*/7)};

  for (const int band : {-1, 0, 2}) {
    DtwOptions options = DtwOptions::Linf();
    options.band = band;
    ASSERT_DOUBLE_EQ(Dtw(options).Distance(candidates[0], query).distance, c);
    const FilterCascade cascade(options);
    for (const CascadePlan& plan : AllPlanShapes()) {
      SearchResult result;
      RunPlan(cascade, query, /*epsilon=*/c, Pointers(candidates), plan,
              &result);
      ASSERT_EQ(result.matches, std::vector<SequenceId>{7})
          << "tie dropped by plan=" << plan.ToString() << " band=" << band;
    }
    // Just below the tie the candidate must be rejected — by the exact
    // stage, not necessarily by any bound.
    SearchResult below;
    RunPlan(cascade, query, c - 1e-9, Pointers(candidates),
            CascadePlan::Full(), &below);
    EXPECT_TRUE(below.matches.empty());
  }
}

TEST(FilterCascadeTest, EmptyCandidateListIsANoop) {
  const FilterCascade cascade(DtwOptions::Linf());
  const Sequence query(std::vector<double>{1.0, 2.0});
  SearchResult result;
  RunPlan(cascade, query, 1.0, {}, CascadePlan::Full(), &result);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.cost.dtw_evals, 0u);
  EXPECT_EQ(result.cost.lb_evals, 0u);
}

TEST(CascadePlanTest, ToStringAlwaysEndsInDtw) {
  EXPECT_EQ(CascadePlan::Paper().ToString(), "dtw");
  const std::string full = CascadePlan::Full().ToString();
  EXPECT_EQ(full,
            "feature_lb_cascade > lb_yi_cascade > lb_keogh_cascade > "
            "lb_improved_cascade > dtw");
}

}  // namespace
}  // namespace warpindex
