#include "core/tw_knn_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "shard/fanout.h"
#include "sequence/feature.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

Dataset WalkDataset(size_t n = 150, size_t min_len = 30,
                    size_t max_len = 80) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = min_len;
  options.max_length = max_len;
  return GenerateRandomWalkDataset(options);
}

std::vector<KnnMatch> BruteForceKnn(const Dataset& d, const Sequence& q,
                                    size_t k) {
  const Dtw dtw(DtwOptions::Linf());
  std::vector<KnnMatch> all;
  for (size_t i = 0; i < d.size(); ++i) {
    all.push_back(
        {static_cast<SequenceId>(i), dtw.Distance(d[i], q).distance});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const KnnMatch& a, const KnnMatch& b) {
                     return a.distance < b.distance;
                   });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(TwKnnSearchTest, MatchesBruteForceDistances) {
  const Engine engine(WalkDataset(), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      engine.dataset(), QueryWorkloadOptions{.num_queries = 10});
  for (const Sequence& q : queries) {
    for (const size_t k : {1u, 3u, 10u}) {
      const KnnResult got = engine.SearchKnn(q, k);
      const auto expected = BruteForceKnn(engine.dataset(), q, k);
      ASSERT_EQ(got.neighbors.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        // Ties can permute ids; distances must agree exactly.
        EXPECT_NEAR(got.neighbors[i].distance, expected[i].distance, 1e-9)
            << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(TwKnnSearchTest, NearestOfPerturbedCopyIsItsSource) {
  const Engine engine(WalkDataset(), EngineOptions{});
  for (const SequenceId source : {0, 17, 64}) {
    const Sequence q = PerturbSequence(
        engine.dataset()[static_cast<size_t>(source)],
        static_cast<uint64_t>(source) + 1);
    const KnnResult result = engine.SearchKnn(q, 1);
    ASSERT_EQ(result.neighbors.size(), 1u);
    EXPECT_EQ(result.neighbors[0].id, source);
  }
}

TEST(TwKnnSearchTest, ExactCopyHasDistanceZero) {
  const Engine engine(WalkDataset(), EngineOptions{});
  const KnnResult result = engine.SearchKnn(engine.dataset()[5], 1);
  ASSERT_EQ(result.neighbors.size(), 1u);
  EXPECT_EQ(result.neighbors[0].id, 5);
  EXPECT_EQ(result.neighbors[0].distance, 0.0);
}

TEST(TwKnnSearchTest, DistancesNonDecreasing) {
  const Engine engine(WalkDataset(), EngineOptions{});
  const Sequence q = PerturbSequence(engine.dataset()[9], 99);
  const KnnResult result = engine.SearchKnn(q, 20);
  ASSERT_EQ(result.neighbors.size(), 20u);
  for (size_t i = 1; i < result.neighbors.size(); ++i) {
    EXPECT_GE(result.neighbors[i].distance,
              result.neighbors[i - 1].distance);
  }
}

TEST(TwKnnSearchTest, KLargerThanDatabaseReturnsEverything) {
  const Engine engine(WalkDataset(12, 20, 30), EngineOptions{});
  const KnnResult result = engine.SearchKnn(engine.dataset()[0], 50);
  EXPECT_EQ(result.neighbors.size(), 12u);
}

TEST(TwKnnSearchTest, RefinesOnlyAFractionOfTheDatabase) {
  // The filter-and-refine cutoff should spare most exact evaluations when
  // the query sits close to its source.
  const Engine engine(WalkDataset(400, 50, 100), EngineOptions{});
  const Sequence q = PerturbSequence(engine.dataset()[123], 7);
  const KnnResult result = engine.SearchKnn(q, 5);
  EXPECT_EQ(result.neighbors.size(), 5u);
  EXPECT_LT(result.num_refined, engine.dataset().size() / 2);
  EXPECT_GE(result.num_refined, 5u);
}

TEST(TwKnnSearchTest, CostsPopulated) {
  const Engine engine(WalkDataset(), EngineOptions{});
  const KnnResult result = engine.SearchKnn(engine.dataset()[3], 4);
  EXPECT_GT(result.cost.index_nodes, 0u);
  EXPECT_GT(result.cost.io.random_page_reads, 0u);
  EXPECT_GT(result.cost.dtw_cells, 0u);
  EXPECT_GE(result.cost.wall_ms, 0.0);
}

TEST(TwKnnSearchTest, TiesResolveByIdDeterministically) {
  // Five exact copies of one sequence: the distance-0 tie at every rank
  // must resolve by SequenceId, so the answer is the lowest ids in
  // increasing order — regardless of heap insertion order.
  Dataset source = WalkDataset(40, 20, 30);
  std::vector<Sequence> sequences;
  for (size_t i = 0; i < source.size(); ++i) {
    sequences.push_back(source[i]);
  }
  const Sequence dup = source[10];
  sequences.push_back(dup);  // id 40
  sequences.push_back(dup);  // id 41
  sequences.push_back(dup);  // id 42
  sequences.push_back(dup);  // id 43
  const Engine engine(Dataset(std::move(sequences)), EngineOptions{});

  const KnnResult result = engine.SearchKnn(dup, 3);
  ASSERT_EQ(result.neighbors.size(), 3u);
  EXPECT_EQ(result.neighbors[0].id, 10);
  EXPECT_EQ(result.neighbors[1].id, 40);
  EXPECT_EQ(result.neighbors[2].id, 41);
  for (const KnnMatch& m : result.neighbors) {
    EXPECT_EQ(m.distance, 0.0);
  }
  // The canonical comparator agrees with the returned order.
  EXPECT_TRUE(std::is_sorted(result.neighbors.begin(),
                             result.neighbors.end(), KnnMatchOrder));
}

TEST(TwKnnSearchTest, KnnMatchOrderBreaksDistanceTiesById) {
  const KnnMatch near_low{3, 1.0};
  const KnnMatch near_high{7, 1.0};
  const KnnMatch far{1, 2.0};
  EXPECT_TRUE(KnnMatchOrder(near_low, near_high));
  EXPECT_FALSE(KnnMatchOrder(near_high, near_low));
  EXPECT_TRUE(KnnMatchOrder(near_high, far));
  EXPECT_FALSE(KnnMatchOrder(far, near_low));
  EXPECT_FALSE(KnnMatchOrder(near_low, near_low));  // irreflexive
}

TEST(TwKnnSearchTest, SeedAtTheKthDistanceKeepsTopKExact) {
  // A cache or a router may seed the exact global k-th distance. Pruning
  // is strictly-greater-than, so everything in the true top-k —
  // including ties AT the bound — must still surface.
  const Engine engine(WalkDataset(200, 30, 60), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      engine.dataset(), QueryWorkloadOptions{.num_queries = 6, .seed = 5});
  for (const Sequence& q : queries) {
    const KnnResult unbounded = engine.SearchKnn(q, 7);
    ASSERT_EQ(unbounded.neighbors.size(), 7u);
    const KnnResult bounded =
        engine.SearchKnnSeeded(q, 7, unbounded.neighbors.back().distance);
    ASSERT_EQ(bounded.neighbors.size(), 7u);
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(bounded.neighbors[i].id, unbounded.neighbors[i].id);
      EXPECT_EQ(bounded.neighbors[i].distance,
                unbounded.neighbors[i].distance);
    }
    // The bounded search should refine no MORE than the unbounded one.
    EXPECT_LE(bounded.num_refined, unbounded.num_refined);
  }
}

// The exact answer by brute force: every row's Distance under `options`,
// sorted by the canonical (distance, id) order, first k.
std::vector<KnnMatch> OracleKnn(const Dataset& d, const Sequence& q, size_t k,
                                const DtwOptions& options) {
  const Dtw dtw(options);
  std::vector<KnnMatch> all;
  for (size_t i = 0; i < d.size(); ++i) {
    all.push_back(
        {static_cast<SequenceId>(i), dtw.Distance(d[i], q).distance});
  }
  std::sort(all.begin(), all.end(), KnnMatchOrder);
  all.resize(std::min(k, all.size()));
  return all;
}

// Bit-identical neighbor lists: the same ids, the same distances.
void ExpectSameKnn(const KnnResult& got, const std::vector<KnnMatch>& want,
                   const std::string& where) {
  ASSERT_EQ(got.neighbors.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.neighbors[i], want[i])
        << where << " rank " << i << ": got id " << got.neighbors[i].id
        << " d " << got.neighbors[i].distance << ", want id " << want[i].id
        << " d " << want[i].distance;
  }
}

// Variable-length walks, each of rows 3, 11 and 19 duplicated three
// times (so several candidates tie at many distances, the k-th among
// them), plus a row whose feature tuple equals row 0's while its
// sequence differs (a 0 lower bound with a non-zero distance).
Dataset TieAndZeroBoundDataset() {
  const Dataset walks = WalkDataset(90, 20, 70);
  std::vector<Sequence> rows;
  for (size_t i = 0; i < walks.size(); ++i) {
    rows.push_back(walks[i]);
  }
  for (const size_t source : {3u, 11u, 19u}) {
    for (int copy = 0; copy < 3; ++copy) {
      rows.push_back(walks[source]);
    }
  }
  return Dataset(std::move(rows));
}

// A query with row 0's feature tuple (first, last, greatest, smallest)
// but a different shape: row 0's interior reversed.
Sequence SameFeatureAsRow0(const Dataset& d) {
  std::vector<double> v(d[0].data(), d[0].data() + d[0].size());
  std::reverse(v.begin() + 1, v.end() - 1);
  return Sequence(std::move(v));
}

// The decision-first heap fill (max combiner, no band) against the
// brute-force oracle: k from 1 past the row count, duplicate rows tying
// at the k-th distance, a query at lower bound 0 from some row (the
// provisional threshold cannot grow from 0 and falls back to +inf),
// and seeded searches.
TEST(TwKnnSearchTest, DecisionFirstFillMatchesBruteForceOracle) {
  const Engine engine(TieAndZeroBoundDataset(), EngineOptions{});
  const Dataset& d = engine.dataset();
  ASSERT_TRUE(Dtw(EngineOptions{}.dtw).RunsLinfPrePass());
  std::vector<Sequence> queries = GenerateQueryWorkload(
      d, QueryWorkloadOptions{.num_queries = 6, .seed = 16});
  queries.push_back(d[11]);                 // distance-0 ties with copies
  queries.push_back(SameFeatureAsRow0(d));  // lower bound 0, distance > 0
  ASSERT_EQ(ExtractFeature(queries.back()).AsPoint(),
            ExtractFeature(d[0]).AsPoint());
  ASSERT_GT(Dtw().Distance(queries.back(), d[0]).distance, 0.0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Sequence& q = queries[qi];
    for (const size_t k : {size_t{1}, size_t{10}, d.size(), d.size() + 5}) {
      const std::string where =
          "query " + std::to_string(qi) + " k=" + std::to_string(k);
      const auto want = OracleKnn(d, q, k, DtwOptions::Linf());
      ExpectSameKnn(engine.SearchKnn(q, k), want, where);
      const double kth = want.back().distance;
      ExpectSameKnn(engine.SearchKnnSeeded(q, k, kth), want,
                    where + " seeded at the k-th distance");
      ExpectSameKnn(engine.SearchKnnSeeded(q, k, 2.0 * kth + 1.0), want,
                    where + " seeded above it");
    }
  }
}

// Sum-combined and banded engines never take the decision-first fill
// (their thresholded evaluations run no pre-pass); their answers stay
// the brute-force oracle's under their own options.
TEST(TwKnnSearchTest, SumCombinedAndBandedEnginesMatchTheirOracles) {
  DtwOptions banded = DtwOptions::Linf();
  banded.band = 5;
  for (const DtwOptions& options : {DtwOptions::L1(), banded}) {
    ASSERT_FALSE(Dtw(options).RunsLinfPrePass());
    EngineOptions engine_options;
    engine_options.dtw = options;
    const Engine engine(TieAndZeroBoundDataset(), engine_options);
    const Dataset& d = engine.dataset();
    const auto queries = GenerateQueryWorkload(
        d, QueryWorkloadOptions{.num_queries = 4, .seed = 23});
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (const size_t k : {size_t{1}, size_t{10}, d.size() + 5}) {
        ExpectSameKnn(engine.SearchKnn(queries[qi], k),
                      OracleKnn(d, queries[qi], k, options),
                      "band " + std::to_string(options.band) + " query " +
                          std::to_string(qi) + " k=" + std::to_string(k));
      }
    }
  }
}

// SearchCost::dtw_evals counts every DP run of the refine loop. Banded
// evaluations decide each candidate once; the unbanded L_inf fill may
// re-test a pending candidate at a raised threshold.
TEST(TwKnnSearchTest, DtwEvalsCountEveryDpRun) {
  DtwOptions banded = DtwOptions::Linf();
  banded.band = 5;
  for (const DtwOptions& options : {banded, DtwOptions::Linf()}) {
    EngineOptions engine_options;
    engine_options.dtw = options;
    const Engine engine(TieAndZeroBoundDataset(), engine_options);
    const auto queries = GenerateQueryWorkload(
        engine.dataset(), QueryWorkloadOptions{.num_queries = 4, .seed = 31});
    for (const Sequence& q : queries) {
      for (const size_t k : {size_t{1}, size_t{10}}) {
        const KnnResult r = engine.SearchKnn(q, k);
        ASSERT_GT(r.num_refined, 0u);
        if (options.band >= 0) {
          EXPECT_EQ(r.cost.dtw_evals, r.num_refined) << "k=" << k;
        } else {
          EXPECT_GE(r.cost.dtw_evals, r.num_refined) << "k=" << k;
        }
      }
    }
  }
}

// The same loop over a candidate stream (shard/fanout.h) instead of the
// engine's index: every row offered as a buffered row, in scrambled
// order, with its D_tw-lb. The stream sorts them by bound, and the loop
// returns the oracle's answer, stopping at the cutoff like the index
// walk, seeded or not.
TEST(TwKnnSearchTest, BufferedRowStreamMatchesOracle) {
  DtwOptions banded = DtwOptions::Linf();
  banded.band = 5;
  for (const DtwOptions& options : {DtwOptions::Linf(), banded}) {
    EngineOptions engine_options;
    engine_options.dtw = options;
    BaseShard shard;
    shard.engine =
        std::make_shared<const Engine>(TieAndZeroBoundDataset(), engine_options);
    const std::vector<BaseShard> shards = {shard};
    const Dataset& d = shard.engine->dataset();
    const auto queries = GenerateQueryWorkload(
        d, QueryWorkloadOptions{.num_queries = 4, .seed = 41});
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Sequence& q = queries[qi];
      std::vector<BufferedKnnRow> rows;
      for (size_t i = d.size(); i-- > 0;) {  // reversed: unsorted input
        rows.push_back(
            {DtwLowerBoundDistance(ExtractFeature(d[i]), ExtractFeature(q)),
             static_cast<SequenceId>(i), &d[i]});
      }
      for (const size_t k : {size_t{1}, size_t{10}}) {
        const std::string where = "band " + std::to_string(options.band) +
                                  " query " + std::to_string(qi) +
                                  " k=" + std::to_string(k);
        const KnnResult streamed = SearchPartitionsKnn(
            shards, {}, {}, rows, q, k, kInfiniteDistance, nullptr);
        ExpectSameKnn(streamed, OracleKnn(d, q, k, options), where);
        EXPECT_LT(streamed.num_refined, d.size()) << where;
        const double kth = streamed.neighbors.back().distance;
        ExpectSameKnn(
            SearchPartitionsKnn(shards, {}, {}, rows, q, k, kth, nullptr),
            OracleKnn(d, q, k, options), where + " seeded at the k-th");
      }
    }
  }
}

TEST(TwKnnSearchTest, WorksOnStockCorpus) {
  StockDataOptions stock;
  stock.num_sequences = 120;
  const Engine engine(GenerateStockDataset(stock), EngineOptions{});
  const Sequence q = PerturbSequence(engine.dataset()[40], 11);
  const KnnResult got = engine.SearchKnn(q, 3);
  const auto expected = BruteForceKnn(engine.dataset(), q, 3);
  ASSERT_EQ(got.neighbors.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(got.neighbors[i].distance, expected[i].distance, 1e-9);
  }
  EXPECT_EQ(got.neighbors[0].id, 40);
}

}  // namespace
}  // namespace warpindex
