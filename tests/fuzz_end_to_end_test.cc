// Randomized end-to-end differential fuzzing: across random engine
// configurations, datasets, queries, and tolerances, the indexed search
// must return exactly the sequential scan's answer set, on a single
// Engine, a ShardedEngine and an IngestEngine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "ingest/ingest_engine.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

std::vector<SequenceId> Sorted(std::vector<SequenceId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FuzzEndToEndTest, RandomConfigurationsAgreeWithScan) {
  Prng prng(20260705);
  for (int round = 0; round < 12; ++round) {
    // Random engine configuration.
    EngineOptions options;
    const int64_t page_pick = prng.UniformInt(0, 2);
    options.page_size_bytes =
        page_pick == 0 ? 512 : (page_pick == 1 ? 1024 : 4096);
    const int64_t split_pick = prng.UniformInt(0, 2);
    options.split_policy = split_pick == 0   ? SplitPolicy::kLinear
                           : split_pick == 1 ? SplitPolicy::kQuadratic
                                             : SplitPolicy::kRStar;
    options.bulk_load = prng.UniformInt(0, 1) == 1;
    // A random fixed lower-bound plan (any of the 16 stage subsets) for
    // kTwSimSearchCascade.
    const int64_t stage_mask = prng.UniformInt(0, 15);
    options.cascade_plan.emplace();
    for (const CascadeStage stage : CascadePlan::Full().stages) {
      if ((stage_mask >> static_cast<int>(stage)) & 1) {
        options.cascade_plan->stages.push_back(stage);
      }
    }
    options.index_buffer_pages =
        prng.UniformInt(0, 1) == 1 ? 32 : 0;
    options.dtw = prng.UniformInt(0, 1) == 1 ? DtwOptions::Linf()
                                             : DtwOptions::L1();

    // Random dataset.
    Dataset dataset;
    double eps_scale;
    if (prng.UniformInt(0, 1) == 0) {
      RandomWalkOptions rw;
      rw.num_sequences = static_cast<size_t>(prng.UniformInt(20, 120));
      rw.min_length = static_cast<size_t>(prng.UniformInt(5, 40));
      rw.max_length =
          rw.min_length + static_cast<size_t>(prng.UniformInt(0, 40));
      rw.seed = prng.NextUint64();
      dataset = GenerateRandomWalkDataset(rw);
      eps_scale = 0.5;
    } else {
      StockDataOptions stock;
      stock.num_sequences = static_cast<size_t>(prng.UniformInt(20, 80));
      stock.seed = prng.NextUint64();
      dataset = GenerateStockDataset(stock);
      eps_scale = 8.0;
    }
    if (options.dtw.combiner == DtwCombiner::kSum) {
      eps_scale *= 20.0;  // sum-accumulated distances live on a larger scale
    }

    const Engine engine(std::move(dataset), options);
    QueryWorkloadOptions qw;
    qw.num_queries = 4;
    qw.seed = prng.NextUint64();
    const auto queries = GenerateQueryWorkload(engine.dataset(), qw);
    for (const Sequence& q : queries) {
      const double eps = prng.UniformDouble(0.0, eps_scale);
      const auto indexed = Sorted(engine.Search(q, eps).matches);
      const auto cascaded = Sorted(
          engine.SearchWith(MethodKind::kTwSimSearchCascade, q, eps).matches);
      const auto scanned = Sorted(
          engine.SearchWith(MethodKind::kNaiveScan, q, eps).matches);
      ASSERT_EQ(indexed, scanned)
          << "round=" << round << " eps=" << eps
          << " page=" << options.page_size_bytes
          << " bulk=" << options.bulk_load;
      ASSERT_EQ(cascaded, scanned)
          << "round=" << round << " eps=" << eps
          << " page=" << options.page_size_bytes
          << " bulk=" << options.bulk_load
          << " plan=" << options.cascade_plan->ToString();
    }
  }
}

TEST(FuzzEndToEndTest, ChurnThenQueryAgainstScan) {
  Prng prng(99887766);
  RandomWalkOptions rw;
  rw.num_sequences = 60;
  rw.min_length = 20;
  rw.max_length = 50;
  Engine engine(GenerateRandomWalkDataset(rw), EngineOptions{});
  for (int step = 0; step < 200; ++step) {
    const int64_t op = prng.UniformInt(0, 9);
    if (op < 4) {
      Sequence s;
      const int64_t len = prng.UniformInt(5, 40);
      double v = prng.UniformDouble(1.0, 10.0);
      for (int64_t i = 0; i < len; ++i) {
        s.Append(v);
        v += prng.UniformDouble(-0.1, 0.1);
      }
      engine.Insert(std::move(s));
    } else if (op < 6) {
      const auto id = static_cast<SequenceId>(prng.UniformInt(
          0, static_cast<int64_t>(engine.dataset().size()) - 1));
      engine.Remove(id);  // may be already dead; both outcomes fine
    } else {
      const size_t pick = static_cast<size_t>(prng.UniformInt(
          0, static_cast<int64_t>(engine.dataset().size()) - 1));
      const Sequence q =
          PerturbSequence(engine.dataset()[pick], prng.NextUint64());
      const double eps = prng.UniformDouble(0.0, 0.6);
      const auto indexed = Sorted(engine.Search(q, eps).matches);
      const auto scanned = Sorted(
          engine.SearchWith(MethodKind::kNaiveScan, q, eps).matches);
      ASSERT_EQ(indexed, scanned) << "step=" << step;
    }
  }
  EXPECT_TRUE(engine.feature_index().rtree().CheckInvariants().ok());
}

// The sharded shape: a ShardedEngine with a random shard count,
// partitioner, band, combiner and fixed lower-bound plan, over random
// walks or the stock corpus (both of variable length), inline and on a
// pool. Both TW-Sim-Search kinds must return the scan's ids and
// distances, and k-NN the brute-force neighbors.
TEST(FuzzEndToEndTest, ShardedAgreesWithScan) {
  Prng prng(20261020);
  size_t matches = 0;
  for (int round = 0; round < 12; ++round) {
    ShardedEngineOptions options;
    options.num_shards = static_cast<size_t>(prng.UniformInt(1, 6));
    // Every (partitioner, pool) pair in turn; the rest is random.
    options.partitioner =
        round % 4 < 2 ? PartitionerKind::kHash : PartitionerKind::kRange;
    const bool pooled = round % 2 == 1;
    EngineOptions& engine_options = options.engine;
    engine_options.dtw = prng.UniformInt(0, 1) == 1 ? DtwOptions::Linf()
                                                    : DtwOptions::L1();
    engine_options.dtw.band = static_cast<int>(prng.UniformInt(-1, 6));
    const int64_t stage_mask = prng.UniformInt(0, 15);
    engine_options.cascade_plan.emplace();
    for (const CascadeStage stage : CascadePlan::Full().stages) {
      if ((stage_mask >> static_cast<int>(stage)) & 1) {
        engine_options.cascade_plan->stages.push_back(stage);
      }
    }
    Dataset dataset;
    double eps_scale;
    if (prng.UniformInt(0, 1) == 0) {
      RandomWalkOptions rw;
      rw.num_sequences = static_cast<size_t>(prng.UniformInt(20, 90));
      rw.min_length = static_cast<size_t>(prng.UniformInt(5, 30));
      rw.max_length =
          rw.min_length + static_cast<size_t>(prng.UniformInt(0, 40));
      rw.seed = prng.NextUint64();
      dataset = GenerateRandomWalkDataset(rw);
      eps_scale = 0.5;
    } else {
      StockDataOptions stock;
      stock.num_sequences = static_cast<size_t>(prng.UniformInt(20, 60));
      stock.seed = prng.NextUint64();
      dataset = GenerateStockDataset(stock);
      eps_scale = 8.0;
    }
    if (engine_options.dtw.combiner == DtwCombiner::kSum) {
      eps_scale *= 20.0;
    }
    const Engine scan(dataset, engine_options);
    ShardedEngine sharded(std::move(dataset), options);
    ThreadPool pool(3);
    sharded.AttachPool(pooled ? &pool : nullptr);
    const std::string where_round =
        "round=" + std::to_string(round) +
        " shards=" + std::to_string(options.num_shards) +
        " partitioner=" + PartitionerKindName(options.partitioner) +
        " pool=" + std::to_string(pooled) +
        " band=" + std::to_string(engine_options.dtw.band) +
        " plan=" + engine_options.cascade_plan->ToString();
    QueryWorkloadOptions qw;
    qw.num_queries = 4;
    qw.seed = prng.NextUint64();
    const Dtw dtw(engine_options.dtw);
    for (const Sequence& q : GenerateQueryWorkload(scan.dataset(), qw)) {
      const double eps = prng.UniformDouble(0.0, eps_scale);
      const std::string where = where_round + " eps=" + std::to_string(eps);
      SearchResult scanned = scan.SearchWith(MethodKind::kNaiveScan, q, eps);
      CanonicalizeMatchOrder(&scanned);
      for (const MethodKind kind :
           {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade}) {
        const SearchResult got = sharded.SearchWith(kind, q, eps);
        ASSERT_EQ(got.matches, scanned.matches)
            << where << " " << MethodKindName(kind);
        ASSERT_EQ(got.distances, scanned.distances)
            << where << " " << MethodKindName(kind);
      }
      matches += scanned.matches.size();
      std::vector<KnnMatch> all;
      for (size_t id = 0; id < scan.dataset().size(); ++id) {
        all.push_back({static_cast<SequenceId>(id),
                       dtw.Distance(scan.dataset()[id], q).distance});
      }
      std::sort(all.begin(), all.end(), KnnMatchOrder);
      const size_t k = static_cast<size_t>(prng.UniformInt(1, 8));
      all.resize(std::min(k, all.size()));
      ASSERT_EQ(sharded.SearchKnn(q, k).neighbors, all) << where << " k=" << k;
    }
  }
  EXPECT_GT(matches, 0u);
}

// The streaming-ingest shape: seeded inserts, deletes, and full and
// partial compactions on a pooled IngestEngine with a random band,
// combiner and fixed lower-bound plan. Between writes, both TW-Sim-Search
// kinds must return the scan's ids and distances over the live set, and
// k-NN the brute-force neighbors, whether the rows sit in a base or are
// still buffered.
TEST(FuzzEndToEndTest, IngestChurnAgreesWithScan) {
  Prng prng(20261018);
  // Coverage: queries answered while rows were buffered, and matches.
  size_t buffered_queries = 0;
  size_t matches = 0;
  for (int round = 0; round < 10; ++round) {
    IngestOptions options;
    options.num_shards = static_cast<size_t>(prng.UniformInt(1, 4));
    options.partitioner = prng.UniformInt(0, 1) == 1 ? PartitionerKind::kRange
                                                     : PartitionerKind::kHash;
    options.start_compactor = false;  // compactions are fuzzed ops
    EngineOptions& engine_options = options.engine;
    engine_options.dtw = prng.UniformInt(0, 1) == 1 ? DtwOptions::Linf()
                                                    : DtwOptions::L1();
    engine_options.dtw.band = static_cast<int>(prng.UniformInt(-1, 6));
    const int64_t stage_mask = prng.UniformInt(0, 15);
    engine_options.cascade_plan.emplace();
    for (const CascadeStage stage : CascadePlan::Full().stages) {
      if ((stage_mask >> static_cast<int>(stage)) & 1) {
        engine_options.cascade_plan->stages.push_back(stage);
      }
    }
    const double eps_scale =
        engine_options.dtw.combiner == DtwCombiner::kSum ? 10.0 : 0.5;

    RandomWalkOptions rw;
    rw.num_sequences = static_cast<size_t>(prng.UniformInt(20, 60));
    rw.min_length = static_cast<size_t>(prng.UniformInt(8, 24));
    rw.max_length = rw.min_length + static_cast<size_t>(prng.UniformInt(0, 24));
    rw.seed = prng.NextUint64();
    const Dataset base = GenerateRandomWalkDataset(rw);
    // Every row by global id, and which are live: the oracle's state.
    std::vector<Sequence> rows;
    for (size_t i = 0; i < base.size(); ++i) {
      rows.push_back(base[i]);
    }
    std::vector<bool> live(rows.size(), true);

    ThreadPool pool(3);
    IngestEngine ingest(base, options);
    ingest.AttachPool(&pool);
    const std::string where_round =
        "round=" + std::to_string(round) +
        " shards=" + std::to_string(options.num_shards) +
        " band=" + std::to_string(engine_options.dtw.band) +
        " plan=" + engine_options.cascade_plan->ToString();
    for (int step = 0; step < 80; ++step) {
      const std::string where = where_round + " step=" + std::to_string(step);
      const auto pick = [&] {
        return static_cast<size_t>(
            prng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1));
      };
      const int64_t op = prng.UniformInt(0, 19);
      if (op < 8) {
        Sequence s = PerturbSequence(rows[pick()], prng.NextUint64());
        ASSERT_EQ(ingest.Insert(s), static_cast<SequenceId>(rows.size()));
        rows.push_back(std::move(s));
        live.push_back(true);
      } else if (op < 11) {
        const size_t id = pick();
        ASSERT_EQ(ingest.Delete(static_cast<SequenceId>(id)), live[id])
            << where;
        live[id] = false;
      } else if (op == 11) {
        ingest.CompactAll();
      } else if (op == 12) {
        ingest.CompactShard(static_cast<size_t>(prng.UniformInt(
            0, static_cast<int64_t>(options.num_shards) - 1)));
      } else {
        // The scan oracle over the live set, ids kept.
        Engine reference(Dataset(rows), engine_options);
        std::vector<KnnMatch> all;
        const Sequence q = PerturbSequence(rows[pick()], prng.NextUint64());
        const Dtw dtw(engine_options.dtw);
        for (size_t id = 0; id < rows.size(); ++id) {
          if (!live[id]) {
            ASSERT_TRUE(reference.Remove(static_cast<SequenceId>(id)));
          } else {
            all.push_back({static_cast<SequenceId>(id),
                           dtw.Distance(rows[id], q).distance});
          }
        }
        const double eps = prng.UniformDouble(0.0, eps_scale);
        SearchResult scanned =
            reference.SearchWith(MethodKind::kNaiveScan, q, eps);
        CanonicalizeMatchOrder(&scanned);
        for (const MethodKind kind :
             {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade}) {
          const SearchResult got = ingest.SearchWith(kind, q, eps);
          ASSERT_EQ(got.matches, scanned.matches)
              << where << " " << MethodKindName(kind) << " eps=" << eps;
          ASSERT_EQ(got.distances, scanned.distances)
              << where << " " << MethodKindName(kind) << " eps=" << eps;
        }
        matches += scanned.matches.size();
        for (size_t s = 0; s < options.num_shards; ++s) {
          if (ingest.DeltaStats(s).entries > 0) {
            ++buffered_queries;
            break;
          }
        }
        std::sort(all.begin(), all.end(), KnnMatchOrder);
        const size_t k = static_cast<size_t>(prng.UniformInt(1, 8));
        all.resize(std::min(k, all.size()));
        ASSERT_EQ(ingest.SearchKnn(q, k).neighbors, all)
            << where << " k=" << k;
      }
    }
  }
  EXPECT_GT(buffered_queries, 100u);
  EXPECT_GT(matches, 300u);
}

}  // namespace
}  // namespace warpindex
