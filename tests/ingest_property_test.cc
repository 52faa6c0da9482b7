// The streaming-ingest acceptance property (docs/INGEST.md): at every
// quiescent point — fresh deltas, partially compacted, fully compacted —
// an IngestEngine answers bit-identically to a from-scratch Engine over
// the same live set, for every shard count, both partitioners, every
// search method, and kNN. A second suite hammers the engine with
// concurrent writers, query threads, and the background compactor, so
// running this under TSan certifies the epoch-snapshot read path and the
// freeze/swap protocol are race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "ingest/ingest_engine.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset WalkDataset(uint64_t seed, size_t n = 60) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = 20;
  options.max_length = 48;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

// From-scratch reference over the live set: base rows at ids
// 0..base-1, `added` appended in id order (Dataset::Add re-ids each row
// to its position, which is exactly the ingest engine's id assignment),
// then `deleted` tombstoned.
std::unique_ptr<Engine> BuildReference(const Dataset& base,
                                       const std::vector<Sequence>& added,
                                       const std::vector<SequenceId>& deleted,
                                       const EngineOptions& options = {}) {
  Dataset all = base;
  for (const Sequence& s : added) {
    all.Add(s);
  }
  auto reference = std::make_unique<Engine>(std::move(all), options);
  for (const SequenceId id : deleted) {
    EXPECT_TRUE(reference->Remove(id)) << "reference Remove(" << id << ")";
  }
  return reference;
}

// One full equivalence check between `ingest` and the reference: every
// range method (ids and distances) plus kNN over a small query workload.
void ExpectEquivalent(const IngestEngine& ingest, const Engine& reference,
                      const std::vector<Sequence>& queries,
                      const std::string& label) {
  const MethodKind kinds[] = {
      MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade,
      MethodKind::kNaiveScan, MethodKind::kLbScan};
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Sequence& q = queries[qi];
    for (const double epsilon : {0.1, 0.35}) {
      SearchResult expected = reference.Search(q, epsilon);
      CanonicalizeMatchOrder(&expected);
      for (const MethodKind kind : kinds) {
        const SearchResult got = ingest.SearchWith(kind, q, epsilon);
        EXPECT_EQ(got.matches, expected.matches)
            << label << " q=" << qi << " method=" << MethodKindName(kind)
            << " eps=" << epsilon;
        EXPECT_EQ(got.distances, expected.distances)
            << label << " q=" << qi << " method=" << MethodKindName(kind)
            << " eps=" << epsilon;
      }
    }
    for (const size_t nn : {1u, 4u, 10u}) {
      const KnnResult expected = reference.SearchKnn(q, nn);
      const KnnResult got = ingest.SearchKnn(q, nn);
      ASSERT_EQ(got.neighbors.size(), expected.neighbors.size())
          << label << " q=" << qi << " nn=" << nn;
      for (size_t i = 0; i < expected.neighbors.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, expected.neighbors[i].id)
            << label << " q=" << qi << " nn=" << nn << " i=" << i;
        EXPECT_EQ(got.neighbors[i].distance, expected.neighbors[i].distance)
            << label << " q=" << qi << " nn=" << nn << " i=" << i;
      }
    }
  }
}

// Parameters: the partitioner and the DTW band. Band -1 is the paper's
// unconstrained L_inf; band 4, about 10% of the rows' 20-48 points (the
// ingest-cascade benchmark's shape), makes the cascade kind's LB_Keogh
// and LB_Improved stages prune delta candidates too.
class IngestPropertyTest
    : public ::testing::TestWithParam<std::tuple<PartitionerKind, int>> {
 protected:
  PartitionerKind partitioner() const { return std::get<0>(GetParam()); }
  DtwOptions dtw() const {
    DtwOptions options = DtwOptions::Linf();
    options.band = std::get<1>(GetParam());
    return options;
  }
};

TEST_P(IngestPropertyTest, MatchesFromScratchEngineAcrossCompactionPoints) {
  for (const size_t num_shards : {1u, 3u}) {
    const uint64_t seed = 17 + num_shards;
    const Dataset base = WalkDataset(seed);
    const auto queries = GenerateQueryWorkload(
        base, QueryWorkloadOptions{.num_queries = 5, .seed = seed + 1});

    IngestOptions options;
    options.num_shards = num_shards;
    options.partitioner = partitioner();
    options.engine.dtw = dtw();
    options.start_compactor = false;  // compaction points are explicit
    IngestEngine ingest(WalkDataset(seed), options);
    ThreadPool pool(4);
    ingest.AttachPool(&pool);

    std::vector<Sequence> added;
    std::vector<SequenceId> deleted;
    const Dataset extra = WalkDataset(seed + 99, 40);
    const auto check = [&](const std::string& label) {
      const std::unique_ptr<Engine> reference =
          BuildReference(base, added, deleted, options.engine);
      ExpectEquivalent(ingest, *reference, queries,
                       label + " K=" + std::to_string(num_shards));
    };

    // Point 1: buffered deltas only (every insert still in its log).
    for (size_t i = 0; i < 25; ++i) {
      added.push_back(extra[i]);
      EXPECT_EQ(ingest.Insert(extra[i]),
                static_cast<SequenceId>(base.size() + i));
    }
    deleted.push_back(3);   // base row
    deleted.push_back(static_cast<SequenceId>(base.size() + 4));  // buffered
    EXPECT_TRUE(ingest.Delete(3));
    EXPECT_TRUE(ingest.Delete(static_cast<SequenceId>(base.size() + 4)));
    check("buffered");

    // Point 2: one shard compacted, the rest still buffering.
    ingest.CompactShard(0);
    check("partial-compaction");

    // Point 3: fully compacted (deltas empty, tombstones consumed).
    ingest.CompactAll();
    check("compacted");

    // Point 4: fresh writes on top of the compacted epoch, including a
    // delete of a row that now lives in a rebuilt base.
    for (size_t i = 25; i < extra.size(); ++i) {
      added.push_back(extra[i]);
      ingest.Insert(extra[i]);
    }
    deleted.push_back(static_cast<SequenceId>(base.size() + 10));
    EXPECT_TRUE(
        ingest.Delete(static_cast<SequenceId>(base.size() + 10)));
    check("recharged");

    // Point 5: the same answers with the pool detached (sequential
    // fan-out fallback).
    ingest.AttachPool(nullptr);
    check("no-pool");
    EXPECT_EQ(ingest.live_size(), base.size() + added.size() - deleted.size());
  }
}

// k-NN work on an IngestEngine with buffered inserts and tombstones
// (base rows and buffered rows) equals that of a fresh Engine built over
// the live rows alone: the buffered rows join the partitions' candidate
// stream, and dead rows leave it before they are fetched, so the same
// candidates are refined in the same order (random walks have no
// lower-bound ties) and the DTW evaluations, DP cells and refined counts
// match.
TEST_P(IngestPropertyTest, KnnWorkEqualsAFreshEngineOverTheLiveSet) {
  IngestOptions options;
  options.num_shards = 4;
  options.partitioner = partitioner();
  options.engine.dtw = dtw();
  options.start_compactor = false;
  const Dataset base = WalkDataset(301, 120);
  IngestEngine ingest(base, options);
  std::vector<Sequence> rows(base.sequences().begin(),
                             base.sequences().end());
  for (size_t i = 0; i < 30; ++i) {
    const Sequence s = PerturbSequence(base[(i * 7) % base.size()], 900 + i);
    ASSERT_EQ(ingest.Insert(s), static_cast<SequenceId>(rows.size()));
    rows.push_back(s);
  }
  std::vector<bool> live(rows.size(), true);
  // Base rows and buffered rows alike.
  for (size_t id = 3; id < rows.size(); id += 11) {
    ASSERT_TRUE(ingest.Delete(static_cast<SequenceId>(id)));
    live[id] = false;
  }
  Dataset live_rows;
  std::vector<SequenceId> global_of;  // fresh engine id -> global id
  for (size_t id = 0; id < rows.size(); ++id) {
    if (live[id]) {
      live_rows.Add(rows[id]);
      global_of.push_back(static_cast<SequenceId>(id));
    }
  }
  const Engine fresh(std::move(live_rows), options.engine);
  const auto queries = GenerateQueryWorkload(
      base, QueryWorkloadOptions{.num_queries = 6, .seed = 302});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const size_t nn : {1u, 4u, 10u}) {
      const std::string where =
          "q=" + std::to_string(qi) + " nn=" + std::to_string(nn);
      KnnResult want = fresh.SearchKnn(queries[qi], nn);
      for (KnnMatch& match : want.neighbors) {
        match.id = global_of[static_cast<size_t>(match.id)];
      }
      const KnnResult got = ingest.SearchKnn(queries[qi], nn);
      EXPECT_EQ(got.neighbors, want.neighbors) << where;
      EXPECT_EQ(got.cost.dtw_evals, want.cost.dtw_evals) << where;
      EXPECT_EQ(got.cost.dtw_cells, want.cost.dtw_cells) << where;
      EXPECT_EQ(got.num_refined, want.num_refined) << where;
    }
  }
}

TEST_P(IngestPropertyTest, ConcurrentWritesQueriesAndCompactionAgree) {
  const Dataset base = WalkDataset(5, 40);
  const auto queries = GenerateQueryWorkload(
      base, QueryWorkloadOptions{.num_queries = 4, .seed = 6});

  IngestOptions options;
  options.num_shards = 3;
  options.partitioner = partitioner();
  options.engine.dtw = dtw();
  options.start_compactor = true;  // background compactor in the mix
  options.compact_max_delta_entries = 24;
  options.compact_max_tombstones = 16;
  options.compact_poll_ms = 2.0;
  IngestEngine ingest(WalkDataset(5, 40), options);
  ThreadPool pool(4);
  ingest.AttachPool(&pool);

  // Two writers, each inserting its own rows and deleting every 5th of
  // its own acknowledged inserts (disjoint victims: every delete must
  // ack true). Two query threads run range + kNN against whatever
  // snapshot they get; answers are unasserted here (no stable ground
  // truth mid-stream) but every access is TSan-checked.
  constexpr size_t kWriters = 2;
  constexpr size_t kPerWriter = 60;
  std::vector<std::vector<std::pair<SequenceId, Sequence>>> acked(kWriters);
  std::vector<std::vector<SequenceId>> removed(kWriters);
  std::atomic<bool> stop_queries{false};
  std::atomic<int> delete_failures{0};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const Dataset mine = WalkDataset(100 + w, kPerWriter);
      for (size_t i = 0; i < kPerWriter; ++i) {
        const SequenceId id = ingest.Insert(mine[i]);
        acked[w].emplace_back(id, mine[i]);
        if ((i + 1) % 5 == 0) {
          const SequenceId victim = acked[w][i - 3].first;
          if (ingest.Delete(victim)) {
            removed[w].push_back(victim);
          } else {
            delete_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      size_t round = 0;
      while (!stop_queries.load(std::memory_order_relaxed)) {
        const Sequence& q = queries[(round + t) % queries.size()];
        const SearchResult r = ingest.Search(q, 0.3);
        // Matches must never contain an id outside the assigned space.
        for (const SequenceId id : r.matches) {
          ASSERT_GE(id, 0);
          ASSERT_LT(static_cast<size_t>(id), ingest.id_space());
        }
        ingest.SearchKnn(q, 3);
        ++round;
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) {
    threads[w].join();
  }
  stop_queries.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(delete_failures.load(), 0);

  // Quiesce: finish compaction, then the final state must equal a
  // from-scratch engine over the acknowledged writes.
  ingest.CompactAll();
  std::vector<std::pair<SequenceId, Sequence>> all_acked;
  std::vector<SequenceId> all_removed;
  for (size_t w = 0; w < kWriters; ++w) {
    all_acked.insert(all_acked.end(), acked[w].begin(), acked[w].end());
    all_removed.insert(all_removed.end(), removed[w].begin(),
                       removed[w].end());
  }
  std::sort(all_acked.begin(), all_acked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Sequence> added;
  for (auto& [id, row] : all_acked) {
    ASSERT_EQ(static_cast<size_t>(id), base.size() + added.size())
        << "ids must be contiguous dataset positions";
    added.push_back(std::move(row));
  }
  const std::unique_ptr<Engine> reference =
      BuildReference(base, added, all_removed, options.engine);
  ExpectEquivalent(ingest, *reference, queries, "quiesced");

  const IngestEngine::Health health = ingest.TakeHealthSnapshot();
  EXPECT_EQ(health.inserts_total, kWriters * kPerWriter);
  EXPECT_GE(health.compactions_total, 1u)
      << "the write volume must have triggered background compaction";
}

INSTANTIATE_TEST_SUITE_P(
    Partitioners, IngestPropertyTest,
    ::testing::Combine(::testing::Values(PartitionerKind::kHash,
                                         PartitionerKind::kRange),
                       ::testing::Values(-1, 4)),
    [](const auto& info) {
      const int band = std::get<1>(info.param);
      return std::string(PartitionerKindName(std::get<0>(info.param))) +
             (band < 0 ? "" : "_band" + std::to_string(band));
    });

}  // namespace
}  // namespace warpindex
