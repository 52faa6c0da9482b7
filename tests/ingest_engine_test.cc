// IngestEngine mechanics: delta-shard log semantics, id assignment and
// delete edge cases, compaction triggers and the background compactor,
// range-cut rebalancing, persistence (including re-opening a compacted
// directory with the read-only ShardedEngine), health snapshots, the
// warpindex_ingest_* and warpindex_shard_* metrics, per-partition flight
// records, and the delta scan a partition skips when it buffers nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "ingest/delta_shard.h"
#include "ingest/ingest_engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

Dataset WalkDataset(uint64_t seed = 11, size_t n = 50) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = 20;
  options.max_length = 40;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

// Two feature-space clusters far apart: the range partitioner puts them
// in different partitions, so a cluster-local query prunes the other.
Dataset ClusteredDataset(size_t per_cluster = 30) {
  RandomWalkOptions low;
  low.num_sequences = per_cluster;
  low.min_length = 20;
  low.max_length = 40;
  low.start_min = 0.0;
  low.start_max = 1.0;
  low.seed = 5;
  Dataset dataset = GenerateRandomWalkDataset(low);
  RandomWalkOptions high = low;
  high.start_min = 200.0;
  high.start_max = 201.0;
  high.seed = 6;
  const Dataset far_cluster = GenerateRandomWalkDataset(high);
  for (size_t i = 0; i < far_cluster.size(); ++i) {
    dataset.Add(far_cluster[i]);
  }
  return dataset;
}

size_t CountSpans(const Trace& trace, const std::string& name) {
  return static_cast<size_t>(
      std::count_if(trace.spans().begin(), trace.spans().end(),
                    [&](const TraceSpan& span) { return span.name == name; }));
}

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

DeltaEntry MakeEntry(SequenceId id, double value) {
  Sequence s(std::vector<double>(8, value));
  s.set_id(id);
  DeltaEntry entry;
  entry.id = id;
  entry.feature = ExtractFeature(s);
  entry.sequence = std::make_shared<const Sequence>(std::move(s));
  entry.appended_ms = 0.0;
  return entry;
}

TEST(DeltaShardTest, SnapshotHidesTombstonedEntries) {
  DeltaShard delta;
  delta.Append(MakeEntry(10, 1.0));
  delta.Append(MakeEntry(11, 2.0));
  EXPECT_EQ(delta.MarkDead(10, false), DeltaShard::DeadMark::kMarked);
  EXPECT_EQ(delta.MarkDead(10, false), DeltaShard::DeadMark::kAlreadyDead);
  EXPECT_EQ(delta.MarkDead(99, false), DeltaShard::DeadMark::kUnknown);
  EXPECT_EQ(delta.MarkDead(7, true), DeltaShard::DeadMark::kMarked);

  const DeltaShard::Snapshot snap = delta.TakeSnapshot();
  ASSERT_EQ(snap.entries.size(), 1u);  // #10 hidden, #11 visible
  EXPECT_EQ(snap.entries[0].id, 11);
  EXPECT_EQ(snap.dead, (std::vector<SequenceId>{7, 10}));
}

TEST(DeltaShardTest, ApplyCompactionKeepsPostFreezeWrites) {
  DeltaShard delta;
  delta.Append(MakeEntry(0, 1.0));
  delta.Append(MakeEntry(1, 2.0));
  EXPECT_EQ(delta.MarkDead(0, false), DeltaShard::DeadMark::kMarked);

  const DeltaShard::Frozen frozen = delta.Freeze();
  EXPECT_EQ(frozen.entry_count, 2u);
  EXPECT_EQ(frozen.dead, (std::vector<SequenceId>{0}));

  // Writes racing the merge land after the frozen prefix: a brand-new
  // entry, and a tombstone for frozen entry #1 (which the merge is
  // about to move into the rebuilt base).
  delta.Append(MakeEntry(2, 3.0));
  EXPECT_EQ(delta.MarkDead(1, false), DeltaShard::DeadMark::kMarked);
  EXPECT_EQ(delta.MarkDead(2, false), DeltaShard::DeadMark::kMarked);

  // …and survive the compaction verbatim: only the frozen prefix and
  // the frozen tombstone {0} are consumed. #1's post-freeze tombstone
  // stays, filtering the new base where #1 now lives.
  delta.ApplyCompaction(frozen);
  const DeltaShard::Stats stats = delta.TakeStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.dead, 2u);
  const DeltaShard::Snapshot snap = delta.TakeSnapshot();
  EXPECT_TRUE(snap.entries.empty());  // #2 is buffered but tombstoned
  EXPECT_EQ(snap.dead, (std::vector<SequenceId>{1, 2}));
}

// TakeSnapshot skips the lock while the shard buffers nothing; every
// write that makes it non-empty, and the compaction that empties it,
// must flip that state, or a query would miss a row or a tombstone.
TEST(DeltaShardTest, SnapshotTracksEmptinessAcrossWritesAndCompaction) {
  DeltaShard delta;
  EXPECT_TRUE(delta.TakeSnapshot().entries.empty());
  EXPECT_TRUE(delta.TakeSnapshot().dead.empty());

  // A tombstone alone (a deleted base row) makes the shard non-empty.
  EXPECT_EQ(delta.MarkDead(5, true), DeltaShard::DeadMark::kMarked);
  EXPECT_EQ(delta.TakeSnapshot().dead, (std::vector<SequenceId>{5}));
  delta.ApplyCompaction(delta.Freeze());
  EXPECT_TRUE(delta.TakeSnapshot().dead.empty());

  delta.Append(MakeEntry(6, 1.0));
  ASSERT_EQ(delta.TakeSnapshot().entries.size(), 1u);
  const DeltaShard::Frozen frozen = delta.Freeze();
  // A write racing the merge keeps the shard non-empty after it.
  delta.Append(MakeEntry(7, 2.0));
  delta.ApplyCompaction(frozen);
  const DeltaShard::Snapshot snap = delta.TakeSnapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].id, 7);

  delta.ApplyCompaction(delta.Freeze());
  EXPECT_TRUE(delta.TakeSnapshot().entries.empty());
  EXPECT_EQ(delta.TakeStats().entries, 0u);
}

IngestOptions ManualCompaction(size_t shards,
                               PartitionerKind kind = PartitionerKind::kHash) {
  IngestOptions options;
  options.num_shards = shards;
  options.partitioner = kind;
  options.start_compactor = false;
  return options;
}

TEST(IngestEngineTest, InsertAssignsContiguousIdsAndRoutesStably) {
  IngestEngine ingest(WalkDataset(), ManualCompaction(3));
  EXPECT_EQ(ingest.id_space(), 50u);
  EXPECT_EQ(ingest.live_size(), 50u);
  const SequenceId a = ingest.Insert(Sequence({1.0, 2.0, 3.0}));
  const SequenceId b = ingest.Insert(Sequence({4.0, 5.0, 6.0}));
  EXPECT_EQ(a, 50);
  EXPECT_EQ(b, 51);
  EXPECT_EQ(ingest.id_space(), 52u);
  EXPECT_EQ(ingest.live_size(), 52u);

  // An exact-copy query finds the new row wherever it was routed.
  const SearchResult hit = ingest.Search(Sequence({1.0, 2.0, 3.0}), 0.0);
  ASSERT_EQ(hit.matches.size(), 1u);
  EXPECT_EQ(hit.matches[0], a);
}

TEST(IngestEngineTest, DeletedBaseRowsLeaveAnswersBeforeCompaction) {
  // A deleted base row stays in its immutable base engine until the next
  // compaction; only the query's dead-set filter keeps it out of range
  // and kNN answers, on the pool and inline alike.
  const Dataset data = WalkDataset();
  IngestEngine ingest(WalkDataset(), ManualCompaction(3));
  ThreadPool pool(2);
  const Sequence& q = data[7];
  ASSERT_EQ(ingest.SearchKnn(q, 1).neighbors.front().id, 7);
  ASSERT_TRUE(ingest.Delete(7));
  Dataset live = WalkDataset();
  Engine reference(std::move(live), EngineOptions{});
  ASSERT_TRUE(reference.Remove(7));
  for (ThreadPool* attached : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ingest.AttachPool(attached);
    for (const MethodKind kind :
         {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade,
          MethodKind::kNaiveScan, MethodKind::kLbScan}) {
      std::vector<SequenceId> want = reference.SearchWith(kind, q, 0.3).matches;
      std::sort(want.begin(), want.end());
      EXPECT_EQ(ingest.SearchWith(kind, q, 0.3).matches, want)
          << MethodKindName(kind);
    }
    EXPECT_EQ(ingest.SearchKnn(q, 4).neighbors,
              reference.SearchKnn(q, 4).neighbors);
  }
}

TEST(IngestEngineTest, DeleteEdgeCases) {
  IngestEngine ingest(WalkDataset(), ManualCompaction(2));
  EXPECT_FALSE(ingest.Delete(-1));
  EXPECT_FALSE(ingest.Delete(999));   // beyond the id space
  EXPECT_TRUE(ingest.Delete(7));      // base row
  EXPECT_FALSE(ingest.Delete(7));     // double delete
  const SequenceId id = ingest.Insert(Sequence({9.0, 9.0, 9.0}));
  EXPECT_TRUE(ingest.Delete(id));     // buffered insert
  EXPECT_FALSE(ingest.Delete(id));
  EXPECT_EQ(ingest.live_size(), 49u);

  // Deleted rows stay deleted across compaction (tombstones consumed).
  EXPECT_GE(ingest.CompactAll(), 1u);
  EXPECT_FALSE(ingest.Delete(7));
  EXPECT_FALSE(ingest.Delete(id));
  EXPECT_TRUE(ingest.Search(Sequence({9.0, 9.0, 9.0}), 0.0).matches.empty());
}

TEST(IngestEngineTest, CompactShardSwapsEpochAndEmptiesDelta) {
  IngestEngine ingest(WalkDataset(), ManualCompaction(1));
  EXPECT_FALSE(ingest.CompactShard(0));  // nothing buffered
  EXPECT_EQ(ingest.CurrentView()->epoch, 0u);

  const SequenceId id = ingest.Insert(Sequence({5.0, 6.0, 7.0}));
  ASSERT_TRUE(ingest.ShouldCompact(0) ||
              ingest.DeltaStats(0).entries == 1u);
  EXPECT_TRUE(ingest.CompactShard(0));
  EXPECT_EQ(ingest.CurrentView()->epoch, 1u);
  EXPECT_EQ(ingest.DeltaStats(0).entries, 0u);

  // The row now serves from the rebuilt base.
  const IngestEngine::Health health = ingest.TakeHealthSnapshot();
  EXPECT_EQ(health.shards[0].base_sequences, 51u);
  EXPECT_EQ(health.compactions_total, 1u);
  const SearchResult hit = ingest.Search(Sequence({5.0, 6.0, 7.0}), 0.0);
  ASSERT_EQ(hit.matches.size(), 1u);
  EXPECT_EQ(hit.matches[0], id);
}

TEST(IngestEngineTest, ShouldCompactTriggers) {
  IngestOptions options = ManualCompaction(1);
  options.compact_max_delta_entries = 3;
  options.compact_max_tombstones = 2;
  IngestEngine ingest(WalkDataset(), options);
  EXPECT_FALSE(ingest.ShouldCompact(0));

  ingest.Insert(Sequence({1.0}));
  ingest.Insert(Sequence({2.0}));
  EXPECT_FALSE(ingest.ShouldCompact(0));
  ingest.Insert(Sequence({3.0}));
  EXPECT_TRUE(ingest.ShouldCompact(0)) << "entry threshold";
  ingest.CompactAll();
  EXPECT_FALSE(ingest.ShouldCompact(0));

  ASSERT_TRUE(ingest.Delete(0));
  EXPECT_FALSE(ingest.ShouldCompact(0));
  ASSERT_TRUE(ingest.Delete(1));
  EXPECT_TRUE(ingest.ShouldCompact(0)) << "tombstone threshold";
}

TEST(IngestEngineTest, AgeTriggerFiresOnOldEntries) {
  IngestOptions options = ManualCompaction(1);
  options.compact_max_delta_age_ms = 5.0;
  IngestEngine ingest(WalkDataset(), options);
  EXPECT_FALSE(ingest.ShouldCompact(0));  // age alone never fires empty
  ingest.Insert(Sequence({1.0}));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(ingest.ShouldCompact(0));
}

TEST(IngestEngineTest, BackgroundCompactorDrainsTheBacklog) {
  IngestOptions options;
  options.num_shards = 2;
  options.start_compactor = true;
  options.compact_max_delta_entries = 8;
  options.compact_poll_ms = 2.0;
  IngestEngine ingest(WalkDataset(), options);
  ThreadPool pool(2);
  ingest.AttachPool(&pool);

  const Dataset extra = WalkDataset(77, 40);
  for (const Sequence& s : extra.sequences()) {
    ingest.Insert(s);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  IngestEngine::Health health = ingest.TakeHealthSnapshot();
  while ((health.compactions_total == 0 || health.compaction_backlog > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    health = ingest.TakeHealthSnapshot();
  }
  EXPECT_GE(health.compactions_total, 1u);
  EXPECT_EQ(health.compaction_backlog, 0u);
  EXPECT_EQ(ingest.live_size(), 90u);
}

TEST(IngestEngineTest, RangeCutsRebalanceWhenAShardOutgrows) {
  IngestOptions options = ManualCompaction(2, PartitionerKind::kRange);
  options.rebalance_factor = 1.5;
  IngestEngine ingest(WalkDataset(11, 20), options);

  // Skew every insert toward one end of the key space so one range
  // shard absorbs the bulk of the stream.
  for (int i = 0; i < 100; ++i) {
    ingest.Insert(Sequence(std::vector<double>(10, 1000.0 + i)));
  }
  ingest.CompactAll();
  const IngestEngine::Health health = ingest.TakeHealthSnapshot();
  EXPECT_GE(health.cut_rebalances_total, 1u)
      << "the skewed stream must have moved a cut point";
  // Routing changes never change answers: the skewed rows remain
  // findable by exact-copy queries.
  const SearchResult hit =
      ingest.Search(Sequence(std::vector<double>(10, 1030.0)), 0.0);
  ASSERT_EQ(hit.matches.size(), 1u);
}

TEST(IngestEngineTest, SaveOpenRoundTripServesIdentically) {
  const std::string dir = TempDir("ingest_roundtrip");
  const Dataset base = WalkDataset(21, 40);
  IngestOptions options = ManualCompaction(3);
  IngestEngine original(WalkDataset(21, 40), options);
  const Dataset extra = WalkDataset(22, 15);
  for (const Sequence& s : extra.sequences()) {
    original.Insert(s);
  }
  ASSERT_TRUE(original.Delete(5));
  ASSERT_TRUE(original.Delete(44));
  ASSERT_TRUE(original.Save(dir).ok());  // compacts, then persists

  const auto queries = GenerateQueryWorkload(
      base, QueryWorkloadOptions{.num_queries = 6, .seed = 23});

  std::unique_ptr<IngestEngine> reopened;
  ASSERT_TRUE(IngestEngine::Open(dir, options, &reopened).ok());
  EXPECT_EQ(reopened->live_size(), original.live_size());
  EXPECT_EQ(reopened->id_space(), original.id_space());
  for (const Sequence& q : queries) {
    EXPECT_EQ(reopened->Search(q, 0.25).matches,
              original.Search(q, 0.25).matches);
    const KnnResult a = original.SearchKnn(q, 5);
    const KnnResult b = reopened->SearchKnn(q, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
  }

  // A reopened engine accepts new writes and keeps the id space: the
  // next id continues after the saved one (dropped ids never reused).
  const SequenceId next = reopened->Insert(Sequence({2.0, 4.0, 6.0}));
  EXPECT_EQ(static_cast<size_t>(next), original.id_space());

  // The compacted directory is a valid read-only ShardedEngine too
  // (manifest v2: dropped-id sentinels + range cuts).
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  std::unique_ptr<ShardedEngine> sharded;
  ASSERT_TRUE(ShardedEngine::Open(dir, sharded_options, &sharded).ok());
  for (const Sequence& q : queries) {
    EXPECT_EQ(sharded->Search(q, 0.25).matches,
              original.Search(q, 0.25).matches);
  }
  std::filesystem::remove_all(dir);
}

TEST(IngestEngineTest, OpenRejectsTopologyMismatch) {
  const std::string dir = TempDir("ingest_mismatch");
  IngestEngine original(WalkDataset(31, 20), ManualCompaction(2));
  ASSERT_TRUE(original.Save(dir).ok());
  std::unique_ptr<IngestEngine> reopened;
  EXPECT_FALSE(IngestEngine::Open(dir, ManualCompaction(4), &reopened).ok());
  std::filesystem::remove_all(dir);
}

uint64_t CounterValue(const MetricsRegistry::Snapshot& snap,
                      const std::string& name) {
  for (const auto& entry : snap.counters) {
    if (entry.name == name) {
      return entry.value;
    }
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

int64_t GaugeValue(const MetricsRegistry::Snapshot& snap,
                   const std::string& name) {
  for (const auto& entry : snap.gauges) {
    if (entry.name == name) {
      return entry.value;
    }
  }
  ADD_FAILURE() << "no gauge named " << name;
  return 0;
}

TEST(IngestEngineTest, MetricsAndHealthReflectWrites) {
  IngestOptions options = ManualCompaction(2);
  MetricsRegistry registry;
  options.engine.metrics = &registry;
  IngestEngine ingest(WalkDataset(41, 30), options);

  ingest.Insert(Sequence({1.0, 2.0}));
  ingest.Insert(Sequence({3.0, 4.0}));
  ASSERT_TRUE(ingest.Delete(0));
  const MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  EXPECT_EQ(CounterValue(before, "warpindex_ingest_inserts_total"), 2u);
  EXPECT_EQ(CounterValue(before, "warpindex_ingest_deletes_total"), 1u);
  EXPECT_EQ(GaugeValue(before, "warpindex_ingest_delta_entries"), 2);

  ingest.CompactAll();
  const MetricsRegistry::Snapshot after = registry.TakeSnapshot();
  EXPECT_GE(CounterValue(after, "warpindex_ingest_compactions_total"), 1u);
  EXPECT_EQ(GaugeValue(after, "warpindex_ingest_delta_entries"), 0);
  EXPECT_EQ(GaugeValue(after, "warpindex_ingest_delta_entries_shard0"), 0);

  const IngestEngine::Health health = ingest.TakeHealthSnapshot();
  EXPECT_EQ(health.num_shards, 2u);
  EXPECT_EQ(health.inserts_total, 2u);
  EXPECT_EQ(health.deletes_total, 1u);
  EXPECT_EQ(health.live_sequences, 31u);
  EXPECT_EQ(health.id_space, 32u);
  ASSERT_EQ(health.shards.size(), 2u);
  size_t base_rows = 0;
  for (const IngestEngine::ShardStatus& shard : health.shards) {
    base_rows += shard.base_sequences;
    EXPECT_EQ(shard.delta_entries, 0u);
    EXPECT_EQ(shard.tombstones, 0u);
  }
  EXPECT_EQ(base_rows, 31u);
}

// Buffered rows are Algorithm 1 candidates like the base's index hits:
// the cascade kind runs its planned lower-bound stages on them, every
// exact evaluation lands in the dtw_postfilter prune record, and the
// partition engine's live counters see that work without counting a
// query for it.
TEST(IngestEngineTest, DeltaCandidatesRunAlgorithm1StagesAndReachCounters) {
  IngestOptions options = ManualCompaction(1);
  MetricsRegistry registry;
  options.engine.metrics = &registry;
  options.engine.dtw.band = 4;  // LB_Keogh prunes under a band
  options.engine.cascade_plan =
      CascadePlan{{CascadeStage::kFeatureLb, CascadeStage::kLbKeogh}};
  const Dataset base = WalkDataset(43, 40);
  IngestEngine ingest(WalkDataset(43, 40), options);
  const auto queries = GenerateQueryWorkload(
      base, QueryWorkloadOptions{.num_queries = 3, .seed = 44});
  constexpr double kEpsilon = 0.4;
  // Buffer each query itself (distance 0: a delta match) and perturbed
  // copies of it (D_tw-lb candidates that may or may not match).
  std::vector<SequenceId> exact_copies;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    exact_copies.push_back(ingest.Insert(queries[qi]));
    for (uint64_t c = 0; c < 4; ++c) {
      ingest.Insert(PerturbSequence(queries[qi], 100 * qi + c));
    }
  }
  ASSERT_EQ(ingest.DeltaStats(0).entries, 5 * queries.size());

  for (const MethodKind kind :
       {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade}) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string where =
          std::string(MethodKindName(kind)) + " q=" + std::to_string(qi);
      const MetricsRegistry::Snapshot before = registry.TakeSnapshot();
      const SearchResult r = ingest.SearchWith(kind, queries[qi], kEpsilon);
      const MetricsRegistry::Snapshot after = registry.TakeSnapshot();
      EXPECT_TRUE(std::binary_search(r.matches.begin(), r.matches.end(),
                                     exact_copies[qi]))
          << where;
      const StageCounts dtw = r.cost.prunes.Get(kStageDtwPostfilter);
      EXPECT_EQ(dtw.in, r.cost.dtw_evals) << where;
      if (kind == MethodKind::kTwSimSearchCascade) {
        // Base index hits and delta survivors alike enter the plan.
        const StageCounts feature = r.cost.prunes.Get(kStageFeatureLbCascade);
        const StageCounts keogh = r.cost.prunes.Get(kStageLbKeoghCascade);
        EXPECT_EQ(feature.in, r.num_candidates) << where;
        EXPECT_EQ(keogh.in, feature.in - feature.pruned) << where;
        EXPECT_EQ(dtw.in, keogh.in - keogh.pruned) << where;
      }
      const auto advanced = [&](const std::string& name) {
        return CounterValue(after, name) - CounterValue(before, name);
      };
      EXPECT_EQ(advanced("warpindex_cascade_dtw_in_total"), dtw.in) << where;
      EXPECT_EQ(advanced("warpindex_query_dtw_evals_total"), r.cost.dtw_evals)
          << where;
      // One base query on the one partition; the delta is no query.
      EXPECT_EQ(advanced("warpindex_queries_total"), 1u) << where;
    }
  }
}

// Every exact DTW run of a k-NN query reaches
// warpindex_query_dtw_evals_total, on a plain Engine and on an
// IngestEngine whose buffered rows join the partitions' candidate
// stream; either is one query in warpindex_queries_total.
TEST(IngestEngineTest, KnnDtwEvalsReachTheLiveCounter) {
  const Dataset base = WalkDataset(47, 40);
  const auto queries = GenerateQueryWorkload(
      base, QueryWorkloadOptions{.num_queries = 2, .seed = 48});
  constexpr size_t kK = 3;
  {
    MetricsRegistry registry;
    EngineOptions options;
    options.metrics = &registry;
    const Engine engine(WalkDataset(47, 40), options);
    for (const Sequence& q : queries) {
      const MetricsRegistry::Snapshot before = registry.TakeSnapshot();
      const KnnResult r = engine.SearchKnn(q, kK);
      const MetricsRegistry::Snapshot after = registry.TakeSnapshot();
      ASSERT_GT(r.cost.dtw_evals, 0u);
      EXPECT_EQ(CounterValue(after, "warpindex_query_dtw_evals_total") -
                    CounterValue(before, "warpindex_query_dtw_evals_total"),
                r.cost.dtw_evals);
      EXPECT_EQ(CounterValue(after, "warpindex_queries_total") -
                    CounterValue(before, "warpindex_queries_total"),
                1u);
    }
  }
  {
    IngestOptions options = ManualCompaction(2);
    MetricsRegistry registry;
    options.engine.metrics = &registry;
    IngestEngine ingest(WalkDataset(47, 40), options);
    // Buffered copies of each query: the nearest neighbours are delta
    // rows, so the delta refine runs DTW.
    std::vector<SequenceId> buffered;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      buffered.push_back(ingest.Insert(queries[qi]));
      ingest.Insert(PerturbSequence(queries[qi], 200 + qi));
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const MetricsRegistry::Snapshot before = registry.TakeSnapshot();
      const KnnResult r = ingest.SearchKnn(queries[qi], kK);
      const MetricsRegistry::Snapshot after = registry.TakeSnapshot();
      ASSERT_FALSE(r.neighbors.empty());
      EXPECT_EQ(r.neighbors.front().id, buffered[qi]);
      EXPECT_EQ(CounterValue(after, "warpindex_query_dtw_evals_total") -
                    CounterValue(before, "warpindex_query_dtw_evals_total"),
                r.cost.dtw_evals)
          << "q=" << qi;
      // One refine loop over every partition and the delta: one query.
      EXPECT_EQ(CounterValue(after, "warpindex_queries_total") -
                    CounterValue(before, "warpindex_queries_total"),
                1u)
          << "q=" << qi;
    }
  }
}

// A partition whose delta buffers nothing runs no delta scan: no
// delta_scan span, and the same answer as one Engine over the rows. A
// buffered row brings the scan back on its partition alone, and a
// compaction that empties the delta drops it again.
TEST(IngestEngineTest, EmptyDeltasSkipTheDeltaScan) {
  const Engine single(WalkDataset(), EngineOptions{});
  IngestEngine ingest(WalkDataset(), ManualCompaction(3));
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 3, .seed = 12});
  for (const Sequence& q : queries) {
    Trace trace;
    const SearchResult got = ingest.Search(q, 0.4, &trace);
    SearchResult want = single.Search(q, 0.4);
    std::sort(want.matches.begin(), want.matches.end());
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.num_candidates, want.num_candidates);
    EXPECT_EQ(got.cost.dtw_evals, want.cost.dtw_evals);
    EXPECT_GE(CountSpans(trace, "shard"), 1u);
    EXPECT_EQ(CountSpans(trace, "delta_scan"), 0u);
  }

  const SequenceId copy = ingest.Insert(queries.front());
  Trace buffered;
  const SearchResult hit = ingest.Search(queries.front(), 0.4, &buffered);
  EXPECT_TRUE(
      std::binary_search(hit.matches.begin(), hit.matches.end(), copy));
  EXPECT_EQ(CountSpans(buffered, "delta_scan"), 1u);

  ASSERT_EQ(ingest.CompactAll(), 1u);
  Trace compacted;
  EXPECT_EQ(ingest.Search(queries.front(), 0.4, &compacted).matches,
            hit.matches);
  EXPECT_EQ(CountSpans(compacted, "delta_scan"), 0u);
}

// The partitioned engine's query accounting: a range query whose epsilon
// prunes a partition counts it skipped and the searched one queried, in
// Health and in the warpindex_shard_* counters alike, and offers one
// flight record per searched partition, tagged with its shard. A kNN
// query searches every partition with a live base.
TEST(IngestEngineTest, QueriesCountSearchedAndSkippedPartitions) {
  const Dataset dataset = ClusteredDataset();
  MetricsRegistry registry;
  FlightRecorder recorder;
  IngestOptions options = ManualCompaction(2, PartitionerKind::kRange);
  options.engine.metrics = &registry;
  options.flight_recorder = &recorder;
  const IngestEngine ingest(ClusteredDataset(), options);

  const Sequence q = PerturbSequence(dataset[3], 17);
  (void)ingest.Search(q, 0.3);
  IngestEngine::Health health = ingest.TakeHealthSnapshot();
  EXPECT_EQ(health.queries_total, 1u);
  EXPECT_EQ(health.subqueries_total, 1u);
  EXPECT_EQ(health.shards_skipped_total, 1u);
  ASSERT_EQ(health.shards.size(), 2u);
  std::vector<int32_t> searched;
  for (const IngestEngine::ShardStatus& shard : health.shards) {
    EXPECT_EQ(shard.queries + shard.skipped, 1u) << shard.shard_index;
    if (shard.queries == 1) {
      searched.push_back(static_cast<int32_t>(shard.shard_index));
    }
  }
  ASSERT_EQ(searched.size(), 1u);

  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_queries_total"), 1u);
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_subqueries_total"), 1u);
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_skipped_total"), 1u);

  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().shard, searched.front());
  EXPECT_EQ(records.front().method, "TW-Sim-Search");

  (void)ingest.SearchKnn(q, 3);
  health = ingest.TakeHealthSnapshot();
  EXPECT_EQ(health.queries_total, 2u);
  EXPECT_EQ(health.subqueries_total, 3u);
  EXPECT_EQ(health.shards_skipped_total, 1u);
  snap = registry.TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_queries_total"), 2u);
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_subqueries_total"), 3u);
  EXPECT_EQ(CounterValue(snap, "warpindex_shard_skipped_total"), 1u);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);  // k-NN has no partials
}

}  // namespace
}  // namespace warpindex
