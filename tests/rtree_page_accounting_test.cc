// Pins the paper's page accounting (§5.1: one node = one 1 KB page, one
// node access = one page read) on fixed-seed trees and query batches.
//
// The expected node-access sums, node counts and heights were recorded
// from the tree that stored a full Rect per entry, before entries were
// stored at their page footprint. They must not move: the entry layout is
// a memory decision, not a change to tree shape or search order. The
// answer hash folds every range id and every nearest-neighbor (id,
// distance bits) in output order, so it also pins entry order within
// nodes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/feature_index.h"
#include "fastmap/fastmap_index.h"
#include "rtree/rtree.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

constexpr size_t kNeighbors = 10;

struct Accounting {
  uint64_t range_nodes = 0;
  uint64_t l2_nodes = 0;
  uint64_t linf_nodes = 0;
  size_t nodes = 0;
  int height = 0;
  size_t supernodes = 0;
  uint64_t answer_hash = 0;
};

Dataset Walks(size_t n, size_t len, uint64_t seed) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = len;
  options.max_length = len;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

std::vector<Point> FeatureQueries(size_t n, uint64_t seed) {
  const Dataset queries = Walks(n, 64, seed);
  std::vector<Point> points;
  for (const Sequence& s : queries.sequences()) {
    points.push_back(FeatureIndex::FeatureToPoint(ExtractFeature(s)));
  }
  return points;
}

// Range, L2 best-first and L_inf incremental k-NN over every query point.
Accounting Measure(const RTree& tree, const std::vector<Point>& queries,
                   double radius) {
  Accounting a;
  a.nodes = tree.node_count();
  a.height = tree.height();
  a.supernodes = tree.supernode_count();
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&hash](uint64_t v) { hash = (hash ^ v) * 1099511628211ULL; };
  for (const Point& q : queries) {
    RTreeQueryStats range;
    for (const int64_t id :
         tree.RangeSearch(Rect::SquareAround(q, radius), &range)) {
      mix(static_cast<uint64_t>(id));
    }
    a.range_nodes += range.nodes_accessed;

    RTreeQueryStats l2;
    for (const RTree::Neighbor& n : tree.NearestNeighbors(q, kNeighbors, &l2)) {
      mix(static_cast<uint64_t>(n.record_id));
      mix(std::bit_cast<uint64_t>(n.distance));
    }
    a.l2_nodes += l2.nodes_accessed;

    RTreeQueryStats linf;
    RTree::LinfNearestIterator it = tree.NearestLinf(q, &linf);
    RTree::Neighbor n;
    for (size_t i = 0; i < kNeighbors && it.Next(&n); ++i) {
      mix(static_cast<uint64_t>(n.record_id));
      mix(std::bit_cast<uint64_t>(n.distance));
    }
    a.linf_nodes += linf.nodes_accessed;
  }
  a.answer_hash = hash;
  return a;
}

void ExpectAccounting(const Accounting& got, const Accounting& want) {
  EXPECT_EQ(got.range_nodes, want.range_nodes);
  EXPECT_EQ(got.l2_nodes, want.l2_nodes);
  EXPECT_EQ(got.linf_nodes, want.linf_nodes);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.supernodes, want.supernodes);
  EXPECT_EQ(got.answer_hash, want.answer_hash);
}

// Sum of entries over every level: leaf records plus directory entries.
size_t TotalEntries(const RTreeHealth& health) {
  size_t entries = 0;
  for (const RTreeHealth::LevelStats& level : health.levels) {
    entries += level.entries;
  }
  return entries;
}

TEST(RTreePageAccountingTest, BulkLoadedFeatureIndex) {
  const Dataset data = Walks(4000, 64, 11);
  const FeatureIndex index(data, FeatureIndexOptions{});
  ASSERT_TRUE(index.rtree().CheckInvariants().ok());
  ExpectAccounting(Measure(index.rtree(), FeatureQueries(30, 12), 0.5),
                   {1133, 419, 363, 361, 4, 0, 1016265843205184195ULL});

  // In memory each entry costs its page footprint, 2 * 4 doubles plus one
  // ref, and nothing more: the bulk loader sizes every node exactly.
  const RTreeHealth health = index.rtree().HealthStats();
  EXPECT_EQ(EntryBytes(kFeatureDims), 72u);
  EXPECT_EQ(health.resident_bytes,
            TotalEntries(health) * EntryBytes(kFeatureDims));
  EXPECT_LT(health.resident_bytes, health.bytes);
}

struct InsertCase {
  SplitPolicy policy;
  bool supernodes;
  Accounting want;
};

// Insert-built trees (page 512 B for more levels), then every 7th record
// deleted so CondenseTree and orphan reinsertion shape the tree too. R*
// also runs forced reinsertion.
TEST(RTreePageAccountingTest, InsertBuiltTreePerSplitPolicy) {
  const Dataset data = Walks(2500, 48, 21);
  const std::vector<Point> queries = FeatureQueries(30, 22);
  const std::vector<InsertCase> cases = {
      {SplitPolicy::kLinear, false,
       {1912, 633, 586, 754, 6, 0, 8027194414383117242ULL}},
      {SplitPolicy::kLinear, true,
       {1792, 603, 557, 660, 5, 26, 12934785055645473916ULL}},
      {SplitPolicy::kQuadratic, false,
       {1864, 631, 576, 743, 6, 0, 9146643126797176650ULL}},
      {SplitPolicy::kQuadratic, true,
       {1744, 589, 543, 666, 5, 19, 6848007145132857680ULL}},
      {SplitPolicy::kRStar, false,
       {1679, 555, 504, 687, 6, 0, 3576020704509990198ULL}},
      {SplitPolicy::kRStar, true,
       {1658, 529, 480, 680, 5, 2, 7509087280554712128ULL}},
  };
  for (const InsertCase& c : cases) {
    SCOPED_TRACE(std::string(SplitPolicyName(c.policy)) +
                 (c.supernodes ? " +supernodes" : ""));
    FeatureIndexOptions options;
    options.bulk_load = false;
    options.rtree.page_size_bytes = 512;
    options.rtree.split_policy = c.policy;
    options.rtree.forced_reinsert = c.policy == SplitPolicy::kRStar;
    options.rtree.allow_supernodes = c.supernodes;
    options.rtree.supernode_overlap_threshold = 0.05;
    FeatureIndex index(data, options);
    for (size_t i = 0; i < data.size(); i += 7) {
      ASSERT_TRUE(index.Remove(static_cast<SequenceId>(i),
                               ExtractFeature(data[i])));
    }
    ASSERT_TRUE(index.rtree().CheckInvariants().ok());
    ExpectAccounting(Measure(index.rtree(), queries, 0.5), c.want);
    // Inserts leave vector growth slack, never less than the footprint.
    const RTreeHealth health = index.rtree().HealthStats();
    EXPECT_GE(health.resident_bytes,
              TotalEntries(health) * EntryBytes(kFeatureDims));
  }
}

TEST(RTreePageAccountingTest, FastMapTree8d) {
  const Dataset data = Walks(400, 32, 31);
  FastMapIndexOptions options;
  options.fastmap.dims = 8;
  const FastMapIndex index(data, options);
  ASSERT_TRUE(index.rtree().CheckInvariants().ok());
  const Dataset query_data = Walks(20, 32, 32);
  std::vector<Point> queries;
  for (const Sequence& s : query_data.sequences()) {
    queries.push_back(index.fastmap().Embed(s));
  }
  ExpectAccounting(Measure(index.rtree(), queries, 1.0), {2005, 1729, 1598, 126, 4, 0, 5683869489715423277ULL});
}

}  // namespace
}  // namespace warpindex
