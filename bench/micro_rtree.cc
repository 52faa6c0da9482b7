// Microbenchmarks for the R-tree: insertion, STR bulk loading, range
// queries, and kNN on 4-d feature-like points at the paper's 1 KB page
// size.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/prng.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"

namespace warpindex {
namespace {

EntryArray FeatureLikeEntries(size_t n, uint64_t seed) {
  Prng prng(seed);
  EntryArray entries(4);
  entries.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double base = prng.UniformDouble(1.0, 10.0);
    Point p;
    p.dims = 4;
    p[0] = base + prng.UniformDouble(-1.0, 1.0);
    p[1] = base + prng.UniformDouble(-1.0, 1.0);
    p[2] = base + prng.UniformDouble(0.5, 2.0);
    p[3] = base - prng.UniformDouble(0.5, 2.0);
    entries.Push(Rect::FromPoint(p), static_cast<int64_t>(i));
  }
  return entries;
}

void BM_RTreeInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto entries = FeatureLikeEntries(n, 3);
  for (auto _ : state) {
    RTree tree(4);
    for (size_t i = 0; i < entries.size(); ++i) {
      tree.Insert(entries.rect(i), entries.ref(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto entries = FeatureLikeEntries(n, 3);
  for (auto _ : state) {
    auto copy = entries;
    benchmark::DoNotOptimize(
        BulkLoadStr(4, RTreeOptions{}, std::move(copy)).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const RTree tree = BulkLoadStr(4, RTreeOptions{}, FeatureLikeEntries(n, 5));
  Prng prng(6);
  for (auto _ : state) {
    Point c;
    c.dims = 4;
    const double base = prng.UniformDouble(1.0, 10.0);
    for (int d = 0; d < 4; ++d) {
      c[d] = base;
    }
    benchmark::DoNotOptimize(
        tree.RangeSearch(Rect::SquareAround(c, 0.1)).size());
  }
}
BENCHMARK(BM_RTreeRangeQuery)->Arg(10000)->Arg(100000);

void BM_RTreeKnn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const RTree tree = BulkLoadStr(4, RTreeOptions{}, FeatureLikeEntries(n, 7));
  Prng prng(8);
  for (auto _ : state) {
    Point c;
    c.dims = 4;
    const double base = prng.UniformDouble(1.0, 10.0);
    for (int d = 0; d < 4; ++d) {
      c[d] = base;
    }
    benchmark::DoNotOptimize(tree.NearestNeighbors(c, 10).size());
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(10000)->Arg(100000);

// HealthStats itself (one full traversal), reported with the structure
// quality it measures: leaf occupancy and the directory-level overlap /
// dead-space estimates. range(1) selects construction:
//   0  insert_quadratic        one-at-a-time, legacy quadratic splits
//   1  insert_rstar_reinsert   one-at-a-time with the R*-style knobs the
//                              ingest delta shards use (forced reinsert,
//                              0.3 reinsert fraction, 0.4 distribution
//                              factor)
//   2  bulk_packed             STR bulk load, leaves packed to 100%
//   3  bulk_fill70_stream      STR at 0.7 fill, then the last 10% of the
//                              entries inserted R*-style — the compacted
//                              base + streaming writes shape
// Bulk-loaded trees should show visibly higher occupancy than
// one-at-a-time insertion (the §4.3.1 argument for bulk loading, now
// measurable live via /statusz), and the R* knobs should cut overlap /
// dead space relative to the quadratic insert path.
void BM_RTreeHealthStats(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int64_t config = state.range(1);
  const auto entries = FeatureLikeEntries(n, 11);
  RTreeOptions rstar;
  rstar.split_policy = SplitPolicy::kRStar;
  rstar.forced_reinsert = true;
  rstar.reinsert_fraction = 0.3;
  rstar.split_distribution_factor = 0.4;
  RTree tree(4);
  const char* label = "insert_quadratic";
  switch (config) {
    case 0:
      for (size_t i = 0; i < entries.size(); ++i) {
        tree.Insert(entries.rect(i), entries.ref(i));
      }
      break;
    case 1:
      tree = RTree(4, rstar);
      for (size_t i = 0; i < entries.size(); ++i) {
        tree.Insert(entries.rect(i), entries.ref(i));
      }
      label = "insert_rstar_reinsert";
      break;
    case 2:
      tree = BulkLoadStr(4, RTreeOptions{}, entries);
      label = "bulk_packed";
      break;
    case 3: {
      RTreeOptions headroom = rstar;
      headroom.bulk_fill_fraction = 0.7;
      const size_t base = n - n / 10;
      EntryArray packed(4);
      for (size_t i = 0; i < base; ++i) {
        packed.Push(entries.rect(i), entries.ref(i));
      }
      tree = BulkLoadStr(4, headroom, std::move(packed));
      for (size_t i = base; i < entries.size(); ++i) {
        tree.Insert(entries.rect(i), entries.ref(i));
      }
      label = "bulk_fill70_stream";
      break;
    }
    default:
      state.SkipWithError("unknown config");
      return;
  }
  RTreeHealth health;
  for (auto _ : state) {
    health = tree.HealthStats();
    benchmark::DoNotOptimize(health.nodes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(health.nodes));
  state.counters["leaf_occupancy_pct"] = 100.0 * health.leaf_occupancy;
  state.counters["overlap_ratio"] = health.overlap_ratio;
  state.counters["dead_space_ratio"] = health.dead_space_ratio;
  state.SetLabel(label);
}
BENCHMARK(BM_RTreeHealthStats)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 3})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 3});

void BM_RTreeDelete(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto entries = FeatureLikeEntries(n, 9);
  for (auto _ : state) {
    state.PauseTiming();
    RTree tree = BulkLoadStr(4, RTreeOptions{}, entries);
    state.ResumeTiming();
    for (size_t i = 0; i < n / 2; ++i) {
      tree.Delete(entries.rect(i), entries.ref(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_RTreeDelete)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace warpindex
