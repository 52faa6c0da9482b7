// Microbenchmarks for the DTW engine: full evaluation vs thresholded
// early-abandoning vs Sakoe-Chiba banding, across sequence lengths and
// base distances, the L_inf decision pre-pass per row over four column
// shapes, the query's rank-table build, thresholded L_inf over the stock
// corpus's mixed lengths (prepared pre-pass path against the plain DP),
// plus the envelope lower bounds of the filter cascade (ns per candidate
// and tightness relative to exact banded DTW, LB_Yi, and the
// feature-level D_tw-lb).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/prng.h"
#include "dtw/dtw.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_keogh.h"
#include "dtw/lb_yi.h"
#include "sequence/feature.h"
#include "sequence/query_workload.h"
#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

Sequence MakeWalk(size_t len, uint64_t seed) {
  Prng prng(seed);
  Sequence s;
  s.Reserve(len);
  double v = prng.UniformDouble(1.0, 10.0);
  for (size_t i = 0; i < len; ++i) {
    s.Append(v);
    v += prng.UniformDouble(-0.1, 0.1);
  }
  return s;
}

void BM_DtwFullLinf(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 2);
  const Dtw dtw(DtwOptions::Linf());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw.Distance(a, b).distance);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len * len));
}
BENCHMARK(BM_DtwFullLinf)->Arg(64)->Arg(256)->Arg(1024);

void BM_DtwFullL1(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 2);
  const Dtw dtw(DtwOptions::L1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw.Distance(a, b).distance);
  }
}
BENCHMARK(BM_DtwFullL1)->Arg(64)->Arg(256)->Arg(1024);

// The paper's CPU argument for L_inf: thresholded evaluation abandons
// dissimilar pairs almost immediately.
void BM_DtwEarlyAbandonDistantPair(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 77);  // independent walk, far away
  const Dtw dtw(DtwOptions::Linf());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dtw.DistanceWithThreshold(a, b, 0.1).distance);
  }
}
BENCHMARK(BM_DtwEarlyAbandonDistantPair)->Arg(64)->Arg(256)->Arg(1024);

// The L_inf decision pre-pass alone, on thresholded unbanded 256 x 256
// pairs. Arg(0) picks the columns: 0 a random walk, 1 the same walk with
// one column at 1e6 (one far outlier), 2 the walk with every other column
// at its median (half the columns equal), 3 the walk with two columns at
// 1e6 and 2e6 (the rank table's bucket lookup trims one outlier per side,
// so two stretch its buckets and every lookup takes the full binary
// search: its worst case). Each pair's threshold sits just
// under the smaller of its distances to the plain walk and to these
// columns, so all three sets are decided at the walk's scale and no pair
// reaches the DP: a pair's cells are m per pre-pass row it ran.
// ns_per_row is wall time per pre-pass row.
void BM_LinfPrePass(benchmark::State& state) {
  constexpr size_t kLen = 256;
  constexpr int kPairs = 16;
  const Sequence walk = MakeWalk(kLen, 1);
  std::vector<double> columns(walk.data(), walk.data() + kLen);
  if (state.range(0) == 1) {
    columns[kLen / 2] = 1e6;
  } else if (state.range(0) == 3) {
    columns[kLen / 2] = 1e6;
    columns[kLen / 4] = 2e6;
  } else if (state.range(0) == 2) {
    std::vector<double> sorted = columns;
    std::nth_element(sorted.begin(), sorted.begin() + kLen / 2, sorted.end());
    for (size_t j = 0; j < kLen; j += 2) {
      columns[j] = sorted[kLen / 2];
    }
  }
  const Sequence q(std::move(columns));
  const Dtw dtw(DtwOptions::Linf());
  std::vector<Sequence> candidates;
  std::vector<double> thresholds;
  for (int p = 0; p < kPairs; ++p) {
    candidates.push_back(MakeWalk(kLen, 100 + static_cast<uint64_t>(p)));
    const Sequence& s = candidates.back();
    const double d = std::min(dtw.Distance(s, walk).distance,
                              dtw.Distance(s, q).distance);
    thresholds.push_back(std::nextafter(d, 0.0));
  }
  DtwScratch scratch;
  uint64_t cells = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (int p = 0; p < kPairs; ++p) {
      const DtwResult r =
          dtw.DistanceWithThreshold(candidates[p], q, thresholds[p],
                                    &scratch);
      benchmark::DoNotOptimize(r.distance);
      cells += r.cells;
    }
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_row"] =
      elapsed.count() / static_cast<double>(cells / kLen);
}
BENCHMARK(BM_LinfPrePass)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// One build of a query's L_inf rank table (ColumnRanks::Assign: the
// counting sort, the below masks and the bucket windows) on a random walk
// of Arg(0) columns, as Dtw::Prepare runs it once per query.
void BM_RankTableBuild(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence q = MakeWalk(len, 1);
  ColumnRanks ranks;
  for (auto _ : state) {
    ranks.Assign(q.data(), len);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RankTableBuild)->Arg(256)->Arg(1024);

// Thresholded unbanded L_inf over the paper's stock corpus (545 series of
// lengths 60-500) against 10 perturbed queries, so that the candidate is
// shorter than the query in about half the pairs. Arg(0) picks epsilon: 0
// for 0.5, 1 for 2. Arg(1) picks the kernel: 0 the search methods' path
// (the query prepared once, then the pre-pass and the windowed DP per
// pair), 1 the plain DP alone (the same answers: a band wider than any row
// skips the pre-pass). ns_per_pair is wall time per pair.
void BM_LinfMixedLengths(benchmark::State& state) {
  const double epsilon = state.range(0) == 0 ? 0.5 : 2.0;
  const bool prepared = state.range(1) == 0;
  const Dataset corpus = GenerateStockDataset(StockDataOptions{});
  const std::vector<Sequence> queries =
      GenerateQueryWorkload(corpus, QueryWorkloadOptions{.num_queries = 10});
  DtwOptions plain_options = DtwOptions::Linf();
  plain_options.band = 1000;  // wider than any row: no pre-pass
  const Dtw dtw(prepared ? DtwOptions::Linf() : plain_options);
  DtwScratch scratch;
  uint64_t pairs = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (const Sequence& q : queries) {
      const PreparedQuery query = dtw.Prepare(q);
      for (size_t i = 0; i < corpus.size(); ++i) {
        benchmark::DoNotOptimize(
            dtw.DistanceWithThreshold(corpus[i], query, epsilon, &scratch)
                .distance);
      }
      pairs += corpus.size();
    }
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_pair"] =
      elapsed.count() / static_cast<double>(pairs);
}
BENCHMARK(BM_LinfMixedLengths)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_DtwBanded(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 2);
  DtwOptions options = DtwOptions::Linf();
  options.band = static_cast<int>(len / 10);
  const Dtw dtw(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw.Distance(a, b).distance);
  }
}
BENCHMARK(BM_DtwBanded)->Arg(256)->Arg(1024);

void BM_DtwWithPath(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 2);
  const Dtw dtw(DtwOptions::Linf());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw.DistanceWithPath(a, b).distance);
  }
}
BENCHMARK(BM_DtwWithPath)->Arg(64)->Arg(256);

void BM_LbYi(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  const Sequence b = MakeWalk(len, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbYi(a, b, DtwCombiner::kMax));
  }
}
BENCHMARK(BM_LbYi)->Arg(64)->Arg(256)->Arg(1024);

void BM_FeatureExtraction(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Sequence a = MakeWalk(len, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractFeature(a));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(64)->Arg(256)->Arg(1024);

void BM_DtwLowerBound(benchmark::State& state) {
  const FeatureVector a = ExtractFeature(MakeWalk(256, 1));
  const FeatureVector b = ExtractFeature(MakeWalk(256, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwLowerBoundDistance(a, b));
  }
}
BENCHMARK(BM_DtwLowerBound);

// ---- Envelope lower bounds (the cascade's lb_keogh / lb_improved
// stages). Arg(0) is the sequence length, Arg(1) the Sakoe-Chiba radius.
// items_processed counts candidates, so the report's items/s inverts to
// ns per candidate, the unit to weigh against a DTW evaluation.

void BM_ComputeBandEnvelope(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const size_t radius = static_cast<size_t>(state.range(1));
  const Sequence q = MakeWalk(len, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBandEnvelope(q, radius));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ComputeBandEnvelope)
    ->Args({256, 8})
    ->Args({256, 32})
    ->Args({1024, 16});

void BM_LbKeogh(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const int band = static_cast<int>(state.range(1));
  DtwOptions options = DtwOptions::Linf();
  options.band = band;
  const Sequence q = MakeWalk(len, 1);
  const Sequence s = MakeWalk(len, 2);
  const BandEnvelope env = ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(s, q, env, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LbKeogh)->Args({256, 8})->Args({256, 32})->Args({1024, 16});

void BM_LbImproved(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const int band = static_cast<int>(state.range(1));
  DtwOptions options = DtwOptions::Linf();
  options.band = band;
  const Sequence q = MakeWalk(len, 1);
  const Sequence s = MakeWalk(len, 2);
  const BandEnvelope env = ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbImproved(s, q, env, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LbImproved)->Args({256, 8})->Args({256, 32})->Args({1024, 16});

// Tightness of the whole bound ladder at one banded configuration:
// counters report mean bound / exact-DTW over a pool of walk pairs (1.0
// would be a perfect bound), so the speed rows above can be read against
// how much pruning power each extra nanosecond buys.
void BM_EnvelopeBoundTightness(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const int band = static_cast<int>(state.range(1));
  DtwOptions options = DtwOptions::Linf();
  options.band = band;
  const Dtw dtw(options);
  constexpr int kPairs = 50;
  double feature_sum = 0.0;
  double yi_sum = 0.0;
  double keogh_sum = 0.0;
  double improved_sum = 0.0;
  for (auto _ : state) {
    feature_sum = yi_sum = keogh_sum = improved_sum = 0.0;
    for (int p = 0; p < kPairs; ++p) {
      const Sequence q = MakeWalk(len, 1 + 2 * static_cast<uint64_t>(p));
      const Sequence s = MakeWalk(len, 2 + 2 * static_cast<uint64_t>(p));
      const BandEnvelope env =
          ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
      const double exact = dtw.Distance(s, q).distance;
      feature_sum +=
          DtwLowerBoundDistance(ExtractFeature(s), ExtractFeature(q)) /
          exact;
      yi_sum += LbYi(s, q, options) / exact;
      keogh_sum += LbKeogh(s, q, env, options) / exact;
      improved_sum += LbImproved(s, q, env, options) / exact;
    }
    benchmark::DoNotOptimize(improved_sum);
  }
  state.counters["tight_feature"] = feature_sum / kPairs;
  state.counters["tight_yi"] = yi_sum / kPairs;
  state.counters["tight_keogh"] = keogh_sum / kPairs;
  state.counters["tight_improved"] = improved_sum / kPairs;
}
BENCHMARK(BM_EnvelopeBoundTightness)->Args({256, 8})->Args({256, 64});

}  // namespace
}  // namespace warpindex
