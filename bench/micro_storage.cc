// Microbenchmarks for the storage engine: building the page directory,
// random fetch, sequential scan, and buffer pool operations.

#include <benchmark/benchmark.h>

#include "sequence/random_walk_generator.h"
#include "storage/buffer_pool.h"
#include "storage/sequence_store.h"

namespace warpindex {
namespace {

Dataset MakeData(size_t n, size_t len) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = len;
  options.max_length = len;
  return GenerateRandomWalkDataset(options);
}

void BM_StoreBuild(benchmark::State& state) {
  const Dataset data =
      MakeData(static_cast<size_t>(state.range(0)), 200);
  for (auto _ : state) {
    // The store owns its dataset, so each build includes copying it.
    SequenceStore store(data, 1024);
    benchmark::DoNotOptimize(store.num_pages());
  }
}
BENCHMARK(BM_StoreBuild)->Arg(1000)->Arg(10000);

void BM_StoreFetch(benchmark::State& state) {
  const Dataset data = MakeData(5000, 200);
  const SequenceStore store(data, 1024);
  SequenceId id = 0;
  IoStats stats;
  for (auto _ : state) {
    // Fetch returns the stored sequence by reference: the cost is the
    // I/O accounting, not a copy.
    const Sequence& s = store.Fetch(id, &stats);
    benchmark::DoNotOptimize(s.data());
    id = (id + 37) % 5000;
  }
  benchmark::DoNotOptimize(stats.random_page_reads);
}
BENCHMARK(BM_StoreFetch);

void BM_StoreScan(benchmark::State& state) {
  const Dataset data =
      MakeData(static_cast<size_t>(state.range(0)), 200);
  const SequenceStore store(data, 1024);
  for (auto _ : state) {
    size_t total = 0;
    store.ScanAll([&](SequenceId, const Sequence& s) {
      total += s.size();
      return true;
    });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StoreScan)->Arg(1000)->Arg(10000);

void BM_BufferPoolAccess(benchmark::State& state) {
  BufferPool pool(static_cast<size_t>(state.range(0)));
  PageId page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(page, nullptr));
    page = (page + 17) % 2048;
  }
}
BENCHMARK(BM_BufferPoolAccess)->Arg(64)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace warpindex
