#include "storage/sequence_store.h"

#include <gtest/gtest.h>

#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset MakeDataset() {
  Dataset d;
  d.Add(Sequence({1.0, 2.0, 3.0}));
  d.Add(Sequence({4.0}));
  d.Add(Sequence(std::vector<double>(100, 7.0)));  // spans multiple pages
  return d;
}

TEST(SequenceStoreTest, FetchRoundTripsEverySequence) {
  const Dataset d = MakeDataset();
  const SequenceStore store(d, 128);
  ASSERT_EQ(store.num_sequences(), 3u);
  for (size_t i = 0; i < d.size(); ++i) {
    const Sequence fetched = store.Fetch(static_cast<SequenceId>(i));
    EXPECT_EQ(fetched, d[i]);
    EXPECT_EQ(fetched.id(), static_cast<SequenceId>(i));
  }
}

TEST(SequenceStoreTest, ScanVisitsAllInOrder) {
  const Dataset d = MakeDataset();
  const SequenceStore store(d, 128);
  std::vector<SequenceId> seen;
  store.ScanAll([&](SequenceId id, const Sequence& s) {
    seen.push_back(id);
    EXPECT_EQ(s, d[static_cast<size_t>(id)]);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<SequenceId>{0, 1, 2}));
}

TEST(SequenceStoreTest, ScanEarlyStop) {
  const SequenceStore store(MakeDataset(), 128);
  int visited = 0;
  store.ScanAll([&](SequenceId, const Sequence&) {
    ++visited;
    return visited < 2;
  });
  EXPECT_EQ(visited, 2);
}

TEST(SequenceStoreTest, PageCountMatchesPayload) {
  const Dataset d = MakeDataset();
  // Payload: (8 + 24) + (8 + 8) + (8 + 800) = 856 bytes.
  const SequenceStore store(d, 128);
  EXPECT_EQ(store.num_pages(), (856u + 127u) / 128u);
  EXPECT_EQ(store.TotalBytes(), store.num_pages() * 128u);
}

TEST(SequenceStoreTest, PagesOfSpanningRecord) {
  const Dataset d = MakeDataset();
  const SequenceStore store(d, 128);
  // Sequence 2 is 808 bytes -> at least 7 pages of 128.
  EXPECT_GE(store.PagesOf(2), 7u);
  EXPECT_LE(store.PagesOf(0), 1u);
}

TEST(SequenceStoreTest, FetchChargesOneSeekPlusRecordPages) {
  const SequenceStore store(MakeDataset(), 128);
  IoStats stats;
  store.Fetch(2, &stats);
  EXPECT_EQ(stats.seeks, 1u);
  EXPECT_EQ(stats.random_page_reads, store.PagesOf(2));
  EXPECT_EQ(stats.sequential_page_reads, 0u);
}

TEST(SequenceStoreTest, ScanChargesOneSequentialRun) {
  const SequenceStore store(MakeDataset(), 128);
  IoStats stats;
  store.ScanAll([](SequenceId, const Sequence&) { return true; }, &stats);
  EXPECT_EQ(stats.seeks, 1u);
  EXPECT_EQ(stats.sequential_page_reads, store.num_pages());
  EXPECT_EQ(stats.random_page_reads, 0u);
}

TEST(SequenceStoreTest, LargeDatasetRoundTrip) {
  RandomWalkOptions options;
  options.num_sequences = 50;
  options.min_length = 10;
  options.max_length = 300;
  const Dataset d = GenerateRandomWalkDataset(options);
  const SequenceStore store(d, 1024);
  for (size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(store.Fetch(static_cast<SequenceId>(i)), d[i]);
  }
}

TEST(SequenceStoreTest, AppendExtendsTheHeapFile) {
  SequenceStore store(MakeDataset(), 128);
  const size_t pages_before = store.num_pages();
  IoStats stats;
  const SequenceId id =
      store.Append(Sequence(std::vector<double>(50, 3.5)), &stats);
  EXPECT_EQ(id, 3);
  EXPECT_EQ(store.num_sequences(), 4u);
  EXPECT_EQ(store.num_live(), 4u);
  EXPECT_GT(store.num_pages(), pages_before);
  EXPECT_GT(stats.page_writes, 0u);
  EXPECT_EQ(store.Fetch(id), Sequence(std::vector<double>(50, 3.5)));
}

TEST(SequenceStoreTest, AppendedRecordsSurviveInterleavedReads) {
  SequenceStore store(MakeDataset(), 64);
  std::vector<Sequence> appended;
  for (int i = 0; i < 20; ++i) {
    appended.emplace_back(
        std::vector<double>(static_cast<size_t>(3 + i * 5), i * 1.5));
    store.Append(appended.back());
    // Read back an earlier record between writes.
    EXPECT_EQ(store.Fetch(static_cast<SequenceId>(i / 2 + 3)),
              appended[static_cast<size_t>(i / 2)]);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(store.Fetch(static_cast<SequenceId>(i + 3)),
              appended[static_cast<size_t>(i)]);
  }
}

TEST(SequenceStoreTest, RemoveTombstonesAndScanSkips) {
  SequenceStore store(MakeDataset(), 128);
  ASSERT_TRUE(store.Remove(1));
  EXPECT_FALSE(store.Remove(1));
  EXPECT_FALSE(store.Remove(99));
  EXPECT_FALSE(store.IsLive(1));
  EXPECT_TRUE(store.IsLive(0));
  EXPECT_EQ(store.num_live(), 2u);
  std::vector<SequenceId> seen;
  store.ScanAll([&](SequenceId id, const Sequence&) {
    seen.push_back(id);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<SequenceId>{0, 2}));
}

// Page accounting pinned for a fixed set of record lengths at two page
// sizes: the directory alone decides every count, whatever the store
// keeps in memory.
struct PinnedLayout {
  size_t page_size;
  size_t num_pages;
  std::vector<uint64_t> pages_of;
  uint64_t fetch_random_reads;
  uint64_t scan_sequential_reads;
  uint64_t append_writes;
  size_t num_pages_after_append;
  uint64_t pages_of_appended[2];
};

TEST(SequenceStoreTest, PageAccountingMatchesPinnedValues) {
  const size_t lengths[] = {68, 18, 59, 58, 11, 49, 34, 69, 55, 34, 15, 19};
  Dataset d;
  for (const size_t len : lengths) {
    d.Add(Sequence(std::vector<double>(len, 0.5 * static_cast<double>(len))));
  }
  const PinnedLayout layouts[] = {
      {128, 32, {5, 2, 5, 4, 2, 4, 3, 5, 4, 4, 2, 2}, 42, 32, 5, 35, {3, 2}},
      {1024, 4, {1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1}, 15, 4, 3, 5, {2, 1}},
  };
  for (const PinnedLayout& expected : layouts) {
    SCOPED_TRACE(expected.page_size);
    SequenceStore store(d, expected.page_size);
    EXPECT_EQ(store.num_pages(), expected.num_pages);
    EXPECT_EQ(store.TotalBytes(), expected.num_pages * expected.page_size);
    IoStats fetch;
    for (size_t i = 0; i < d.size(); ++i) {
      const auto id = static_cast<SequenceId>(i);
      EXPECT_EQ(store.PagesOf(id), expected.pages_of[i]);
      const Sequence& fetched = store.Fetch(id, &fetch);
      // Fetch hands out the stored sequence itself, not a copy.
      EXPECT_EQ(&fetched, &store.dataset()[i]);
      EXPECT_EQ(fetched, d[i]);
    }
    EXPECT_EQ(fetch.random_page_reads, expected.fetch_random_reads);
    EXPECT_EQ(fetch.seeks, d.size());
    EXPECT_EQ(fetch.sequential_page_reads + fetch.page_writes, 0u);

    IoStats scan;
    store.ScanAll([](SequenceId, const Sequence&) { return true; }, &scan);
    EXPECT_EQ(scan.sequential_page_reads, expected.scan_sequential_reads);
    EXPECT_EQ(scan.seeks, 1u);
    EXPECT_EQ(scan.random_page_reads + scan.page_writes, 0u);

    IoStats append;
    const SequenceId first =
        store.Append(Sequence(std::vector<double>(40, 1.25)), &append);
    const SequenceId second =
        store.Append(Sequence(std::vector<double>(3, 2.0)), &append);
    EXPECT_EQ(append.page_writes, expected.append_writes);
    EXPECT_EQ(append.seeks, 0u);
    EXPECT_EQ(store.num_pages(), expected.num_pages_after_append);
    EXPECT_EQ(store.TotalBytes(),
              expected.num_pages_after_append * expected.page_size);
    EXPECT_EQ(store.PagesOf(first), expected.pages_of_appended[0]);
    EXPECT_EQ(store.PagesOf(second), expected.pages_of_appended[1]);
    EXPECT_EQ(store.Fetch(second).id(), second);
  }
}

TEST(SequenceStoreTest, PaperPageSizeHoldsStockData) {
  // The store must round-trip the whole (synthetic) S&P corpus at the
  // paper's 1 KB page size.
  Dataset d;
  d.Add(Sequence(std::vector<double>(231, 42.0)));
  const SequenceStore store(d, 1024);
  // 8 + 231*8 = 1856 bytes -> 2 pages.
  EXPECT_EQ(store.num_pages(), 2u);
  EXPECT_EQ(store.Fetch(0), d[0]);
}

}  // namespace
}  // namespace warpindex
