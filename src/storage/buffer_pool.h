// Thread-safe LRU buffer pool over the sequence store's pages.
//
// The pool turns repeated page touches into cache hits: only misses reach
// the disk model. The scan baselines bypass it (a full scan of a database
// larger than memory gains nothing from LRU caching and would only evict
// the working set), matching the paper-era behaviour; the index methods'
// repeated root/branch touches, by contrast, mostly hit.
//
// Thread-safety contract: Access() and Clear() may be called from any
// number of threads concurrently (the concurrent query executor shares
// one pool across all workers). Frames are split into lock-striped
// shards — a page's shard is a hash of its id, so two threads touching
// different shards never contend — and the hit/miss counters are atomics.
// Small pools (fewer than kShardingThreshold frames) keep a single shard
// and therefore exact global LRU order; larger pools approximate global
// LRU per shard, which is the standard buffer-manager trade
// (shared_buffers-style partitioned clock/LRU sweeps).
//
// Access() is const: admitting or evicting a frame changes only the
// cache's internal state, never the answer of any query — the pool is
// logically constant along the read path, like the rest of the query
// stack (see docs/CONCURRENCY.md for the module-by-module matrix).

#ifndef WARPINDEX_STORAGE_BUFFER_POOL_H_
#define WARPINDEX_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "storage/disk_model.h"

namespace warpindex {

// Identifier of a page the pool caches (an index node id).
using PageId = int64_t;

class BufferPool {
 public:
  // Pools at or above this many frames are split into shards.
  static constexpr size_t kShardingThreshold = 64;
  static constexpr size_t kMaxShards = 16;

  // `capacity_pages` frames in total; zero disables caching (every access
  // misses). `num_shards` = 0 picks automatically: one shard for small
  // pools (exact LRU), up to kMaxShards for large ones.
  explicit BufferPool(size_t capacity_pages, size_t num_shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns true if `page_id` was cached (hit). On a miss, the page is
  // admitted, the shard's LRU victim evicted, and one random page read
  // charged to `stats` (when provided). A trace (optional) receives
  // `pool_hits` / `pool_misses` counters on the innermost open span.
  // Safe to call concurrently; `stats` and `trace` are the caller's own
  // (per-query) objects and are not synchronized here.
  bool Access(PageId page_id, IoStats* stats, Trace* trace = nullptr) const;

  // Drops all cached pages. Safe to call concurrently with Access().
  void Clear() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  // Total cached frames (takes each shard lock briefly).
  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  // Point-in-time view for live introspection (/statusz). Safe to call
  // concurrently with Access(); hits/misses are read together but
  // relaxed, so the ratio is approximate under churn — fine for a
  // dashboard, don't assert on it in a race.
  struct StatsSnapshot {
    size_t capacity = 0;
    size_t cached = 0;
    size_t shards = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    // hits / (hits + misses); 0 before any access.
    double hit_ratio = 0.0;
  };
  StatsSnapshot TakeStatsSnapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used.
    std::list<PageId> lru;
    std::unordered_map<PageId, std::list<PageId>::iterator> index;
  };

  Shard& ShardFor(PageId page_id) const {
    return shards_[static_cast<size_t>(page_id) & shard_mask_];
  }

  size_t capacity_;
  size_t shard_capacity_;
  size_t shard_mask_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace warpindex

#endif  // WARPINDEX_STORAGE_BUFFER_POOL_H_
