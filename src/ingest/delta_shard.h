// DeltaShard: the small mutable write buffer in front of one immutable
// base shard of the streaming ingest engine (ingest/ingest_engine.h).
//
// LSM-style split of responsibilities: concurrent Insert/Delete land
// here (an append-ordered entry log plus a tombstone set, all under one
// short mutex), while the STR-bulk-loaded base Engine keeps serving
// reads untouched. Queries take a Snapshot — a copy of the currently
// visible entries (shared_ptr aliases, so copying is cheap and the
// sequences outlive any concurrent compaction) plus the tombstone ids —
// and do every expensive step (lower bounds, DTW) outside the lock.
//
// Compaction freezes a prefix of the log (Freeze), merges it into a
// freshly bulk-loaded base off-lock, then atomically applies the result
// (ApplyCompaction, called under the engine's epoch writer lock):
// exactly the frozen entries leave the log and exactly the frozen
// tombstones leave the set, so writes that raced the merge stay
// buffered. See docs/INGEST.md for the exactness argument.
//
// Thread-safety: all methods may race freely; each takes the shard
// mutex for O(delta size) or less (TakeSnapshot of an empty shard takes
// none). The stats counters are relaxed
// atomics for dashboards.

#ifndef WARPINDEX_INGEST_DELTA_SHARD_H_
#define WARPINDEX_INGEST_DELTA_SHARD_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "sequence/feature.h"
#include "sequence/sequence.h"

namespace warpindex {

// One buffered insert. The feature tuple is extracted once at write
// time; queries scan it for the D_tw-lb pre-filter without touching the
// sequence data.
struct DeltaEntry {
  SequenceId id = kInvalidSequenceId;  // global id
  FeatureVector feature;
  std::shared_ptr<const Sequence> sequence;
  // Engine-clock timestamp of the append (ms); drives the age-based
  // compaction trigger.
  double appended_ms = 0.0;
};

class DeltaShard {
 public:
  // What a query sees: the visible (not tombstoned) entries and the
  // tombstone ids (sorted ascending) that filter base-shard results.
  struct Snapshot {
    std::vector<DeltaEntry> entries;
    std::vector<SequenceId> dead;
  };

  // A compaction unit: the first `entry_count` log entries verbatim
  // (tombstoned ones included — the merge drops them) and the tombstone
  // set at freeze time, sorted ascending.
  struct Frozen {
    size_t entry_count = 0;
    std::vector<DeltaEntry> entries;
    std::vector<SequenceId> dead;
  };

  struct Stats {
    size_t entries = 0;     // buffered log entries (tombstoned included)
    size_t dead = 0;        // tombstone set size
    double oldest_ms = 0.0; // appended_ms of the oldest entry (0 if none)
    uint64_t writes_total = 0;
  };

  enum class DeadMark {
    kMarked,       // id transitioned live -> dead
    kAlreadyDead,  // a tombstone for id already exists
    kUnknown,      // id is neither buffered here nor live in the base
  };

  DeltaShard() = default;
  DeltaShard(const DeltaShard&) = delete;
  DeltaShard& operator=(const DeltaShard&) = delete;

  void Append(DeltaEntry entry);

  // Tombstones `id`. `known_live_in_base` tells the shard the caller
  // resolved `id` to a live sequence of the base engine; without it the
  // id must be a buffered entry to be markable.
  DeadMark MarkDead(SequenceId id, bool known_live_in_base);

  // Lock-free when the shard buffers nothing (no entry, no tombstone):
  // a write-free or freshly compacted partition costs a query one
  // atomic load, not a mutex shared with every other query.
  Snapshot TakeSnapshot() const;
  Frozen Freeze() const;

  // Applies a completed merge of `frozen` into the base: drops the
  // frozen log prefix and erases the frozen tombstones. The caller must
  // hold the engine's epoch writer lock so no query can pair the new
  // base with a delta that no longer buffers those writes.
  void ApplyCompaction(const Frozen& frozen);

  Stats TakeStats() const;

  // Writes/second over the compactor's last poll interval (EWMA set by
  // the poll loop; 0 without a running compactor).
  void set_write_rate(double per_s) {
    write_rate_.store(per_s, std::memory_order_relaxed);
  }
  double write_rate() const {
    return write_rate_.load(std::memory_order_relaxed);
  }
  uint64_t writes_total() const {
    return writes_total_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::deque<DeltaEntry> entries_;
  // Ids currently buffered in entries_ (tombstoned included).
  std::unordered_set<SequenceId> entry_ids_;
  // Tombstones: ids deleted since the last compaction consumed them
  // (base ids and buffered delta ids alike).
  std::unordered_set<SequenceId> dead_;
  // entries_ and dead_ both empty; stored under mu_ after each change.
  std::atomic<bool> empty_{true};

  std::atomic<uint64_t> writes_total_{0};
  std::atomic<double> write_rate_{0.0};
};

}  // namespace warpindex

#endif  // WARPINDEX_INGEST_DELTA_SHARD_H_
