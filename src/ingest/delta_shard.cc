#include "ingest/delta_shard.h"

#include <algorithm>

namespace warpindex {
namespace {

std::vector<SequenceId> SortedIds(
    const std::unordered_set<SequenceId>& ids) {
  std::vector<SequenceId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void DeltaShard::Append(DeltaEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry_ids_.insert(entry.id);
  entries_.push_back(std::move(entry));
  empty_.store(false, std::memory_order_release);
  writes_total_.fetch_add(1, std::memory_order_relaxed);
}

DeltaShard::DeadMark DeltaShard::MarkDead(SequenceId id,
                                          bool known_live_in_base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_.count(id) != 0) {
    return DeadMark::kAlreadyDead;
  }
  if (entry_ids_.count(id) == 0 && !known_live_in_base) {
    return DeadMark::kUnknown;
  }
  dead_.insert(id);
  empty_.store(false, std::memory_order_release);
  writes_total_.fetch_add(1, std::memory_order_relaxed);
  return DeadMark::kMarked;
}

DeltaShard::Snapshot DeltaShard::TakeSnapshot() const {
  // A write acknowledged before this load is seen (its store precedes
  // the ack); one still in flight is seen whole under the lock or not
  // at all.
  if (empty_.load(std::memory_order_acquire)) {
    return {};
  }
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.entries.reserve(entries_.size());
  for (const DeltaEntry& entry : entries_) {
    if (dead_.count(entry.id) == 0) {
      snap.entries.push_back(entry);
    }
  }
  snap.dead = SortedIds(dead_);
  return snap;
}

DeltaShard::Frozen DeltaShard::Freeze() const {
  std::lock_guard<std::mutex> lock(mu_);
  Frozen frozen;
  frozen.entry_count = entries_.size();
  frozen.entries.assign(entries_.begin(), entries_.end());
  frozen.dead = SortedIds(dead_);
  return frozen;
}

void DeltaShard::ApplyCompaction(const Frozen& frozen) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < frozen.entry_count; ++i) {
    entry_ids_.erase(entries_.front().id);
    entries_.pop_front();
  }
  for (const SequenceId id : frozen.dead) {
    dead_.erase(id);
  }
  empty_.store(entries_.empty() && dead_.empty(), std::memory_order_release);
}

DeltaShard::Stats DeltaShard::TakeStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.entries = entries_.size();
  stats.dead = dead_.size();
  stats.oldest_ms = entries_.empty() ? 0.0 : entries_.front().appended_ms;
  stats.writes_total = writes_total_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace warpindex
