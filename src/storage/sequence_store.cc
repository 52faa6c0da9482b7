#include "storage/sequence_store.h"

#include <cassert>
#include <utility>

namespace warpindex {

SequenceStore::SequenceStore(Dataset dataset, size_t page_size_bytes)
    : dataset_(std::move(dataset)), page_size_bytes_(page_size_bytes) {
  assert(page_size_bytes_ >= sizeof(double));
  // The initial load charges no I/O.
  directory_.reserve(dataset_.size());
  for (size_t i = 0; i < dataset_.size(); ++i) {
    Layout();
  }
}

void SequenceStore::Layout() {
  const Sequence& s = dataset_[directory_.size()];
  DirectoryEntry entry;
  entry.byte_offset = end_offset_;
  entry.length = s.size();
  end_offset_ += sizeof(uint64_t) + s.size() * sizeof(double);
  directory_.push_back(entry);
  ++num_live_;
}

SequenceId SequenceStore::Append(Sequence s, IoStats* stats) {
  dataset_.Add(std::move(s));
  Layout();
  const auto id = static_cast<SequenceId>(directory_.size() - 1);
  if (stats != nullptr) {
    stats->RecordWrite(PagesOf(id));
  }
  return id;
}

bool SequenceStore::Remove(SequenceId id) {
  if (id < 0 || static_cast<size_t>(id) >= directory_.size() ||
      !directory_[static_cast<size_t>(id)].live) {
    return false;
  }
  directory_[static_cast<size_t>(id)].live = false;
  --num_live_;
  return true;
}

bool SequenceStore::IsLive(SequenceId id) const {
  return id >= 0 && static_cast<size_t>(id) < directory_.size() &&
         directory_[static_cast<size_t>(id)].live;
}

uint64_t SequenceStore::PagesOf(SequenceId id) const {
  assert(id >= 0 && static_cast<size_t>(id) < directory_.size());
  const DirectoryEntry& entry = directory_[static_cast<size_t>(id)];
  const uint64_t bytes = sizeof(uint64_t) + entry.length * sizeof(double);
  const uint64_t first_page = entry.byte_offset / page_size_bytes_;
  const uint64_t last_page =
      (entry.byte_offset + bytes - 1) / page_size_bytes_;
  return last_page - first_page + 1;
}

const Sequence& SequenceStore::Fetch(SequenceId id, IoStats* stats,
                                     Trace* trace) const {
  assert(IsLive(id));
  if (stats != nullptr) {
    stats->RecordRandomRun(PagesOf(id));
  }
  TraceCounter(trace, "pages_read", static_cast<double>(PagesOf(id)));
  return dataset_[static_cast<size_t>(id)];
}

void SequenceStore::ScanAll(
    const std::function<bool(SequenceId, const Sequence&)>& fn,
    IoStats* stats, Trace* trace) const {
  if (stats != nullptr) {
    stats->RecordSequentialRun(num_pages());
  }
  TraceCounter(trace, "pages_read", static_cast<double>(num_pages()));
  for (size_t i = 0; i < directory_.size(); ++i) {
    if (!directory_[i].live) {
      continue;
    }
    if (!fn(static_cast<SequenceId>(i), dataset_[i])) {
      return;
    }
  }
}

}  // namespace warpindex
