// SequenceStore: the paged heap file holding the data sequences.
//
// The store owns the dataset and accounts for it as a heap file of
// fixed-size pages: sequences are laid out contiguously (spanned layout:
// a record may cross page boundaries, each record being a u64 length
// followed by its doubles), and a directory maps each SequenceId to its
// byte extent. The layout exists only for I/O accounting; the sequences
// themselves are kept once, in the owned Dataset, and never serialized.
// Two access paths exist, with different I/O cost profiles:
//
//   * Fetch(id):   random access — one seek plus the record's pages
//                  (Algorithm 1, Step-5: read candidates for
//                  post-processing);
//   * ScanAll():   sequential access — one seek plus every page (the scan
//                  baselines' filtering stage).
//
// Both charge the supplied IoStats; the disk model turns the counters into
// simulated milliseconds.

#ifndef WARPINDEX_STORAGE_SEQUENCE_STORE_H_
#define WARPINDEX_STORAGE_SEQUENCE_STORE_H_

#include <functional>
#include <vector>

#include "obs/trace.h"
#include "sequence/dataset.h"
#include "sequence/sequence.h"
#include "storage/disk_model.h"

namespace warpindex {

class SequenceStore {
 public:
  // Takes ownership of `dataset` and lays its sequences out in pages of
  // `page_size_bytes`.
  SequenceStore(Dataset dataset, size_t page_size_bytes);

  SequenceStore(SequenceStore&&) = default;
  SequenceStore& operator=(SequenceStore&&) = default;
  SequenceStore(const SequenceStore&) = delete;
  SequenceStore& operator=(const SequenceStore&) = delete;

  // Every sequence ever stored, tombstoned ones included, by id.
  const Dataset& dataset() const { return dataset_; }

  // All directory slots ever allocated, including tombstoned ones.
  size_t num_sequences() const { return directory_.size(); }
  // Slots still live (not removed).
  size_t num_live() const { return num_live_; }
  size_t num_pages() const {
    return static_cast<size_t>((end_offset_ + page_size_bytes_ - 1) /
                               page_size_bytes_);
  }
  size_t page_size_bytes() const { return page_size_bytes_; }
  size_t TotalBytes() const { return num_pages() * page_size_bytes_; }

  // Pages occupied by a record (for cost estimation).
  uint64_t PagesOf(SequenceId id) const;

  // Random fetch: returns the stored sequence (its id set), charging one
  // random run of PagesOf(id) pages to `stats` (when provided). A trace
  // (optional) receives the page count as a `pages_read` counter on the
  // innermost open span. The reference stays valid until the next
  // Append (the only call that can move the stored sequences).
  const Sequence& Fetch(SequenceId id, IoStats* stats = nullptr,
                        Trace* trace = nullptr) const;

  // Sequential scan: invokes `fn` for every *live* sequence in id order,
  // charging one sequential run covering all pages. If `fn` returns false
  // the scan stops early (the full run is still charged — the paper's
  // scan methods read the whole database). A trace (optional) receives
  // the page count as a `pages_read` counter.
  void ScanAll(const std::function<bool(SequenceId, const Sequence&)>& fn,
               IoStats* stats = nullptr, Trace* trace = nullptr) const;

  // Appends a sequence at the end of the heap file (allocating pages as
  // needed) and returns its id. Charges the written pages to `stats`.
  SequenceId Append(Sequence s, IoStats* stats = nullptr);

  // Tombstones a record: scans skip it and Fetch of it is a programmer
  // error. Returns false if `id` is unknown or already removed. (Space is
  // not reclaimed — like the paper-era heap files, compaction is a
  // rebuild.)
  bool Remove(SequenceId id);

  // True iff `id` names a live record.
  bool IsLive(SequenceId id) const;

 private:
  struct DirectoryEntry {
    uint64_t byte_offset = 0;  // global byte offset of the record
    uint64_t length = 0;       // element count
    bool live = true;
  };

  // Appends the directory entry of the first sequence without one.
  void Layout();

  Dataset dataset_;
  size_t page_size_bytes_;
  std::vector<DirectoryEntry> directory_;
  // First unused byte in the heap file.
  uint64_t end_offset_ = 0;
  size_t num_live_ = 0;
};

}  // namespace warpindex

#endif  // WARPINDEX_STORAGE_SEQUENCE_STORE_H_
