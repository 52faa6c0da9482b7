// R-tree node layout.
//
// Nodes are sized to a disk page: capacity is derived from the page size
// and the entry footprint (2 * dims coordinates + one id), mirroring a
// paged on-disk R-tree so that "node accesses" equal "page accesses" for
// the disk cost model (paper §5.1 uses 1 KB pages).
//
// In memory an entry takes that same footprint. EntryArray stores a
// node's entries flat: 2 * dims interleaved bound doubles per entry (the
// page order) plus one int64 ref, which is the child node id in a
// directory node and the record id in a leaf. A 4-d feature-index entry
// is 72 bytes in memory and on the page alike; RTreeHealth::resident_bytes
// reports what the arrays hold.

#ifndef WARPINDEX_RTREE_NODE_H_
#define WARPINDEX_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "rtree/geometry.h"

namespace warpindex {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNodeId = -1;

// The entries of one node (or a batch of leaf entries for the bulk
// loader), at their page footprint.
class EntryArray {
 public:
  explicit EntryArray(int dims = 0) : dims_(dims) {}

  int dims() const { return dims_; }
  size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }

  RectView rect(size_t i) const {
    return RectView(bounds_.data() + i * Stride(), dims_);
  }
  int64_t ref(size_t i) const { return refs_[i]; }
  NodeId child(size_t i) const { return static_cast<NodeId>(refs_[i]); }

  void Reserve(size_t n);
  // Appends a copy of `rect` (which must not point into this array).
  void Push(RectView rect, int64_t ref);
  void SetRect(size_t i, RectView rect);
  // Removes entry i, keeping the order of the rest.
  void Erase(size_t i);

  // MBR of all entries. Requires a non-empty array.
  Rect Mbr() const;

  // Bytes the arrays hold (capacity, not size): what the entries cost
  // in memory.
  size_t ResidentBytes() const;

 private:
  size_t Stride() const { return 2 * static_cast<size_t>(dims_); }

  int dims_;
  std::vector<double> bounds_;
  std::vector<int64_t> refs_;
};

struct RTreeNode {
  NodeId id = kInvalidNodeId;
  NodeId parent = kInvalidNodeId;
  // 0 for leaves; the root carries the largest level.
  int level = 0;
  // X-tree-style supernode: allowed to exceed the page capacity because
  // every candidate split would produce heavily overlapping directory
  // MBRs (Berchtold et al.). Occupies multiple contiguous pages.
  bool supernode = false;
  EntryArray entries;

  bool IsLeaf() const { return level == 0; }

  // MBR of all entries. Requires a non-empty node.
  Rect ComputeMbr() const { return entries.Mbr(); }
};

// On-page footprint of one entry in bytes: 2 * dims * sizeof(double)
// coordinates plus an 8-byte child/record id.
size_t EntryBytes(int dims);

// Maximum entries per node for a page of `page_size_bytes` with a
// `header_bytes` page header. Always at least 2 (an R-tree needs fan-out
// >= 2 even under absurdly small pages).
size_t NodeCapacityForPage(size_t page_size_bytes, int dims,
                           size_t header_bytes = 24);

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_NODE_H_
