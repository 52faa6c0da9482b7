// R-tree persistence: a paged index is only useful if it survives
// restarts. The format serializes the tree structure with node ids
// remapped to a dense preorder, so free-list holes never reach disk.
//
//   magic "WIRT" | u32 version | u32 dims | options | u64 size |
//   u32 node_count | root (always node 0) ... nodes in preorder:
//   i32 level, u8 supernode, u32 entry_count, entries (2*dims doubles,
//   min then max per dimension, + i64 child-or-record id).
//
// An entry's bounds are stored in memory in this same order (EntryArray,
// rtree/node.h), so saving copies them out unchanged.

#ifndef WARPINDEX_RTREE_RTREE_IO_H_
#define WARPINDEX_RTREE_RTREE_IO_H_

#include <string>

#include "common/status.h"
#include "rtree/rtree.h"

namespace warpindex {

// Writes `tree` to `path` (overwriting).
Status SaveRTreeToFile(const RTree& tree, const std::string& path);

// Reads a tree previously written by SaveRTreeToFile. On success `*out`
// is replaced. Every count is checked against the bytes left in the file
// before anything is sized by it, and structural invariants are
// re-validated after load; a corrupt or hostile file yields
// kInvalidArgument, a failed read kIoError.
Status LoadRTreeFromFile(const std::string& path, RTree* out);

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_RTREE_IO_H_
