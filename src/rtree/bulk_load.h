// Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al.), the bulk
// construction path the paper's §4.3.1 recommends for initial index builds
// over large databases ("we can achieve high performance gains in
// construction by using bulk loading methods [6, 14, 15]").
//
// STR tiles the entries into near-full pages level by level, producing a
// tree with ~100% fill factor and far better build time than one-by-one
// insertion (quantified by bench/abl4_bulk_load).
//
// Each level sorts sub-ranges of one permutation of its entry array in
// place (no per-slab copies) and copies every group straight into its
// node, sized exactly. The build's transient is the input array plus 4
// bytes per entry of permutation.

#ifndef WARPINDEX_RTREE_BULK_LOAD_H_
#define WARPINDEX_RTREE_BULK_LOAD_H_

#include "rtree/rtree.h"

namespace warpindex {

// Builds an R-tree over the given leaf entries (refs are record ids) with
// STR packing. Requires leaf_entries.dims() == dims unless it is empty.
// The resulting tree supports all regular operations
// (insert/delete/search).
RTree BulkLoadStr(int dims, const RTreeOptions& options,
                  EntryArray leaf_entries);

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_BULK_LOAD_H_
