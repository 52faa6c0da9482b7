// A paged R-tree (Guttman 1984) with selectable split policies, optional
// R*-style forced reinsertion, deletion with tree condensation, range
// search, and best-first kNN search.
//
// This is the multi-dimensional index of the paper's §4.3: the 4-tuple
// feature vectors are inserted as degenerate (point) rectangles keyed by
// sequence id, and Algorithm 1's Step-2 is a square range query. The tree
// is dimension-generic so the FastMap comparator can reuse it at any k.
//
// Cost accounting: nodes are sized to one disk page; every node touched by
// a query increments RTreeQueryStats::nodes_accessed, which the benches
// convert to simulated I/O time via storage/disk_model.h.

#ifndef WARPINDEX_RTREE_RTREE_H_
#define WARPINDEX_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "rtree/geometry.h"
#include "rtree/node.h"
#include "rtree/split.h"

namespace warpindex {

struct RTreeOptions {
  // Page size in bytes; node fan-out is derived from it (paper §5.1 uses
  // 1 KB pages).
  size_t page_size_bytes = 1024;
  SplitPolicy split_policy = SplitPolicy::kQuadratic;
  // Minimum node fill as a fraction of capacity (classical 40%).
  double min_fill_fraction = 0.4;
  // R*-style forced reinsertion on first overflow per level per insert.
  bool forced_reinsert = false;
  // Fraction of entries evicted by a forced reinsert.
  double reinsert_fraction = 0.3;
  // R*-style split distribution factor: the minimum group size a split
  // may produce, as a fraction of the overflowing node (Beckmann et
  // al.'s m = factor * M; 0.4 is the paper's recommendation). 0 keeps
  // the legacy behavior of deriving the candidate range from
  // min_fill_fraction alone. Only the kRStar policy consults it.
  double split_distribution_factor = 0.0;
  // STR bulk-load packing fraction: nodes are packed to
  // bulk_fill_fraction * capacity instead of 100%, leaving insert
  // headroom so a bulk-loaded tree absorbs streaming inserts without
  // immediately splitting every touched leaf (snippet-3-style fill
  // factor). 1.0 = classic fully-packed STR.
  double bulk_fill_fraction = 1.0;
  // X-tree-style supernodes (paper §4.3.1 lists the X-tree among the
  // usable indexes): when a *directory* node split would produce MBRs
  // whose overlap exceeds `supernode_overlap_threshold` of their union,
  // the node becomes a multi-page supernode instead of splitting.
  bool allow_supernodes = false;
  double supernode_overlap_threshold = 0.2;
};

// Structural health snapshot of a tree (RTree::HealthStats): the index-
// quality numbers that predict query cost — occupancy says how many
// pages the same entries need, directory overlap says how many subtrees
// a point query must descend (Exact Indexing under DTW ties both
// directly to node accesses). Served live via /statusz and tracked by
// bench/micro_rtree so regressions show up in the perf trajectory.
struct RTreeHealth {
  int height = 0;          // levels (1 for a root-only tree)
  size_t records = 0;      // stored data entries
  size_t nodes = 0;        // live nodes
  size_t leaves = 0;
  size_t supernodes = 0;
  size_t pages = 0;        // disk pages (supernodes span several)
  size_t bytes = 0;        // pages * page_size
  // Bytes the node entry arrays hold in memory (EntryArray capacity).
  // Equals entries * EntryBytes(dims) for a bulk-loaded or file-loaded
  // tree; inserts add vector growth slack on top.
  size_t resident_bytes = 0;
  size_t node_capacity = 0;  // entries per single-page node

  struct LevelStats {
    int level = 0;  // 0 = leaf level
    size_t nodes = 0;
    size_t entries = 0;
    // entries / (nodes * capacity); > 1 possible on supernode levels.
    double avg_occupancy = 0.0;
    double min_occupancy = 0.0;
  };
  // One entry per level, leaf level first.
  std::vector<LevelStats> levels;

  // Leaf-level average occupancy (the headline fill factor).
  double leaf_occupancy = 0.0;
  // Directory quality, averaged over internal nodes (leaf entries are
  // degenerate point rects, so volumes only exist above them):
  //   overlap_ratio    sum of pairwise child-MBR overlap volume divided
  //                    by the node MBR volume (0 = perfectly disjoint)
  //   dead_space_ratio 1 - (sum of child volumes / node MBR volume),
  //                    clamped at 0 (space the node claims but no child
  //                    covers — range queries descend it for nothing)
  double overlap_ratio = 0.0;
  double dead_space_ratio = 0.0;
};

struct RTreeQueryStats {
  // Page accesses performed by the query (a supernode counts as several).
  uint64_t nodes_accessed = 0;
  // When non-null, every visited node's id is appended — callers that run
  // a buffer pool over the index pages need the actual ids, not just the
  // count.
  std::vector<NodeId>* accessed_nodes = nullptr;

  void Reset() { nodes_accessed = 0; }
};

class RTree {
 public:
  // `dims` in [1, kMaxRTreeDims].
  explicit RTree(int dims, RTreeOptions options = RTreeOptions());

  // Move-only: the node arena is heavy.
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts a record with the given MBR (a point rectangle for the feature
  // index).
  void Insert(RectView rect, int64_t record_id);

  // Removes the entry matching (rect, record_id) exactly. Returns false if
  // no such entry exists.
  bool Delete(RectView rect, int64_t record_id);

  // All record ids whose MBR intersects `query`. When a trace is
  // attached, the visited-node count is added as an `rtree_nodes`
  // counter on the innermost open span.
  std::vector<int64_t> RangeSearch(const Rect& query,
                                   RTreeQueryStats* stats = nullptr,
                                   Trace* trace = nullptr) const;

  struct Neighbor {
    int64_t record_id = -1;
    double distance = 0.0;  // L2 distance from the query point to the MBR
  };
  // The k records nearest to `p` (best-first branch-and-bound on MINDIST),
  // in non-decreasing distance order.
  std::vector<Neighbor> NearestNeighbors(const Point& p, size_t k,
                                         RTreeQueryStats* stats = nullptr)
      const;

  // Incremental nearest-record iteration under the L_inf metric
  // (Hjaltason & Samet). Records come out in non-decreasing
  // MinDistLinf(p, record MBR) order; the consumer stops whenever the
  // distance exceeds its own bound. This powers the exact D_tw kNN search
  // (core/tw_knn_search.h): the feature lower bound is L_inf on feature
  // tuples, so iterating by L_inf feature distance enumerates candidates
  // in lower-bound order.
  //
  // The iterator borrows the tree; do not mutate the tree while one is
  // live.
  class LinfNearestIterator {
   public:
    // Pops the next-nearest record. Returns false when exhausted.
    bool Next(Neighbor* out);

   private:
    friend class RTree;
    struct QueueItem {
      double dist = 0.0;
      NodeId node_id = kInvalidNodeId;  // kInvalidNodeId => record
      int64_t record_id = -1;
    };
    struct QueueOrder {
      bool operator()(const QueueItem& a, const QueueItem& b) const {
        return a.dist > b.dist;
      }
    };
    LinfNearestIterator(const RTree* tree, const Point& p,
                        RTreeQueryStats* stats);

    const RTree* tree_;
    Point point_;
    RTreeQueryStats* stats_;
    std::priority_queue<QueueItem, std::vector<QueueItem>, QueueOrder>
        queue_;
  };

  LinfNearestIterator NearestLinf(const Point& p,
                                  RTreeQueryStats* stats = nullptr) const {
    return LinfNearestIterator(this, p, stats);
  }

  int dims() const { return dims_; }
  const RTreeOptions& options() const { return options_; }
  size_t capacity() const { return capacity_; }
  size_t min_fill() const { return min_fill_; }

  // Number of stored records.
  size_t size() const { return size_; }
  // Number of live nodes. Without supernodes this equals the page count.
  size_t node_count() const { return live_nodes_; }
  // Number of index pages; supernodes occupy several contiguous pages.
  size_t TotalPages() const;
  // Pages occupied by one node (1 unless it is a supernode).
  size_t PagesOfNode(NodeId id) const;
  // Number of supernodes currently in the tree.
  size_t supernode_count() const;
  // Tree height in levels (1 for a root-only tree).
  int height() const;
  // Index footprint in bytes under the paged layout.
  size_t TotalBytes() const {
    return TotalPages() * options_.page_size_bytes;
  }

  // Structural validation for tests and loaded files: fill factors, MBR
  // containment, uniform leaf level, parent back-pointers, every live
  // node reachable from the root. Iterative, so a hostile height cannot
  // exhaust the stack.
  Status CheckInvariants() const;

  // Point-in-time structural health (occupancy per level, directory
  // overlap/dead-space estimates). One full traversal — O(nodes *
  // fan-out^2) for the pairwise overlap term — so call it from
  // introspection endpoints and benches, not per query. Const and safe
  // to run concurrently with queries (the tree is immutable while
  // serving; see docs/CONCURRENCY.md).
  RTreeHealth HealthStats() const;

 private:
  friend RTree BulkLoadStr(int dims, const RTreeOptions& options,
                           EntryArray leaf_entries);
  friend Status SaveRTreeToFile(const RTree& tree, const std::string& path);
  friend Status LoadRTreeFromFile(const std::string& path, RTree* out);

  NodeId AllocateNode(int level);
  void FreeNode(NodeId id);
  RTreeNode* node(NodeId id) { return nodes_[static_cast<size_t>(id)].get(); }
  const RTreeNode* node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].get();
  }

  // Chooses the child of `n` best suited to absorb `rect` when descending
  // toward `target_level`.
  NodeId ChooseSubtree(const RTreeNode& n, RectView rect) const;

  // Position of `child` among `parent`'s entries.
  static size_t ChildSlot(const RTreeNode& parent, NodeId child);

  // Inserts the entry (rect, ref) at tree level `level`; `rect` must not
  // point into a node. `reinserted_levels` tracks which levels already
  // performed a forced reinsert during the current public Insert call.
  void InsertAtLevel(RectView rect, int64_t ref, int level,
                     std::vector<bool>* reinserted_levels);

  // Handles an overfull node: forced reinsert (if enabled and allowed) or
  // split; propagates upward.
  void HandleOverflow(NodeId node_id, std::vector<bool>* reinserted_levels);

  void SplitNode(NodeId node_id, std::vector<bool>* reinserted_levels);

  // Recomputes MBRs from `node_id` to the root.
  void AdjustUpward(NodeId node_id);

  // Finds the leaf holding (rect, record_id); kInvalidNodeId if absent.
  NodeId FindLeaf(RectView rect, int64_t record_id) const;

  void CondenseTree(NodeId leaf_id);

  // Checks one node's own invariants and, for a directory node, each
  // child's back-pointer and MBR.
  Status CheckNode(NodeId node_id, int expected_level, bool is_root) const;

  int dims_;
  RTreeOptions options_;
  size_t capacity_;
  size_t min_fill_;
  std::vector<std::unique_ptr<RTreeNode>> nodes_;
  std::vector<NodeId> free_list_;
  NodeId root_;
  size_t size_ = 0;
  size_t live_nodes_ = 0;
};

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_RTREE_H_
