#include "rtree/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

namespace warpindex {

RTree::RTree(int dims, RTreeOptions options)
    : dims_(dims), options_(options) {
  assert(dims >= 1 && dims <= kMaxRTreeDims);
  assert(options_.min_fill_fraction > 0.0 &&
         options_.min_fill_fraction <= 0.5);
  capacity_ = NodeCapacityForPage(options_.page_size_bytes, dims_);
  min_fill_ = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(capacity_) *
                             options_.min_fill_fraction));
  root_ = AllocateNode(/*level=*/0);
}

NodeId RTree::AllocateNode(int level) {
  ++live_nodes_;
  if (!free_list_.empty()) {
    const NodeId id = free_list_.back();
    free_list_.pop_back();
    RTreeNode* n = node(id);
    n->parent = kInvalidNodeId;
    n->level = level;
    n->supernode = false;
    return id;
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto n = std::make_unique<RTreeNode>();
  n->id = id;
  n->level = level;
  n->entries = EntryArray(dims_);
  nodes_.push_back(std::move(n));
  return id;
}

void RTree::FreeNode(NodeId id) {
  assert(live_nodes_ > 0);
  --live_nodes_;
  node(id)->entries = EntryArray(dims_);  // releases the memory
  node(id)->parent = kInvalidNodeId;
  free_list_.push_back(id);
}

int RTree::height() const { return node(root_)->level + 1; }

size_t RTree::PagesOfNode(NodeId id) const {
  const RTreeNode* n = node(id);
  if (!n->supernode) {
    return 1;
  }
  const size_t bytes = n->entries.size() * EntryBytes(dims_) + 24;
  return std::max<size_t>(
      1, (bytes + options_.page_size_bytes - 1) / options_.page_size_bytes);
}

size_t RTree::TotalPages() const {
  size_t pages = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    pages += PagesOfNode(id);
    const RTreeNode* n = node(id);
    if (!n->IsLeaf()) {
      for (size_t i = 0; i < n->entries.size(); ++i) {
        stack.push_back(n->entries.child(i));
      }
    }
  }
  return pages;
}

size_t RTree::supernode_count() const {
  size_t count = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const RTreeNode* n = node(id);
    if (n->supernode) {
      ++count;
    }
    if (!n->IsLeaf()) {
      for (size_t i = 0; i < n->entries.size(); ++i) {
        stack.push_back(n->entries.child(i));
      }
    }
  }
  return count;
}

NodeId RTree::ChooseSubtree(const RTreeNode& n, RectView rect) const {
  assert(!n.IsLeaf() && !n.entries.empty());
  // R*-style: at the level just above the leaves, minimize overlap
  // enlargement; elsewhere minimize area enlargement (ties by area).
  const bool use_overlap =
      options_.split_policy == SplitPolicy::kRStar && n.level == 1;
  size_t best = 0;
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  double best_tertiary = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n.entries.size(); ++i) {
    const RectView r = n.entries.rect(i);
    double primary;
    double secondary;
    double tertiary;
    if (use_overlap) {
      const Rect enlarged = r.ToRect().UnionWith(rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < n.entries.size(); ++j) {
        if (j == i) continue;
        overlap_delta += enlarged.OverlapArea(n.entries.rect(j)) -
                         r.OverlapArea(n.entries.rect(j));
      }
      primary = overlap_delta;
      secondary = r.Enlargement(rect);
      tertiary = r.Area();
    } else {
      primary = r.Enlargement(rect);
      secondary = r.Area();
      tertiary = 0.0;
    }
    if (primary < best_primary ||
        (primary == best_primary && secondary < best_secondary) ||
        (primary == best_primary && secondary == best_secondary &&
         tertiary < best_tertiary)) {
      best_primary = primary;
      best_secondary = secondary;
      best_tertiary = tertiary;
      best = i;
    }
  }
  return n.entries.child(best);
}

size_t RTree::ChildSlot(const RTreeNode& parent, NodeId child) {
  size_t slot = 0;
  while (slot + 1 < parent.entries.size() &&
         parent.entries.child(slot) != child) {
    ++slot;
  }
  assert(parent.entries.child(slot) == child);
  return slot;
}

void RTree::Insert(RectView rect, int64_t record_id) {
  assert(rect.dims() == dims_ && rect.IsValid());
  std::vector<bool> reinserted_levels(
      static_cast<size_t>(node(root_)->level) + 2, false);
  InsertAtLevel(rect, record_id, /*level=*/0, &reinserted_levels);
  ++size_;
}

void RTree::InsertAtLevel(RectView rect, int64_t ref, int level,
                          std::vector<bool>* reinserted_levels) {
  // Descend to the target level.
  NodeId current = root_;
  while (node(current)->level > level) {
    current = ChooseSubtree(*node(current), rect);
  }
  RTreeNode* n = node(current);
  assert(n->level == level);
  if (level > 0) {
    node(static_cast<NodeId>(ref))->parent = current;
  }
  n->entries.Push(rect, ref);
  if (n->entries.size() > capacity_) {
    HandleOverflow(current, reinserted_levels);
  } else {
    AdjustUpward(current);
  }
}

void RTree::HandleOverflow(NodeId node_id,
                           std::vector<bool>* reinserted_levels) {
  RTreeNode* n = node(node_id);
  if (n->supernode) {
    // An existing supernode simply grows.
    AdjustUpward(node_id);
    return;
  }
  const size_t level_idx = static_cast<size_t>(n->level);
  const bool can_reinsert =
      options_.forced_reinsert && node_id != root_ &&
      level_idx < reinserted_levels->size() &&
      !(*reinserted_levels)[level_idx];
  if (!can_reinsert) {
    SplitNode(node_id, reinserted_levels);
    return;
  }
  (*reinserted_levels)[level_idx] = true;

  // Evict the `reinsert_fraction` entries farthest from the node's center
  // and reinsert them (R*-tree OverflowTreatment).
  const Rect mbr = n->ComputeMbr();
  struct Scored {
    double dist = 0.0;
    size_t index = 0;
  };
  std::vector<Scored> scored(n->entries.size());
  for (size_t i = 0; i < n->entries.size(); ++i) {
    double d2 = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double delta = n->entries.rect(i).Center(d) - mbr.Center(d);
      d2 += delta * delta;
    }
    scored[i] = {d2, i};
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.dist > b.dist; });
  size_t evict = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n->entries.size()) *
                             options_.reinsert_fraction));
  evict = std::min(evict, n->entries.size() - min_fill_);

  std::vector<bool> remove(n->entries.size(), false);
  for (size_t i = 0; i < evict; ++i) {
    remove[scored[i].index] = true;
  }
  EntryArray evicted(dims_);
  evicted.Reserve(evict);
  EntryArray kept(dims_);
  kept.Reserve(n->entries.size() - evict);
  for (size_t i = 0; i < n->entries.size(); ++i) {
    (remove[i] ? evicted : kept).Push(n->entries.rect(i), n->entries.ref(i));
  }
  n->entries = std::move(kept);
  const int level = n->level;
  AdjustUpward(node_id);
  for (size_t i = 0; i < evicted.size(); ++i) {
    InsertAtLevel(evicted.rect(i), evicted.ref(i), level, reinserted_levels);
  }
}

void RTree::SplitNode(NodeId node_id, std::vector<bool>* reinserted_levels) {
  RTreeNode* n = node(node_id);
  const int level = n->level;
  auto [group_a, group_b] =
      SplitEntries(n->entries, min_fill_, options_.split_policy,
                   options_.split_distribution_factor);
  if (options_.allow_supernodes && !n->IsLeaf()) {
    // X-tree overflow treatment: if the best split yields directory MBRs
    // overlapping more than the threshold fraction of their union, keep
    // the node as a multi-page supernode instead.
    const Rect mbr_a = group_a.Mbr();
    const Rect mbr_b = group_b.Mbr();
    const double overlap = mbr_a.OverlapArea(mbr_b);
    const double union_area = mbr_a.view().UnionArea(mbr_b);
    if (union_area > 0.0 &&
        overlap / union_area > options_.supernode_overlap_threshold) {
      n->supernode = true;
      AdjustUpward(node_id);
      return;
    }
  }
  n->entries = std::move(group_a);

  const NodeId sibling_id = AllocateNode(level);
  // AllocateNode may grow the arena and invalidate `n`.
  n = node(node_id);
  RTreeNode* sibling = node(sibling_id);
  sibling->entries = std::move(group_b);
  if (level > 0) {
    for (size_t i = 0; i < sibling->entries.size(); ++i) {
      node(sibling->entries.child(i))->parent = sibling_id;
    }
    for (size_t i = 0; i < n->entries.size(); ++i) {
      node(n->entries.child(i))->parent = node_id;
    }
  }

  if (node_id == root_) {
    const NodeId new_root = AllocateNode(level + 1);
    n = node(node_id);
    sibling = node(sibling_id);
    RTreeNode* root_node = node(new_root);
    root_node->entries.Push(n->ComputeMbr(), node_id);
    root_node->entries.Push(sibling->ComputeMbr(), sibling_id);
    n->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    reinserted_levels->resize(static_cast<size_t>(level) + 2, false);
    return;
  }

  const NodeId parent_id = n->parent;
  sibling->parent = parent_id;
  RTreeNode* parent = node(parent_id);
  // Refresh this node's MBR in the parent and add the sibling.
  parent->entries.SetRect(ChildSlot(*parent, node_id), n->ComputeMbr());
  parent->entries.Push(sibling->ComputeMbr(), sibling_id);
  if (parent->entries.size() > capacity_) {
    HandleOverflow(parent_id, reinserted_levels);
  } else {
    AdjustUpward(parent_id);
  }
}

void RTree::AdjustUpward(NodeId node_id) {
  NodeId current = node_id;
  while (current != root_) {
    const RTreeNode* n = node(current);
    const NodeId parent_id = n->parent;
    RTreeNode* parent = node(parent_id);
    parent->entries.SetRect(ChildSlot(*parent, current), n->ComputeMbr());
    current = parent_id;
  }
}

bool RTree::Delete(RectView rect, int64_t record_id) {
  const NodeId leaf_id = FindLeaf(rect, record_id);
  if (leaf_id == kInvalidNodeId) {
    return false;
  }
  RTreeNode* leaf = node(leaf_id);
  for (size_t i = 0; i < leaf->entries.size(); ++i) {
    if (leaf->entries.ref(i) == record_id &&
        leaf->entries.rect(i) == rect) {
      leaf->entries.Erase(i);
      break;
    }
  }
  --size_;
  CondenseTree(leaf_id);
  return true;
}

NodeId RTree::FindLeaf(RectView rect, int64_t record_id) const {
  // Depth-first in entry order: children are pushed last-to-first.
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const EntryArray& entries = node(id)->entries;
    if (node(id)->IsLeaf()) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (entries.ref(i) == record_id && entries.rect(i) == rect) {
          return id;
        }
      }
      continue;
    }
    for (size_t i = entries.size(); i-- > 0;) {
      if (entries.rect(i).Contains(rect)) {
        stack.push_back(entries.child(i));
      }
    }
  }
  return kInvalidNodeId;
}

void RTree::CondenseTree(NodeId leaf_id) {
  // Walk up removing underfull nodes; their entries are reinserted at
  // their original level afterwards (Guttman's CondenseTree).
  EntryArray orphans(dims_);
  std::vector<int> orphan_levels;
  NodeId current = leaf_id;
  while (current != root_) {
    RTreeNode* n = node(current);
    const NodeId parent_id = n->parent;
    RTreeNode* parent = node(parent_id);
    if (n->entries.size() < min_fill_) {
      for (size_t i = 0; i < n->entries.size(); ++i) {
        orphans.Push(n->entries.rect(i), n->entries.ref(i));
        orphan_levels.push_back(n->level);
      }
      parent->entries.Erase(ChildSlot(*parent, current));
      FreeNode(current);
    } else {
      if (n->supernode && n->entries.size() <= capacity_) {
        n->supernode = false;
      }
      parent->entries.SetRect(ChildSlot(*parent, current), n->ComputeMbr());
    }
    current = parent_id;
  }

  // Shrink the root: an internal root with one child is replaced by it.
  while (!node(root_)->IsLeaf() && node(root_)->entries.size() == 1) {
    const NodeId old_root = root_;
    root_ = node(root_)->entries.child(0);
    node(root_)->parent = kInvalidNodeId;
    FreeNode(old_root);
  }

  for (size_t i = 0; i < orphans.size(); ++i) {
    std::vector<bool> reinserted_levels(
        static_cast<size_t>(node(root_)->level) + 2, true);
    InsertAtLevel(orphans.rect(i), orphans.ref(i), orphan_levels[i],
                  &reinserted_levels);
  }
}

std::vector<int64_t> RTree::RangeSearch(const Rect& query,
                                        RTreeQueryStats* stats,
                                        Trace* trace) const {
  assert(query.dims == dims_);
  std::vector<int64_t> results;
  std::vector<NodeId> stack;
  stack.push_back(root_);
  uint64_t visited_pages = 0;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    visited_pages += PagesOfNode(id);
    if (stats != nullptr) {
      stats->nodes_accessed += PagesOfNode(id);
      if (stats->accessed_nodes != nullptr) {
        stats->accessed_nodes->push_back(id);
      }
    }
    const RTreeNode* n = node(id);
    const EntryArray& entries = n->entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!query.Intersects(entries.rect(i))) {
        continue;
      }
      if (n->IsLeaf()) {
        results.push_back(entries.ref(i));
      } else {
        stack.push_back(entries.child(i));
      }
    }
  }
  TraceCounter(trace, "rtree_nodes", static_cast<double>(visited_pages));
  return results;
}

std::vector<RTree::Neighbor> RTree::NearestNeighbors(
    const Point& p, size_t k, RTreeQueryStats* stats) const {
  assert(p.dims == dims_);
  std::vector<Neighbor> results;
  if (k == 0) {
    return results;
  }
  struct QueueItem {
    double dist2 = 0.0;
    NodeId node_id = kInvalidNodeId;  // kInvalidNodeId => record item
    int64_t record_id = -1;
  };
  const auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.dist2 > b.dist2;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> queue(
      cmp);
  queue.push({0.0, root_, -1});
  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.node_id == kInvalidNodeId) {
      results.push_back({item.record_id, std::sqrt(item.dist2)});
      if (results.size() == k) {
        break;
      }
      continue;
    }
    if (stats != nullptr) {
      stats->nodes_accessed += PagesOfNode(item.node_id);
    }
    const RTreeNode* n = node(item.node_id);
    for (size_t i = 0; i < n->entries.size(); ++i) {
      const double d2 = n->entries.rect(i).MinDistSquared(p);
      if (n->IsLeaf()) {
        queue.push({d2, kInvalidNodeId, n->entries.ref(i)});
      } else {
        queue.push({d2, n->entries.child(i), -1});
      }
    }
  }
  return results;
}

RTree::LinfNearestIterator::LinfNearestIterator(const RTree* tree,
                                                const Point& p,
                                                RTreeQueryStats* stats)
    : tree_(tree), point_(p), stats_(stats) {
  queue_.push({0.0, tree_->root_, -1});
}

bool RTree::LinfNearestIterator::Next(Neighbor* out) {
  while (!queue_.empty()) {
    const QueueItem item = queue_.top();
    queue_.pop();
    if (item.node_id == kInvalidNodeId) {
      out->record_id = item.record_id;
      out->distance = item.dist;
      return true;
    }
    if (stats_ != nullptr) {
      stats_->nodes_accessed += tree_->PagesOfNode(item.node_id);
    }
    const RTreeNode* n = tree_->node(item.node_id);
    for (size_t i = 0; i < n->entries.size(); ++i) {
      const double d = n->entries.rect(i).MinDistLinf(point_);
      if (n->IsLeaf()) {
        queue_.push({d, kInvalidNodeId, n->entries.ref(i)});
      } else {
        queue_.push({d, n->entries.child(i), -1});
      }
    }
  }
  return false;
}

Status RTree::CheckNode(NodeId node_id, int expected_level,
                        bool is_root) const {
  const RTreeNode* n = node(node_id);
  std::ostringstream err;
  if (n->level != expected_level) {
    err << "node " << node_id << " at level " << n->level << ", expected "
        << expected_level;
    return Status::Internal(err.str());
  }
  if (!n->supernode && n->entries.size() > capacity_) {
    err << "node " << node_id << " overfull: " << n->entries.size();
    return Status::Internal(err.str());
  }
  if (n->supernode && (n->IsLeaf() || !options_.allow_supernodes)) {
    err << "node " << node_id << " is an unexpected supernode";
    return Status::Internal(err.str());
  }
  if (!is_root && n->entries.size() < min_fill_) {
    err << "node " << node_id << " underfull: " << n->entries.size();
    return Status::Internal(err.str());
  }
  if (is_root && !n->IsLeaf() && n->entries.size() < 2) {
    return Status::Internal("internal root with fewer than 2 children");
  }
  if (n->IsLeaf()) {
    return Status::Ok();
  }
  for (size_t i = 0; i < n->entries.size(); ++i) {
    const NodeId child_id = n->entries.child(i);
    const RTreeNode* child = node(child_id);
    if (child->parent != node_id) {
      err << "child " << child_id << " has stale parent pointer";
      return Status::Internal(err.str());
    }
    if (child->entries.empty()) {
      err << "child " << child_id << " is empty";
      return Status::Internal(err.str());
    }
    const Rect child_mbr = child->ComputeMbr();
    if (!(n->entries.rect(i) == child_mbr.view())) {
      err << "entry MBR for child " << child_id << " is "
          << n->entries.rect(i).ToString() << " but child MBR is "
          << child_mbr.ToString();
      return Status::Internal(err.str());
    }
  }
  return Status::Ok();
}

Status RTree::CheckInvariants() const {
  struct Pending {
    NodeId id;
    int level;
  };
  std::vector<Pending> pending = {{root_, node(root_)->level}};
  size_t nodes_seen = 0;
  size_t records_seen = 0;
  std::ostringstream err;
  while (!pending.empty()) {
    const Pending p = pending.back();
    pending.pop_back();
    if (++nodes_seen > live_nodes_) {
      return Status::Internal("a node is reachable twice");
    }
    WARPINDEX_RETURN_IF_ERROR(CheckNode(p.id, p.level, p.id == root_));
    const RTreeNode* n = node(p.id);
    if (n->IsLeaf()) {
      records_seen += n->entries.size();
      continue;
    }
    for (size_t i = 0; i < n->entries.size(); ++i) {
      pending.push_back({n->entries.child(i), p.level - 1});
    }
  }
  if (nodes_seen != live_nodes_) {
    err << "only " << nodes_seen << " of " << live_nodes_
        << " live nodes are reachable from the root";
    return Status::Internal(err.str());
  }
  if (records_seen != size_) {
    err << "record count mismatch: tree holds " << records_seen
        << ", size() reports " << size_;
    return Status::Internal(err.str());
  }
  return Status::Ok();
}

RTreeHealth RTree::HealthStats() const {
  RTreeHealth health;
  health.height = height();
  health.records = size_;
  health.node_capacity = capacity_;
  health.pages = TotalPages();
  health.bytes = TotalBytes();
  health.levels.resize(static_cast<size_t>(health.height));
  for (size_t lvl = 0; lvl < health.levels.size(); ++lvl) {
    health.levels[lvl].level = static_cast<int>(lvl);
    health.levels[lvl].min_occupancy = 1e300;  // replaced by first node
  }

  double overlap_sum = 0.0;
  double dead_space_sum = 0.0;
  size_t directory_nodes_with_volume = 0;

  // Iterative pre-order walk from the root (free-listed nodes are
  // unreachable, so no liveness bookkeeping is needed).
  std::vector<NodeId> pending = {root_};
  while (!pending.empty()) {
    const NodeId id = pending.back();
    pending.pop_back();
    const RTreeNode* n = node(id);
    ++health.nodes;
    if (n->supernode) {
      ++health.supernodes;
    }
    if (n->IsLeaf()) {
      ++health.leaves;
    }

    RTreeHealth::LevelStats& level =
        health.levels[static_cast<size_t>(n->level)];
    ++level.nodes;
    level.entries += n->entries.size();
    health.resident_bytes += n->entries.ResidentBytes();
    const double occupancy =
        static_cast<double>(n->entries.size()) /
        static_cast<double>(capacity_ * PagesOfNode(id));
    level.min_occupancy = std::min(level.min_occupancy, occupancy);

    if (!n->IsLeaf()) {
      for (size_t i = 0; i < n->entries.size(); ++i) {
        pending.push_back(n->entries.child(i));
      }
      // Directory quality: how much of this node's claimed volume its
      // children re-claim from each other (overlap) or never cover at
      // all (dead space). Leaf entries are point rects with zero
      // volume, so these ratios only exist above the leaf level — and a
      // directory node whose own MBR is degenerate contributes nothing.
      const double node_volume = n->entries.empty()
                                     ? 0.0
                                     : n->ComputeMbr().Area();
      if (node_volume > 0.0) {
        double pairwise_overlap = 0.0;
        double child_volume = 0.0;
        for (size_t i = 0; i < n->entries.size(); ++i) {
          child_volume += n->entries.rect(i).Area();
          for (size_t j = i + 1; j < n->entries.size(); ++j) {
            pairwise_overlap +=
                n->entries.rect(i).OverlapArea(n->entries.rect(j));
          }
        }
        overlap_sum += pairwise_overlap / node_volume;
        dead_space_sum +=
            std::max(0.0, 1.0 - child_volume / node_volume);
        ++directory_nodes_with_volume;
      }
    }
  }

  for (RTreeHealth::LevelStats& level : health.levels) {
    if (level.nodes > 0) {
      level.avg_occupancy =
          static_cast<double>(level.entries) /
          static_cast<double>(level.nodes * capacity_);
    } else {
      level.min_occupancy = 0.0;
    }
  }
  if (!health.levels.empty()) {
    health.leaf_occupancy = health.levels.front().avg_occupancy;
  }
  if (directory_nodes_with_volume > 0) {
    health.overlap_ratio =
        overlap_sum / static_cast<double>(directory_nodes_with_volume);
    health.dead_space_ratio =
        dead_space_sum / static_cast<double>(directory_nodes_with_volume);
  }
  return health;
}

}  // namespace warpindex
