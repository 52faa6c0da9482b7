#include "rtree/rtree_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/binary_file.h"

namespace warpindex {
namespace {

constexpr char kMagic[4] = {'W', 'I', 'R', 'T'};
constexpr uint32_t kVersion = 1;

}  // namespace

Status SaveRTreeToFile(const RTree& tree, const std::string& path) {
  BinaryWriter out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }

  // Dense preorder remap (skips free-list holes).
  std::vector<NodeId> order;
  std::vector<int32_t> remap(tree.nodes_.size(), -1);
  order.reserve(tree.live_nodes_);
  std::vector<NodeId> stack = {tree.root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    remap[static_cast<size_t>(id)] = static_cast<int32_t>(order.size());
    order.push_back(id);
    const RTreeNode* n = tree.node(id);
    if (!n->IsLeaf()) {
      for (size_t i = 0; i < n->entries.size(); ++i) {
        stack.push_back(n->entries.child(i));
      }
    }
  }

  const RTreeOptions& options = tree.options_;
  out.Write(kMagic, sizeof(kMagic));
  out.Write(kVersion);
  out.Write(static_cast<uint32_t>(tree.dims_));
  out.Write(uint64_t{options.page_size_bytes});
  out.Write(static_cast<uint8_t>(options.split_policy));
  out.Write(options.min_fill_fraction);
  out.Write(static_cast<uint8_t>(options.forced_reinsert ? 1 : 0));
  out.Write(options.reinsert_fraction);
  out.Write(static_cast<uint8_t>(options.allow_supernodes ? 1 : 0));
  out.Write(options.supernode_overlap_threshold);
  out.Write(uint64_t{tree.size_});
  out.Write(static_cast<uint32_t>(order.size()));

  // An entry's in-memory bounds are already in page order.
  const size_t bounds_bytes =
      2 * static_cast<size_t>(tree.dims_) * sizeof(double);
  for (const NodeId id : order) {
    const RTreeNode* n = tree.node(id);
    out.Write(int32_t{n->level});
    out.Write(static_cast<uint8_t>(n->supernode ? 1 : 0));
    out.Write(static_cast<uint32_t>(n->entries.size()));
    for (size_t i = 0; i < n->entries.size(); ++i) {
      out.Write(n->entries.rect(i).bounds(), bounds_bytes);
      out.Write(n->IsLeaf() ? n->entries.ref(i)
                            : static_cast<int64_t>(remap[static_cast<size_t>(
                                  n->entries.child(i))]));
    }
  }
  return out.Finish() ? Status::Ok() : Status::IoError("short write: " + path);
}

Status LoadRTreeFromFile(const std::string& path, RTree* out) {
  BinaryReader in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  // Every count read below is checked against the bytes actually left in
  // the file before anything is allocated for it.

  char magic[4];
  uint32_t version = 0;
  uint32_t dims = 0;
  uint64_t page_size = 0;
  uint8_t split = 0;
  double min_fill = 0.0;
  uint8_t reinsert = 0;
  double reinsert_fraction = 0.0;
  uint8_t supernodes = 0;
  double supernode_threshold = 0.0;
  uint64_t size = 0;
  uint32_t node_count = 0;
  if (!in.Read(magic, sizeof(magic))) {
    return in.ShortRead("index file");
  }
  if (!std::equal(magic, magic + 4, kMagic)) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!in.Read(&version) || !in.Read(&dims) || !in.Read(&page_size) ||
      !in.Read(&split) || !in.Read(&min_fill) || !in.Read(&reinsert) ||
      !in.Read(&reinsert_fraction) || !in.Read(&supernodes) ||
      !in.Read(&supernode_threshold) || !in.Read(&size) ||
      !in.Read(&node_count)) {
    return in.ShortRead("index file");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported index version in " + path);
  }
  if (dims < 1 || dims > kMaxRTreeDims || split > 2 || node_count == 0 ||
      !(min_fill > 0.0 && min_fill <= 0.5) ||
      !(reinsert_fraction >= 0.0 && std::isfinite(reinsert_fraction)) ||
      !std::isfinite(supernode_threshold)) {
    return Status::InvalidArgument("corrupt index header in " + path);
  }
  // NodeId is int32, and every node takes at least its header bytes.
  constexpr uint64_t kNodeHeaderBytes =
      sizeof(int32_t) + sizeof(uint8_t) + sizeof(uint32_t);
  if (node_count > static_cast<uint32_t>(std::numeric_limits<NodeId>::max()) ||
      !in.Holds(node_count, kNodeHeaderBytes)) {
    return Status::InvalidArgument("node count exceeds the file in " + path);
  }

  RTreeOptions options;
  options.page_size_bytes = static_cast<size_t>(page_size);
  options.split_policy = static_cast<SplitPolicy>(split);
  options.min_fill_fraction = min_fill;
  options.forced_reinsert = reinsert != 0;
  options.reinsert_fraction = reinsert_fraction;
  options.allow_supernodes = supernodes != 0;
  options.supernode_overlap_threshold = supernode_threshold;

  RTree tree(static_cast<int>(dims), options);
  const uint64_t entry_bytes = EntryBytes(static_cast<int>(dims));
  std::array<double, 2 * kMaxRTreeDims> bounds;
  const size_t bounds_bytes = 2 * static_cast<size_t>(dims) * sizeof(double);
  for (uint32_t i = 0; i < node_count; ++i) {
    int32_t level = 0;
    uint8_t supernode = 0;
    uint32_t entry_count = 0;
    if (!in.Read(&level) || !in.Read(&supernode) || !in.Read(&entry_count)) {
      return in.ShortRead("index file");
    }
    // A tree is never taller than its node count.
    if (level < 0 || static_cast<uint32_t>(level) >= node_count ||
        supernode > 1 ||
        (supernode == 0 && entry_count > tree.capacity())) {
      return Status::InvalidArgument("corrupt node in " + path);
    }
    if (!in.Holds(entry_count, entry_bytes)) {
      return Status::InvalidArgument("entry count exceeds the file in " +
                                     path);
    }
    // The constructor made node 0 (the root); the rest are made as read.
    const NodeId id = i == 0 ? 0 : tree.AllocateNode(level);
    RTreeNode* n = tree.node(id);
    n->level = level;
    n->supernode = supernode != 0;
    n->entries.Reserve(entry_count);
    for (uint32_t ei = 0; ei < entry_count; ++ei) {
      int64_t ref = 0;
      if (!in.Read(bounds.data(), bounds_bytes) || !in.Read(&ref)) {
        return in.ShortRead("index file");
      }
      // Preorder: every child follows its parent.
      if (level > 0 && (ref <= static_cast<int64_t>(i) ||
                        ref >= static_cast<int64_t>(node_count))) {
        return Status::InvalidArgument("corrupt child ref in " + path);
      }
      n->entries.Push(RectView(bounds.data(), static_cast<int>(dims)), ref);
    }
  }
  // Wire parent pointers.
  for (uint32_t i = 0; i < node_count; ++i) {
    const RTreeNode* n = tree.node(static_cast<NodeId>(i));
    if (n->IsLeaf()) {
      continue;
    }
    for (size_t e = 0; e < n->entries.size(); ++e) {
      tree.node(n->entries.child(e))->parent = static_cast<NodeId>(i);
    }
  }
  tree.root_ = 0;
  tree.size_ = static_cast<size_t>(size);

  if (const Status valid = tree.CheckInvariants(); !valid.ok()) {
    return Status::InvalidArgument("corrupt index in " + path + ": " +
                                   valid.message());
  }
  *out = std::move(tree);
  return Status::Ok();
}

}  // namespace warpindex
