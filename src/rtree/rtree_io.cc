#include "rtree/rtree_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

namespace warpindex {
namespace {

constexpr char kMagic[4] = {'W', 'I', 'R', 'T'};
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadBytes(std::FILE* f, void* data, size_t n) {
  return std::fread(data, 1, n, f) == n;
}

}  // namespace

Status SaveRTreeToFile(const RTree& tree, const std::string& path) {
  FileHandle file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  std::FILE* f = file.get();

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

  const uint32_t dims = static_cast<uint32_t>(tree.dims_);
  const uint64_t page_size = tree.options_.page_size_bytes;
  const uint8_t split = static_cast<uint8_t>(tree.options_.split_policy);
  const double min_fill = tree.options_.min_fill_fraction;
  const uint8_t reinsert = tree.options_.forced_reinsert ? 1 : 0;
  const double reinsert_fraction = tree.options_.reinsert_fraction;
  const uint8_t supernodes = tree.options_.allow_supernodes ? 1 : 0;
  const double supernode_threshold =
      tree.options_.supernode_overlap_threshold;
  const uint64_t size = tree.size_;
  const uint32_t node_count = static_cast<uint32_t>(order.size());
  if (!WriteBytes(f, kMagic, sizeof(kMagic)) ||
      !WriteBytes(f, &kVersion, sizeof(kVersion)) ||
      !WriteBytes(f, &dims, sizeof(dims)) ||
      !WriteBytes(f, &page_size, sizeof(page_size)) ||
      !WriteBytes(f, &split, sizeof(split)) ||
      !WriteBytes(f, &min_fill, sizeof(min_fill)) ||
      !WriteBytes(f, &reinsert, sizeof(reinsert)) ||
      !WriteBytes(f, &reinsert_fraction, sizeof(reinsert_fraction)) ||
      !WriteBytes(f, &supernodes, sizeof(supernodes)) ||
      !WriteBytes(f, &supernode_threshold, sizeof(supernode_threshold)) ||
      !WriteBytes(f, &size, sizeof(size)) ||
      !WriteBytes(f, &node_count, sizeof(node_count))) {
    return Status::IoError("short write: " + path);
  }

  for (const NodeId id : order) {
    const RTreeNode* n = tree.node(id);
    const int32_t level = n->level;
    const uint8_t supernode = n->supernode ? 1 : 0;
    const uint32_t entry_count = static_cast<uint32_t>(n->entries.size());
    if (!WriteBytes(f, &level, sizeof(level)) ||
        !WriteBytes(f, &supernode, sizeof(supernode)) ||
        !WriteBytes(f, &entry_count, sizeof(entry_count))) {
      return Status::IoError("short write: " + path);
    }
    // An entry's in-memory bounds are already in page order.
    const size_t bounds_bytes = 2 * static_cast<size_t>(tree.dims_) *
                                sizeof(double);
    for (size_t i = 0; i < n->entries.size(); ++i) {
      const int64_t ref =
          n->IsLeaf() ? n->entries.ref(i)
                      : static_cast<int64_t>(
                            remap[static_cast<size_t>(n->entries.child(i))]);
      if (!WriteBytes(f, n->entries.rect(i).bounds(), bounds_bytes) ||
          !WriteBytes(f, &ref, sizeof(ref))) {
        return Status::IoError("short write: " + path);
      }
    }
  }
  return Status::Ok();
}

Status LoadRTreeFromFile(const std::string& path, RTree* out) {
  FileHandle file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::FILE* f = file.get();
  // Every count read below is checked against the bytes actually left in
  // the file before anything is allocated for it.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const long file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const auto bytes_left = [f, file_size] {
    const long pos = std::ftell(f);
    return pos < 0 || pos > file_size ? uint64_t{0}
                                      : static_cast<uint64_t>(file_size - pos);
  };
  // End of file before the layout says it ends: a corrupt file, unless
  // the read itself failed.
  const auto short_read = [f, &path] {
    return std::ferror(f) != 0
               ? Status::IoError("read error: " + path)
               : Status::InvalidArgument("truncated index file: " + path);
  };

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
  if (!ReadBytes(f, magic, sizeof(magic))) {
    return short_read();
  }
  if (!std::equal(magic, magic + 4, kMagic)) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!ReadBytes(f, &version, sizeof(version)) ||
      !ReadBytes(f, &dims, sizeof(dims)) ||
      !ReadBytes(f, &page_size, sizeof(page_size)) ||
      !ReadBytes(f, &split, sizeof(split)) ||
      !ReadBytes(f, &min_fill, sizeof(min_fill)) ||
      !ReadBytes(f, &reinsert, sizeof(reinsert)) ||
      !ReadBytes(f, &reinsert_fraction, sizeof(reinsert_fraction)) ||
      !ReadBytes(f, &supernodes, sizeof(supernodes)) ||
      !ReadBytes(f, &supernode_threshold, sizeof(supernode_threshold)) ||
      !ReadBytes(f, &size, sizeof(size)) ||
      !ReadBytes(f, &node_count, sizeof(node_count))) {
    return short_read();
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
      node_count > bytes_left() / kNodeHeaderBytes) {
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
    if (!ReadBytes(f, &level, sizeof(level)) ||
        !ReadBytes(f, &supernode, sizeof(supernode)) ||
        !ReadBytes(f, &entry_count, sizeof(entry_count))) {
      return short_read();
    }
    // A tree is never taller than its node count.
    if (level < 0 || static_cast<uint32_t>(level) >= node_count ||
        supernode > 1 ||
        (supernode == 0 && entry_count > tree.capacity())) {
      return Status::InvalidArgument("corrupt node in " + path);
    }
    if (entry_count > bytes_left() / entry_bytes) {
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
      if (!ReadBytes(f, bounds.data(), bounds_bytes) ||
          !ReadBytes(f, &ref, sizeof(ref))) {
        return short_read();
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
