#include "rtree/bulk_load.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace warpindex {
namespace {

using Range = std::pair<size_t, size_t>;

// Cuts [0, n) into `parts` contiguous ranges whose sizes differ by at most
// one, so no tiling step ever produces a runt partition (which would turn
// into an underfull node).
std::vector<Range> BalancedRanges(size_t n, size_t parts) {
  std::vector<Range> ranges;
  ranges.reserve(parts);
  const size_t base = n / parts;
  const size_t extra = n % parts;
  size_t begin = 0;
  for (size_t i = 0; i < parts; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

// Recursively tiles entries[order[begin, end)] into groups of at most
// `cap`, sorting the sub-range of `order` in place by center coordinate one
// dimension at a time (STR). Appends each group's range of `order`.
void StrPack(const EntryArray& entries, std::vector<uint32_t>* order,
             size_t begin, size_t end, int dim, size_t cap,
             std::vector<Range>* groups) {
  const size_t n = end - begin;
  if (n <= cap) {
    groups->emplace_back(begin, end);
    return;
  }
  std::sort(order->begin() + static_cast<ptrdiff_t>(begin),
            order->begin() + static_cast<ptrdiff_t>(end),
            [&entries, dim](uint32_t a, uint32_t b) {
              return entries.rect(a).Center(dim) <
                     entries.rect(b).Center(dim);
            });
  const int dims = entries.dims();
  if (dim == dims - 1) {
    const size_t chunks = (n + cap - 1) / cap;
    for (const auto& [b, e] : BalancedRanges(n, chunks)) {
      groups->emplace_back(begin + b, begin + e);
    }
    return;
  }
  // Number of pages this subtree needs, then slabs along this dimension =
  // P^(1/remaining_dims) (rounded up).
  const double pages =
      std::ceil(static_cast<double>(n) / static_cast<double>(cap));
  const int remaining = dims - dim;
  const size_t slabs = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::pow(pages, 1.0 / static_cast<double>(remaining)))));
  for (const auto& [b, e] : BalancedRanges(n, slabs)) {
    if (b == e) {
      continue;
    }
    StrPack(entries, order, begin + b, begin + e, dim + 1, cap, groups);
  }
}

}  // namespace

RTree BulkLoadStr(int dims, const RTreeOptions& options,
                  EntryArray leaf_entries) {
  RTree tree(dims, options);
  if (leaf_entries.empty()) {
    return tree;
  }
  assert(leaf_entries.dims() == dims);
  assert(leaf_entries.size() <= std::numeric_limits<uint32_t>::max());
  const size_t record_count = leaf_entries.size();

  // Packing capacity: bulk_fill_fraction < 1 leaves insert headroom in
  // every node (see RTreeOptions); clamped so nodes keep >= 2 entries.
  const double fill =
      options.bulk_fill_fraction > 0.0 && options.bulk_fill_fraction <= 1.0
          ? options.bulk_fill_fraction
          : 1.0;
  const size_t pack_capacity = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(tree.capacity()) * fill));

  // Pack level by level until one group remains; that group becomes the
  // root's entries.
  EntryArray current = std::move(leaf_entries);
  std::vector<uint32_t> order;
  std::vector<Range> groups;
  int level = 0;
  // Release the default empty root; we rebuild from scratch.
  tree.FreeNode(tree.root_);
  while (true) {
    order.resize(current.size());
    std::iota(order.begin(), order.end(), uint32_t{0});
    groups.clear();
    StrPack(current, &order, 0, order.size(), /*dim=*/0, pack_capacity,
            &groups);
    EntryArray next_level(dims);
    next_level.Reserve(groups.size());
    for (const auto& [begin, end] : groups) {
      const NodeId id = tree.AllocateNode(level);
      RTreeNode* n = tree.node(id);
      n->entries.Reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        n->entries.Push(current.rect(order[k]), current.ref(order[k]));
      }
      if (level > 0) {
        for (size_t i = 0; i < n->entries.size(); ++i) {
          tree.node(n->entries.child(i))->parent = id;
        }
      }
      if (groups.size() == 1) {
        tree.root_ = id;
      } else {
        next_level.Push(n->ComputeMbr(), id);
      }
    }
    if (groups.size() == 1) {
      break;
    }
    current = std::move(next_level);
    ++level;
  }
  tree.size_ = record_count;
  return tree;
}

}  // namespace warpindex
