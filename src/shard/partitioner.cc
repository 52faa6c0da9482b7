#include "shard/partitioner.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

namespace warpindex {

const char* PartitionerKindName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kHash:
      return "hash";
    case PartitionerKind::kRange:
      return "range";
  }
  return "unknown";
}

bool ParsePartitionerKind(const std::string& name, PartitionerKind* kind) {
  if (name == "hash") {
    *kind = PartitionerKind::kHash;
    return true;
  }
  if (name == "range") {
    *kind = PartitionerKind::kRange;
    return true;
  }
  return false;
}

uint64_t MixSequenceId(uint64_t id) {
  uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

ShardAssignment AssignByHash(size_t n, size_t num_shards) {
  ShardAssignment assignment;
  assignment.num_shards = num_shards;
  assignment.shard_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    assignment.shard_of[i] =
        static_cast<uint32_t>(MixSequenceId(i) % num_shards);
  }
  return assignment;
}

ShardAssignment AssignByFeatureRange(const Dataset& dataset,
                                     size_t num_shards) {
  const size_t n = dataset.size();
  std::vector<std::array<double, kFeatureDims>> features(n);
  for (size_t i = 0; i < n; ++i) {
    features[i] = ExtractFeature(dataset[i]).AsPoint();
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (features[a] != features[b]) {
      return features[a] < features[b];
    }
    return a < b;  // ties by id keep the sort (and the cuts) total
  });

  ShardAssignment assignment;
  assignment.num_shards = num_shards;
  assignment.shard_of.resize(n);
  // K near-equal contiguous runs of the sorted order; the first n % K
  // runs take one extra sequence.
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  size_t next = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t count = base + (shard < extra ? 1 : 0);
    for (size_t j = 0; j < count; ++j) {
      assignment.shard_of[order[next++]] = static_cast<uint32_t>(shard);
    }
  }
  assert(next == n);
  return assignment;
}

}  // namespace

ShardAssignment AssignShards(const Dataset& dataset, PartitionerKind kind,
                             size_t num_shards) {
  assert(num_shards >= 1);
  switch (kind) {
    case PartitionerKind::kHash:
      return AssignByHash(dataset.size(), num_shards);
    case PartitionerKind::kRange:
      return AssignByFeatureRange(dataset, num_shards);
  }
  return AssignByHash(dataset.size(), num_shards);
}

void ShardFeatureBounds::Cover(const FeatureVector& f) {
  const std::array<double, kFeatureDims> p = f.AsPoint();
  const Rect point = Rect::FromPoint(Point::FromArray(p.data(), kFeatureDims));
  if (!valid) {
    mbr = point;
    valid = true;
    return;
  }
  mbr.Expand(point);
}

std::vector<ShardFeatureBounds> ComputeShardBounds(
    const Dataset& dataset, const ShardAssignment& assignment) {
  std::vector<ShardFeatureBounds> bounds(assignment.num_shards);
  for (size_t i = 0; i < dataset.size(); ++i) {
    bounds[assignment.shard_of[i]].Cover(ExtractFeature(dataset[i]));
  }
  return bounds;
}

}  // namespace warpindex
