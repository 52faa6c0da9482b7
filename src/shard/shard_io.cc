#include "shard/shard_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/binary_file.h"

namespace warpindex {
namespace {

constexpr char kMagic[4] = {'W', 'I', 'S', 'M'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;

}  // namespace

std::string ShardSubdir(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", index);
  return buf;
}

Status SaveShardManifest(const std::string& path,
                         const ShardManifest& manifest) {
  BinaryWriter out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot write shard manifest " + path);
  }
  const std::vector<uint32_t>& shard_of = manifest.assignment.shard_of;
  out.Write(kMagic, sizeof(kMagic));
  out.Write(kVersionV2);
  out.Write(static_cast<uint32_t>(manifest.assignment.num_shards));
  out.Write(static_cast<uint32_t>(manifest.partitioner));
  out.Write(uint64_t{manifest.page_size_bytes});
  out.Write(uint64_t{shard_of.size()});
  out.Write(shard_of.data(), shard_of.size() * sizeof(uint32_t));
  // v2 trailing block: the range partitioner's routing cut points.
  out.Write(static_cast<uint32_t>(manifest.range_cuts.empty() ? 0 : 1));
  for (const auto& cut : manifest.range_cuts) {
    out.Write(cut.data(), cut.size() * sizeof(double));
  }
  const bool ok = out.Finish() && (manifest.range_cuts.empty() ||
                                   manifest.range_cuts.size() ==
                                       manifest.assignment.num_shards);
  return ok ? Status::Ok() : Status::IoError("short manifest write: " + path);
}

Status LoadShardManifest(const std::string& path, ShardManifest* out) {
  BinaryReader in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot read shard manifest " + path);
  }
  // The counts below are checked against the bytes left in the file
  // before anything is allocated for them.
  char magic[4];
  uint32_t version = 0;
  uint32_t num_shards = 0;
  uint32_t partitioner = 0;
  uint64_t page_size = 0;
  uint64_t count = 0;
  bool ok = in.Read(magic, sizeof(magic)) &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  ok = ok && in.Read(&version) &&
       (version == kVersionV1 || version == kVersionV2);
  ok = ok && in.Read(&num_shards) && num_shards >= 1;
  ok = ok && in.Read(&partitioner) &&
       partitioner <= static_cast<uint32_t>(PartitionerKind::kRange);
  ok = ok && in.Read(&page_size);
  ok = ok && in.Read(&count) && in.Holds(count, sizeof(uint32_t));
  out->assignment.shard_of.resize(ok ? count : 0);
  ok = ok && in.Read(out->assignment.shard_of.data(),
                     count * sizeof(uint32_t));
  out->range_cuts.clear();
  if (ok && version >= kVersionV2) {
    uint32_t has_cuts = 0;
    ok = in.Read(&has_cuts) && has_cuts <= 1;
    if (ok && has_cuts != 0) {
      ok = in.Holds(num_shards, kFeatureDims * sizeof(double));
      out->range_cuts.resize(ok ? num_shards : 0);
      for (auto& cut : out->range_cuts) {
        ok = ok && in.Read(cut.data(), cut.size() * sizeof(double)) &&
             std::all_of(cut.begin(), cut.end(),
                         [](double v) { return std::isfinite(v); });
      }
    }
  }
  if (!ok) {
    return Status::IoError("corrupt shard manifest " + path);
  }
  for (const uint32_t shard : out->assignment.shard_of) {
    // kDroppedShard (v2): the id was deleted and compacted away.
    if (shard >= num_shards && shard != kDroppedShard) {
      return Status::IoError("corrupt shard manifest " + path +
                             ": assignment out of range");
    }
  }
  out->partitioner = static_cast<PartitionerKind>(partitioner);
  out->page_size_bytes = static_cast<size_t>(page_size);
  out->assignment.num_shards = num_shards;
  return Status::Ok();
}

}  // namespace warpindex
