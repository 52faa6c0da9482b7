// Sharded-engine persistence: one manifest file describing the partition
// plus one saved Engine directory per shard.
//
// Layout of a saved ShardedEngine directory:
//
//   <dir>/manifest.wism      shard count, partitioner, page size, and the
//                            full global-id -> shard assignment
//   <dir>/shard-0000/...     Engine::Save of shard 0
//   <dir>/shard-0001/...     ...
//
// The manifest is authoritative: reopening validates the caller's
// requested shard count, partitioner, and page size against it and
// REJECTS mismatches instead of silently re-partitioning — a database
// saved as 8 range-partitioned shards answers queries as exactly that,
// or not at all. (Global ids are positions in the original dataset; the
// persisted assignment restores the id mapping without re-running the
// partitioner, whose input ordering is gone after the split.)
//
// Binary format (little-endian host, same convention as dataset.wids):
//   magic "WISM" | u32 version | u32 num_shards | u32 partitioner |
//   u64 page_size_bytes | u64 num_sequences | u32 shard_of[num_sequences]
//
// Version history:
//   v1  the layout above; every shard_of entry is a live assignment.
//   v2  (streaming ingest, src/ingest/) two extensions:
//       * shard_of entries may be kDroppedShard — the global id was
//         deleted and compacted away. The id stays in the manifest so
//         the global id space (positions assigned at insert time) never
//         renumbers across compactions.
//       * an optional trailing block with the range partitioner's cut
//         points (recomputed online as shards grow):
//         u32 has_cuts | [num_shards * kFeatureDims doubles]
//       Readers accept both versions; the writer emits v2.

#ifndef WARPINDEX_SHARD_SHARD_IO_H_
#define WARPINDEX_SHARD_SHARD_IO_H_

#include <array>
#include <string>

#include "common/status.h"
#include "shard/partitioner.h"

namespace warpindex {

// shard_of[] sentinel for a global id that was deleted and compacted
// away (manifest v2).
inline constexpr uint32_t kDroppedShard = 0xFFFFFFFFu;

struct ShardManifest {
  PartitionerKind partitioner = PartitionerKind::kHash;
  size_t page_size_bytes = 0;
  ShardAssignment assignment;
  // Range-partitioner routing cut points (upper feature key per shard in
  // index order, lexicographic); empty when absent (v1 manifests, hash
  // partitioner, or pre-ingest writers).
  std::vector<std::array<double, kFeatureDims>> range_cuts;
};

// Subdirectory of shard `index` under a sharded-engine directory
// ("shard-0000", ...).
std::string ShardSubdir(size_t index);

Status SaveShardManifest(const std::string& path,
                         const ShardManifest& manifest);
// IoError("corrupt shard manifest ...") for a malformed file: bad magic,
// version or header field, a count the file's bytes cannot hold (checked
// before anything is allocated), an out-of-range assignment, or a
// non-finite range cut.
Status LoadShardManifest(const std::string& path, ShardManifest* out);

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_SHARD_IO_H_
