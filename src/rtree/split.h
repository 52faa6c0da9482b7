// Node-splitting policies for the R-tree.
//
//   kLinear     Guttman's linear-cost split (greatest normalized
//               separation seeds, then least-enlargement assignment).
//   kQuadratic  Guttman's quadratic-cost split (max-dead-area seed pair,
//               PickNext by enlargement difference) — the classical
//               default, used by the paper's TW-Sim-Search configuration.
//   kRStar      Beckmann et al.'s topological split: choose the axis with
//               minimal margin sum, then the distribution with minimal
//               overlap (ties by area).
//
// All policies guarantee both output groups have >= min_fill entries.

#ifndef WARPINDEX_RTREE_SPLIT_H_
#define WARPINDEX_RTREE_SPLIT_H_

#include <utility>

#include "rtree/node.h"

namespace warpindex {

enum class SplitPolicy {
  kLinear,
  kQuadratic,
  kRStar,
};

const char* SplitPolicyName(SplitPolicy policy);

// Partitions `entries` (size >= 2) into two non-empty groups, each with at
// least min(min_fill, entries.size() / 2) entries. Each group is a new
// array sized exactly to its entries; `entries` is left untouched.
//
// `distribution_factor` (kRStar only) widens or narrows the candidate
// split positions: each group must hold at least
// max(min_fill, floor(entries.size() * distribution_factor)) entries
// (Beckmann et al.'s m = factor * M, classically 0.4). 0 derives the
// range from min_fill alone (legacy behavior).
std::pair<EntryArray, EntryArray> SplitEntries(
    const EntryArray& entries, size_t min_fill, SplitPolicy policy,
    double distribution_factor = 0.0);

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_SPLIT_H_
