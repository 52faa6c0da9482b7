#include "rtree/split.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

namespace warpindex {
namespace {

using SplitResult = std::pair<EntryArray, EntryArray>;
// Positions into the array being split.
using Indices = std::vector<size_t>;

// The entries at indices[begin, end), in that order, in an array of
// exact size.
EntryArray Gather(const EntryArray& entries, const Indices& indices,
                  size_t begin, size_t end) {
  EntryArray out(entries.dims());
  out.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.Push(entries.rect(indices[i]), entries.ref(indices[i]));
  }
  return out;
}

// Guttman quadratic PickSeeds: the pair wasting the most area.
std::pair<size_t, size_t> QuadraticPickSeeds(const EntryArray& entries) {
  size_t best_a = 0;
  size_t best_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a + 1 < entries.size(); ++a) {
    for (size_t b = a + 1; b < entries.size(); ++b) {
      const RectView ra = entries.rect(a);
      const RectView rb = entries.rect(b);
      const double waste = ra.UnionArea(rb) - ra.Area() - rb.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        best_a = a;
        best_b = b;
      }
    }
  }
  return {best_a, best_b};
}

// Guttman linear PickSeeds: per dimension, find the entry with the highest
// low side and the one with the lowest high side; normalize the separation
// by the dimension's width and take the dimension with the greatest
// normalized separation.
std::pair<size_t, size_t> LinearPickSeeds(const EntryArray& entries) {
  size_t best_a = 0;
  size_t best_b = 1;
  double best_separation = -std::numeric_limits<double>::infinity();
  for (int d = 0; d < entries.dims(); ++d) {
    size_t highest_low = 0;
    size_t lowest_high = 0;
    double dim_min = std::numeric_limits<double>::infinity();
    double dim_max = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      const RectView r = entries.rect(i);
      if (r.min(d) > entries.rect(highest_low).min(d)) {
        highest_low = i;
      }
      if (r.max(d) < entries.rect(lowest_high).max(d)) {
        lowest_high = i;
      }
      dim_min = std::min(dim_min, r.min(d));
      dim_max = std::max(dim_max, r.max(d));
    }
    if (highest_low == lowest_high) {
      continue;
    }
    const double width = dim_max - dim_min;
    const double separation = entries.rect(highest_low).min(d) -
                              entries.rect(lowest_high).max(d);
    const double normalized = width > 0.0 ? separation / width : separation;
    if (normalized > best_separation) {
      best_separation = normalized;
      best_a = lowest_high;
      best_b = highest_low;
    }
  }
  if (best_a == best_b) {
    best_b = best_a == 0 ? 1 : 0;
  }
  return {best_a, best_b};
}

// Shared distribution loop for the two Guttman variants. `quadratic`
// selects PickNext by max enlargement difference; linear assigns in input
// order.
SplitResult GuttmanSplit(const EntryArray& entries, size_t min_fill,
                         bool quadratic) {
  const auto seeds =
      quadratic ? QuadraticPickSeeds(entries) : LinearPickSeeds(entries);
  Indices group_a = {seeds.first};
  Indices group_b = {seeds.second};
  Rect mbr_a = entries.rect(seeds.first).ToRect();
  Rect mbr_b = entries.rect(seeds.second).ToRect();

  Indices remaining;
  remaining.reserve(entries.size() - 2);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i != seeds.first && i != seeds.second) {
      remaining.push_back(i);
    }
  }

  while (!remaining.empty()) {
    // If one group must take all remaining entries to reach min_fill, do so.
    if (group_a.size() + remaining.size() == min_fill) {
      for (const size_t i : remaining) {
        mbr_a.Expand(entries.rect(i));
        group_a.push_back(i);
      }
      break;
    }
    if (group_b.size() + remaining.size() == min_fill) {
      for (const size_t i : remaining) {
        mbr_b.Expand(entries.rect(i));
        group_b.push_back(i);
      }
      break;
    }

    size_t pick = 0;
    if (quadratic) {
      // PickNext: entry with the greatest preference for one group.
      double best_diff = -1.0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const double da = mbr_a.Enlargement(entries.rect(remaining[i]));
        const double db = mbr_b.Enlargement(entries.rect(remaining[i]));
        const double diff = std::fabs(da - db);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
        }
      }
    }
    const size_t entry = remaining[pick];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));

    const RectView rect = entries.rect(entry);
    const double da = mbr_a.Enlargement(rect);
    const double db = mbr_b.Enlargement(rect);
    bool to_a;
    if (da != db) {
      to_a = da < db;
    } else if (mbr_a.Area() != mbr_b.Area()) {
      to_a = mbr_a.Area() < mbr_b.Area();
    } else {
      to_a = group_a.size() <= group_b.size();
    }
    if (to_a) {
      mbr_a.Expand(rect);
      group_a.push_back(entry);
    } else {
      mbr_b.Expand(rect);
      group_b.push_back(entry);
    }
  }
  return {Gather(entries, group_a, 0, group_a.size()),
          Gather(entries, group_b, 0, group_b.size())};
}

Rect MbrOfRange(const EntryArray& entries, const Indices& order,
                size_t begin, size_t end) {
  Rect mbr = entries.rect(order[begin]).ToRect();
  for (size_t i = begin + 1; i < end; ++i) {
    mbr.Expand(entries.rect(order[i]));
  }
  return mbr;
}

// Sorts `order` by the lower (or upper) bound of dimension `d`.
void SortByBound(const EntryArray& entries, int d, bool by_upper,
                 Indices* order) {
  std::sort(order->begin(), order->end(),
            [&entries, d, by_upper](size_t a, size_t b) {
              return by_upper ? entries.rect(a).max(d) < entries.rect(b).max(d)
                              : entries.rect(a).min(d) < entries.rect(b).min(d);
            });
}

// R*-tree split: choose axis by minimal total margin over all candidate
// distributions, then the distribution on that axis with minimal overlap
// (ties broken by combined area).
SplitResult RStarSplit(const EntryArray& entries, size_t min_fill) {
  const size_t total = entries.size();
  const size_t max_k = total - min_fill;  // split position k in [min_fill, max_k]

  int best_axis = 0;
  bool best_axis_by_upper = false;
  double best_margin_sum = std::numeric_limits<double>::infinity();

  // One order, re-sorted axis after axis (each sort starts from the
  // previous one's result).
  Indices sorted(total);
  std::iota(sorted.begin(), sorted.end(), size_t{0});
  for (int d = 0; d < entries.dims(); ++d) {
    for (const bool by_upper : {false, true}) {
      SortByBound(entries, d, by_upper, &sorted);
      double margin_sum = 0.0;
      for (size_t split = min_fill; split <= max_k; ++split) {
        margin_sum += MbrOfRange(entries, sorted, 0, split).Margin() +
                      MbrOfRange(entries, sorted, split, total).Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = d;
        best_axis_by_upper = by_upper;
      }
    }
  }

  Indices order(total);
  std::iota(order.begin(), order.end(), size_t{0});
  SortByBound(entries, best_axis, best_axis_by_upper, &order);

  size_t best_split = min_fill;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t split = min_fill; split <= max_k; ++split) {
    const Rect left = MbrOfRange(entries, order, 0, split);
    const Rect right = MbrOfRange(entries, order, split, total);
    const double overlap = left.OverlapArea(right);
    const double area = left.Area() + right.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }
  return {Gather(entries, order, 0, best_split),
          Gather(entries, order, best_split, total)};
}

}  // namespace

const char* SplitPolicyName(SplitPolicy policy) {
  switch (policy) {
    case SplitPolicy::kLinear:
      return "linear";
    case SplitPolicy::kQuadratic:
      return "quadratic";
    case SplitPolicy::kRStar:
      return "rstar";
  }
  return "unknown";
}

SplitResult SplitEntries(const EntryArray& entries, size_t min_fill,
                         SplitPolicy policy, double distribution_factor) {
  assert(entries.size() >= 2);
  const size_t effective_min_fill =
      std::max<size_t>(1, std::min(min_fill, entries.size() / 2));
  switch (policy) {
    case SplitPolicy::kLinear:
      return GuttmanSplit(entries, effective_min_fill, /*quadratic=*/false);
    case SplitPolicy::kQuadratic:
      return GuttmanSplit(entries, effective_min_fill, /*quadratic=*/true);
    case SplitPolicy::kRStar: {
      // m = factor * M, never below the structural minimum fill and never
      // above half the node (so at least one candidate split remains).
      size_t dist_min = effective_min_fill;
      if (distribution_factor > 0.0) {
        dist_min = std::max(
            dist_min, static_cast<size_t>(
                          static_cast<double>(entries.size()) *
                          distribution_factor));
        dist_min = std::max<size_t>(
            1, std::min(dist_min, entries.size() / 2));
      }
      return RStarSplit(entries, dist_min);
    }
  }
  return GuttmanSplit(entries, effective_min_fill, true);
}

}  // namespace warpindex
