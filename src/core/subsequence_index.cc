#include "core/subsequence_index.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "common/timer.h"
#include "core/feature_index.h"
#include "rtree/bulk_load.h"

namespace warpindex {
namespace {

// Feature vectors of every window of length `w` in `s`, O(|s|) via
// monotonic deques. Calls `emit(offset, feature)`.
template <typename Emit>
void SlideWindows(const Sequence& s, size_t w, size_t stride, Emit emit) {
  if (s.size() < w) {
    return;
  }
  std::deque<size_t> max_dq;  // indices, values decreasing
  std::deque<size_t> min_dq;  // indices, values increasing
  for (size_t i = 0; i < s.size(); ++i) {
    while (!max_dq.empty() && s[max_dq.back()] <= s[i]) {
      max_dq.pop_back();
    }
    max_dq.push_back(i);
    while (!min_dq.empty() && s[min_dq.back()] >= s[i]) {
      min_dq.pop_back();
    }
    min_dq.push_back(i);
    if (i + 1 < w) {
      continue;
    }
    const size_t offset = i + 1 - w;
    if (max_dq.front() < offset) {
      max_dq.pop_front();
    }
    if (min_dq.front() < offset) {
      min_dq.pop_front();
    }
    if (offset % stride == 0) {
      FeatureVector f;
      f.first = s[offset];
      f.last = s[i];
      f.greatest = s[max_dq.front()];
      f.smallest = s[min_dq.front()];
      emit(offset, f);
    }
  }
}

}  // namespace

SubsequenceIndex::SubsequenceIndex(const Dataset* dataset,
                                   SubsequenceIndexOptions options)
    : dataset_(dataset),
      options_(options),
      tree_(kFeatureDims, options.rtree),
      dtw_(options.dtw) {
  assert(options_.min_window >= 1);
  assert(options_.min_window <= options_.max_window);
  assert(options_.stride >= 1);

  // Bulk loading collects every window's entry first; insertion indexes
  // each window as it is cut.
  EntryArray leaves(kFeatureDims);
  for (const Sequence& s : dataset_->sequences()) {
    for (size_t w = options_.min_window; w <= options_.max_window; ++w) {
      SlideWindows(s, w, options_.stride,
                   [&](size_t offset, const FeatureVector& f) {
                     const auto record_id =
                         static_cast<int64_t>(windows_.size());
                     windows_.push_back({s.id(), static_cast<uint32_t>(offset),
                                         static_cast<uint32_t>(w)});
                     const Rect rect =
                         Rect::FromPoint(FeatureIndex::FeatureToPoint(f));
                     if (options_.bulk_load) {
                       leaves.Push(rect, record_id);
                     } else {
                       tree_.Insert(rect, record_id);
                     }
                   });
    }
  }
  if (options_.bulk_load) {
    tree_ = BulkLoadStr(kFeatureDims, options_.rtree, std::move(leaves));
  }
}

std::vector<SubsequenceMatch> SubsequenceIndex::Search(
    const Sequence& query, double epsilon, SearchCost* cost) const {
  assert(!query.empty());
  WallTimer timer;
  const Rect range = Rect::SquareAround(
      FeatureIndex::FeatureToPoint(ExtractFeature(query)), epsilon);

  RTreeQueryStats rstats;
  const std::vector<int64_t> candidates = tree_.RangeSearch(range, &rstats);
  if (cost != nullptr) {
    cost->index_nodes += rstats.nodes_accessed;
    cost->io.RecordRandomRead(rstats.nodes_accessed);
  }

  std::vector<SubsequenceMatch> matches;
  const PreparedQuery prepared = dtw_.Prepare(query);
  DtwScratch scratch;  // one set of buffers per query
  for (const int64_t record_id : candidates) {
    const WindowRef& ref = windows_[static_cast<size_t>(record_id)];
    const Sequence window =
        (*dataset_)[static_cast<size_t>(ref.sequence_id)].Slice(ref.offset,
                                                                ref.length);
    const DtwResult d =
        dtw_.DistanceWithThreshold(window, prepared, epsilon, &scratch);
    if (cost != nullptr) {
      cost->dtw_cells += d.cells;
    }
    if (d.distance <= epsilon) {
      matches.push_back({ref.sequence_id, ref.offset, ref.length,
                         d.distance});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const SubsequenceMatch& a, const SubsequenceMatch& b) {
              if (a.sequence_id != b.sequence_id) {
                return a.sequence_id < b.sequence_id;
              }
              if (a.offset != b.offset) {
                return a.offset < b.offset;
              }
              return a.length < b.length;
            });
  if (cost != nullptr) {
    cost->wall_ms += timer.ElapsedMillis();
  }
  return matches;
}

}  // namespace warpindex
