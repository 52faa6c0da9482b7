#include "core/tw_knn_search.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/timer.h"
#include "sequence/feature.h"

namespace warpindex {

KnnResult TwKnnSearch::Search(const Sequence& query, size_t k, Trace* trace,
                              SharedKnnBound* shared_bound) const {
  assert(!query.empty());
  assert(k >= 1);
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  KnnResult result;

  const FeatureVector qf = ExtractFeature(query);
  const auto arr = qf.AsPoint();
  const Point qp = Point::FromArray(arr.data(), kFeatureDims);

  RTreeQueryStats rstats;
  RTree::LinfNearestIterator it =
      index_->rtree().NearestLinf(qp, &rstats);

  // Max-heap of the best k matches seen so far: the top is the current
  // k-th place under the canonical (distance, id) order, i.e. the first
  // entry a better candidate evicts.
  std::priority_queue<KnnMatch, std::vector<KnnMatch>,
                      decltype(&KnnMatchOrder)>
      top_k(&KnnMatchOrder);

  // The tightest distance any candidate must beat (or tie, for the id
  // tie-break) to matter: our own k-th distance once the heap is full,
  // further tightened by what concurrent searchers over sibling
  // partitions have proven.
  const auto cutoff = [&]() {
    double c = top_k.size() == k ? top_k.top().distance : kInfiniteDistance;
    if (shared_bound != nullptr) {
      c = std::min(c, shared_bound->Current());
    }
    return c;
  };

  // Index descent and exact refinement interleave in the incremental
  // loop, so both time shares are carved out of one `knn_refine` span.
  ScopedSpan span(trace, kStageKnnRefine);
  DtwScratch scratch;  // reused across the query's refinements
  double descent_ms = 0.0;
  double fetch_ms = 0.0;
  double refine_ms = 0.0;
  double descent_cpu_ms = 0.0;
  double fetch_cpu_ms = 0.0;
  double refine_cpu_ms = 0.0;
  WallTimer per_item;
  ThreadCpuTimer per_item_cpu;
  RTree::Neighbor candidate;
  while (true) {
    per_item.Reset();
    per_item_cpu.Reset();
    const bool has_next = it.Next(&candidate);
    descent_ms += per_item.ElapsedMillis();
    descent_cpu_ms += per_item_cpu.ElapsedMillis();
    if (!has_next) {
      break;
    }
    if (candidate.distance > cutoff()) {
      // Every remaining record has lower bound >= this one's, hence exact
      // D_tw >= the proven k-th distance: done (no false dismissal).
      // Strictly greater only — a candidate tying the cutoff can still
      // enter the answer through the id tie-break.
      break;
    }
    per_item.Reset();
    per_item_cpu.Reset();
    const Sequence& s =
        store_->Fetch(candidate.record_id, &result.cost.io, trace);
    fetch_ms += per_item.ElapsedMillis();
    fetch_cpu_ms += per_item_cpu.ElapsedMillis();
    ++result.num_refined;
    per_item.Reset();
    per_item_cpu.Reset();
    const double threshold = cutoff();
    DtwResult d;
    if (threshold < kInfiniteDistance) {
      // Thresholded refinement: only distances at or below the cutoff
      // matter, so abandon above it (exact when d <= threshold).
      d = dtw_.DistanceWithThreshold(s, query, threshold, &scratch);
    } else {
      d = dtw_.Distance(s, query, &scratch);
    }
    refine_ms += per_item.ElapsedMillis();
    refine_cpu_ms += per_item_cpu.ElapsedMillis();
    result.cost.dtw_cells += d.cells;
    const KnnMatch match{candidate.record_id, d.distance};
    if (top_k.size() < k) {
      if (match.distance <= threshold) {
        top_k.push(match);
      }
    } else if (KnnMatchOrder(match, top_k.top())) {
      top_k.pop();
      top_k.push(match);
    }
    if (shared_bound != nullptr && top_k.size() == k) {
      shared_bound->Tighten(top_k.top().distance);
    }
  }
  result.cost.stages.Add(kStageRtreeSearch, descent_ms);
  result.cost.stages.Add(kStageCandidateFetch, fetch_ms);
  result.cost.stages.Add(kStageKnnRefine, refine_ms);
  result.cost.stages_cpu.Add(kStageRtreeSearch, descent_cpu_ms);
  result.cost.stages_cpu.Add(kStageCandidateFetch, fetch_cpu_ms);
  result.cost.stages_cpu.Add(kStageKnnRefine, refine_cpu_ms);
  TraceCounter(trace, "refined", static_cast<double>(result.num_refined));
  TraceCounter(trace, "dtw_cells",
               static_cast<double>(result.cost.dtw_cells));
  TraceCounter(trace, "rtree_nodes",
               static_cast<double>(rstats.nodes_accessed));

  result.cost.index_nodes = rstats.nodes_accessed;
  result.cost.io.RecordRandomRead(rstats.nodes_accessed);
  result.neighbors.resize(top_k.size());
  for (size_t i = top_k.size(); i-- > 0;) {
    result.neighbors[i] = top_k.top();
    top_k.pop();
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
