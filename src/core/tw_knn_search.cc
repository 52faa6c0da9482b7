#include "core/tw_knn_search.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "sequence/feature.h"

namespace warpindex {
namespace {

// Decision-first heap fill (see RefineLoop): each raise multiplies the
// provisional threshold by this factor. Too small a factor re-tests the
// pending candidates many times; too large a one overshoots the k-th
// distance, and the pairs accepted there pay wider DP windows. 1.25 was
// the fastest of {1.1, 1.25, 1.5, 2, 3} on 20k x 256 random walks, k = 10.
constexpr double kTauGrowth = 1.25;
// Raises before the fill stops growing tau and decides the rest with no
// threshold, as a plain fill would (1.25^64 is about 1.6e6).
constexpr int kMaxTauRaises = 64;

// The index source of the refine loop: the R-tree's incremental L_inf
// nearest iterator over the feature points, whose record ids are the
// answer ids, fetched from the store.
class IndexCandidates {
 public:
  IndexCandidates(const FeatureIndex& index, const SequenceStore& store,
                  const Sequence& query)
      : store_(store),
        it_(index.rtree().NearestLinf(
            FeatureIndex::FeatureToPoint(ExtractFeature(query)), &stats_)) {}

  bool Next(KnnCandidate* out) {
    RTree::Neighbor neighbor;
    if (!it_.Next(&neighbor)) {
      return false;
    }
    *out = {neighbor.distance, neighbor.record_id, 0, neighbor.record_id};
    return true;
  }
  const Sequence& Fetch(const KnnCandidate& candidate, IoStats* io,
                        Trace* trace) {
    return store_.Fetch(candidate.id, io, trace);
  }
  uint64_t nodes_accessed() const { return stats_.nodes_accessed; }

 private:
  const SequenceStore& store_;
  RTreeQueryStats stats_;  // before it_, which points at it
  RTree::LinfNearestIterator it_;
};

// The filter-and-refine loop (see the header). `candidates` yields
// candidates in non-decreasing lower-bound order and fetches their
// sequences (IndexCandidates or a KnnCandidateStream); `initial_cutoff`
// upper-bounds the k-th distance.
template <typename Source>
KnnResult RefineLoop(const Dtw& dtw, const Sequence& query, size_t k,
                     double initial_cutoff, Source& candidates,
                     Trace* trace) {
  assert(!query.empty());
  assert(k >= 1);
  const WallTimer timer;
  const ThreadCpuTimer cpu_timer;
  KnnResult result;
  // Max-heap of the best k matches seen so far: the top is the current
  // k-th place under the canonical (distance, id) order, i.e. the first
  // entry a better candidate evicts.
  std::priority_queue<KnnMatch, std::vector<KnnMatch>,
                      decltype(&KnnMatchOrder)>
      top_k(&KnnMatchOrder);

  // The tightest distance any candidate must beat (or tie, for the id
  // tie-break) to matter: our own k-th distance once the heap is full
  // (every entry was admitted at or below the initial cutoff), the
  // initial cutoff before that.
  const auto cutoff = [&]() {
    return top_k.size() == k ? top_k.top().distance : initial_cutoff;
  };

  // Index descent and exact refinement interleave in the incremental
  // loop, so all three time shares are carved out of one `knn_refine`
  // span. Per item only the wall clock is read (cheap); the thread-CPU
  // clock, a system call, is read once around the whole loop and split
  // across the three stages by their wall shares.
  ScopedSpan span(trace, kStageKnnRefine);
  const PreparedQuery prepared = dtw.Prepare(query);
  DtwScratch scratch;  // reused across the query's refinements
  double descent_ms = 0.0;
  double fetch_ms = 0.0;
  double refine_ms = 0.0;
  const ThreadCpuTimer loop_cpu;
  WallTimer per_item;

  const auto next = [&](KnnCandidate* candidate) {
    per_item.Reset();
    const bool has_next = candidates.Next(candidate);
    descent_ms += per_item.ElapsedMillis();
    return has_next;
  };
  const auto fetch = [&](const KnnCandidate& candidate) -> const Sequence& {
    per_item.Reset();
    const Sequence& s = candidates.Fetch(candidate, &result.cost.io, trace);
    fetch_ms += per_item.ElapsedMillis();
    ++result.num_refined;
    return s;
  };
  // Evaluates candidate `id` (sequence `s`) at `threshold` and offers it
  // to the heap. Returns the evaluation's distance: exact when within the
  // threshold, +inf otherwise.
  const auto refine = [&](SequenceId id, const Sequence& s,
                          double threshold) {
    per_item.Reset();
    // Thresholded refinement: only distances at or below the threshold
    // matter, so abandon above it (exact when d <= threshold).
    const DtwResult d =
        threshold < kInfiniteDistance
            ? dtw.DistanceWithThreshold(s, prepared, threshold, &scratch)
            : dtw.Distance(s, prepared, &scratch);
    refine_ms += per_item.ElapsedMillis();
    ++result.cost.dtw_evals;
    result.cost.dtw_cells += d.cells;
    const KnnMatch match{id, d.distance};
    if (top_k.size() < k) {
      if (match.distance <= threshold) {
        top_k.push(match);
      }
    } else if (KnnMatchOrder(match, top_k.top())) {
      top_k.pop();
      top_k.push(match);
    }
    return d.distance;
  };

  KnnCandidate candidate;
  bool has_next = next(&candidate);
  if (has_next && dtw.RunsLinfPrePass() && cutoff() == kInfiniteDistance) {
    // Decision-first heap fill. With no cutoff yet, a plain fill would
    // run the first k refinements as full, unthresholded DPs. Instead
    // every candidate is decided at a provisional threshold tau, which
    // the L_inf pre-pass answers cheaply and exactly: a pass gives the
    // exact distance, a reject proves D > tau. tau starts at the first
    // lower bound and grows geometrically; candidates are pulled while
    // their lower bound is within tau, and the rejects wait in `pending`
    // for the next raise. Once the heap holds k entries (all <= tau), a
    // pending entry's D > tau >= the k-th distance, so it can never
    // enter: the pending list is dropped and the cutoff loop below takes
    // over from the lookahead candidate. Ties stay exact: a pass is
    // exact, and every drop is strictly above the cutoff.
    std::vector<std::pair<SequenceId, const Sequence*>> pending;
    // A zero first bound cannot grow: its first raise goes to +inf, the
    // plain fill's unthresholded DPs.
    double tau = candidate.lower_bound;
    int raises = 0;
    // Decides one candidate at min(tau, cutoff); true when it stays
    // pending (rejected at tau, below the cutoff: a larger tau may pass
    // it). A reject at the cutoff is final.
    const auto decide = [&](SequenceId id, const Sequence& s) {
      const double limit = cutoff();
      const double threshold = std::min(tau, limit);
      return refine(id, s, threshold) > threshold && threshold < limit;
    };
    while (top_k.size() < k) {
      while (has_next && candidate.lower_bound <= tau && top_k.size() < k) {
        if (candidate.lower_bound > cutoff()) {
          has_next = false;  // no later candidate can beat the cutoff
          break;
        }
        const Sequence& s = fetch(candidate);
        if (decide(candidate.id, s)) {
          pending.emplace_back(candidate.id, &s);
        }
        has_next = next(&candidate);
      }
      if (top_k.size() == k || (pending.empty() && !has_next)) {
        break;
      }
      tau = tau > 0.0 && ++raises <= kMaxTauRaises ? tau * kTauGrowth
                                                   : kInfiniteDistance;
      size_t kept = 0;
      for (const auto& [id, s] : pending) {
        if (decide(id, *s)) {
          pending[kept++] = {id, s};
        }
      }
      pending.resize(kept);
    }
  }
  while (has_next) {
    if (candidate.lower_bound > cutoff()) {
      // Every remaining record has lower bound >= this one's, hence exact
      // D_tw >= the proven k-th distance: done (no false dismissal).
      // Strictly greater only — a candidate tying the cutoff can still
      // enter the answer through the id tie-break.
      break;
    }
    refine(candidate.id, fetch(candidate), cutoff());
    has_next = next(&candidate);
  }
  const double loop_wall_ms = descent_ms + fetch_ms + refine_ms;
  const double cpu_per_wall =
      loop_wall_ms > 0.0 ? loop_cpu.ElapsedMillis() / loop_wall_ms : 0.0;
  result.cost.stages.Add(kStageRtreeSearch, descent_ms);
  result.cost.stages.Add(kStageCandidateFetch, fetch_ms);
  result.cost.stages.Add(kStageKnnRefine, refine_ms);
  result.cost.stages_cpu.Add(kStageRtreeSearch, descent_ms * cpu_per_wall);
  result.cost.stages_cpu.Add(kStageCandidateFetch, fetch_ms * cpu_per_wall);
  result.cost.stages_cpu.Add(kStageKnnRefine, refine_ms * cpu_per_wall);
  TraceCounter(trace, "refined", static_cast<double>(result.num_refined));
  TraceCounter(trace, "dtw_cells",
               static_cast<double>(result.cost.dtw_cells));
  const uint64_t nodes = candidates.nodes_accessed();
  TraceCounter(trace, "rtree_nodes", static_cast<double>(nodes));
  result.cost.index_nodes = nodes;
  result.cost.io.RecordRandomRead(nodes);
  result.neighbors.resize(top_k.size());
  for (size_t i = top_k.size(); i-- > 0;) {
    result.neighbors[i] = top_k.top();
    top_k.pop();
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace

KnnResult TwKnnSearch::Search(const Sequence& query, size_t k,
                              double initial_cutoff,
                              KnnCandidateStream* candidates,
                              Trace* trace) const {
  if (candidates != nullptr) {
    return RefineLoop(dtw_, query, k, initial_cutoff, *candidates, trace);
  }
  IndexCandidates index(*index_, *store_, query);
  return RefineLoop(dtw_, query, k, initial_cutoff, index, trace);
}

}  // namespace warpindex
