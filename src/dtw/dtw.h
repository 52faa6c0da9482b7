// The time-warping distance D_tw (paper Definitions 1 and 2) computed by
// dynamic programming, with:
//
//   * pluggable base distance: sum-combined |.| or (.)^2 (L1 / L2) and the
//     paper's max-combined |.| (L_inf, Definition 2);
//   * rolling-array memory of one row of columns for distance-only
//     queries: the query's under the L_inf pre-pass's options (below), the
//     shorter sequence's otherwise;
//   * thresholded early-abandoning evaluation: stops as soon as every cell
//     of a DP row exceeds the tolerance — exact because step costs are
//     non-negative and both combiners are monotone along path extension.
//     This is the paper's stated CPU advantage of the L_inf model (§4.1);
//   * for the max combiner over an unconstrained band, a bit-parallel
//     decision pre-pass ahead of the thresholded DP: "is there a path
//     through cells of cost <= epsilon?", one 64-column word at a time.
//     Each row's allowed cells come from the query's rank table: a
//     bucket lookup turns s_i -+ epsilon into a window of four ranks, a
//     few compares place each bound, and a full binary search is the
//     exact fallback (see dtw/allowed_mask.h). Only pairs it cannot
//     reject run the DP, and only inside each row's window of cells that
//     lie on a path costing <= epsilon, which a backward sweep over the
//     pre-pass's rows finds. That DP runs one anti-diagonal at a time, two
//     cells per SSE2 instruction, since no cell of a diagonal depends on
//     another (see dtw.cc);
//   * optional Sakoe-Chiba band;
//   * full-matrix evaluation with warping-path recovery.
//
// Query preparation. Dtw::Prepare builds a PreparedQuery: the query's
// values, reversed for the anti-diagonal DP, and its rank table, built in
// O(m) by a counting sort. A search method prepares each query once and
// passes it to the evaluation of every candidate, which then checks
// nothing about the query. The overloads taking the query as a Sequence
// prepare it through the DtwScratch, which keeps the last query it
// prepared and rebuilds it only when the values differ: that content
// check is the one place a query's kernel state is cached.
//
// CPU cost accounting: every evaluation reports the number of DP cells
// computed, which benches aggregate as the machine-independent CPU metric.

#ifndef WARPINDEX_DTW_DTW_H_
#define WARPINDEX_DTW_DTW_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dtw/allowed_mask.h"
#include "dtw/base_distance.h"
#include "dtw/warping_path.h"
#include "sequence/sequence.h"

namespace warpindex {

inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

// Effective Sakoe-Chiba radius for a pair of lengths (n, m): the
// configured radius widened to at least |n - m| so a path from (0,0) to
// (n-1,m-1) always exists; max(n, m) when unconstrained. Shared with the
// envelope lower bounds (dtw/lb_keogh.h), whose windows must admit every
// alignment the DP admits.
size_t EffectiveSakoeChibaRadius(const DtwOptions& options, size_t n,
                                 size_t m);

// Result of a DTW evaluation.
struct DtwResult {
  // The distance; kInfiniteDistance when a thresholded evaluation abandoned
  // (the true distance then exceeds the threshold) or when exactly one of
  // the sequences is empty (Def. 1).
  double distance = 0.0;
  // DP cells either pass evaluated — the work of this evaluation. The
  // rows are S and the columns Q under the L_inf pre-pass's options
  // (Dtw::RunsLinfPrePass), whatever their lengths; otherwise the rows are
  // the longer sequence.
  // The DP counts every cell of each row it computes: the in-band cells,
  // or after the L_inf pre-pass the cells of each row's path window.
  // The pre-pass counts each row it covers in full (m cells, whatever
  // words it skips; its backward sweep is not counted again).
  // Evaluations that run only the DP — the sum combiner, a band, an
  // infinite threshold — count exactly the DP's cells. A pair the
  // pre-pass rejects counts the rows up to the row where the DP would
  // have abandoned (the same count the DP alone gives); a pair it passes
  // counts its rows plus the window cells. A pre-pass row
  // costs far less than a DP cell per column, so on pre-pass-heavy work
  // (exact k-NN) the count no longer tracks time.
  uint64_t cells = 0;
};

// The per-row windows the L_inf pre-pass hands to the DP. For rows s and
// columns q under the max combiner, lo[i] and hi[i] are the first and last
// column of row i's cells on paths from (0, 0) to (n-1, m-1) whose every
// step costs <= threshold (finite, >= 0). Returns false, leaving lo and
// hi empty, when no such path exists. The anti-diagonal DP requires lo and
// hi to be non-decreasing; this entry point lets tests check the kernel's
// windows directly.
bool LinfPathWindows(const Sequence& s, const Sequence& q, StepCost step,
                     double threshold, std::vector<size_t>* lo,
                     std::vector<size_t>* hi);

// Distance plus the optimal warping path (full-matrix evaluation only).
struct DtwPathResult {
  double distance = 0.0;
  uint64_t cells = 0;
  WarpingPath path;
};

// A query made ready for many evaluations (see the header comment). It
// holds a copy of the query's values; when prepared for the L_inf
// pre-pass, also the values reversed and, for at most kMaxRankedColumns
// values, their rank table. Immutable once built, so threads may share
// one. Evaluate it only with a Dtw whose options it was prepared for (one
// prepared for other options is still exact, but may skip the pre-pass).
class PreparedQuery {
 public:
  PreparedQuery() = default;

  size_t size() const { return values_.size(); }

 private:
  friend class Dtw;
  // Prepares q; with `linf`, also the pre-pass and diagonal DP state.
  void Assign(const Sequence& q, bool linf);
  // True when Assign(q, linf) would build what this already holds.
  bool Holds(const Sequence& q, bool linf) const;

  std::vector<double> values_;
  bool linf_ = false;  // reversed_ and (m <= kMaxRankedColumns) ranks_ built
  std::vector<double> reversed_;
  ColumnRanks ranks_;
};

// Reusable buffers for Dtw's distance evaluations: the two rolling DP
// rows, the L_inf pre-pass's bit rows and per-row windows, the three
// anti-diagonals of the windowed DP, and the query the Sequence overloads
// prepared last. A fresh set per evaluation is pure heap churn when a
// query post-filters hundreds of candidates; passing one DtwScratch
// through the loop (or keeping one per executor worker, reused across
// queries) makes every evaluation after the first allocation-free.
// Results are bit-identical with and without a scratch.
//
// Thread-safety: a DtwScratch is mutable state — use one per thread.
class DtwScratch {
 public:
  DtwScratch() = default;

  DtwScratch(const DtwScratch&) = delete;
  DtwScratch& operator=(const DtwScratch&) = delete;

  // Largest row capacity retained so far (for tests/introspection).
  size_t capacity() const { return prev_.capacity(); }

 private:
  friend class Dtw;
  std::vector<double> prev_;
  std::vector<double> curr_;
  std::vector<uint64_t> bits_;
  std::vector<size_t> lo_;
  std::vector<size_t> hi_;
  std::vector<double> diagonals_;
  PreparedQuery query_;
};

class Dtw {
 public:
  explicit Dtw(DtwOptions options = DtwOptions::Linf())
      : options_(options) {}

  const DtwOptions& options() const { return options_; }

  // True when every thresholded evaluation with a finite, non-negative
  // threshold decides first with the L_inf pre-pass (max combiner over an
  // unconstrained band), so a rejection costs a few cheap rows and an
  // acceptance runs the DP only inside the path windows. Searchers
  // that choose between thresholded and full evaluations ask this.
  bool RunsLinfPrePass() const {
    return options_.combiner == DtwCombiner::kMax && options_.band < 0;
  }

  // Prepares q for evaluations under this Dtw's options.
  PreparedQuery Prepare(const Sequence& q) const;

  // Exact D_tw(S, Q). When `scratch` is non-null its buffers are reused
  // instead of allocating.
  DtwResult Distance(const Sequence& s, const PreparedQuery& q,
                     DtwScratch* scratch = nullptr) const;

  // Thresholded decision procedure: returns the exact distance when
  // D_tw(S, Q) <= epsilon, and kInfiniteDistance otherwise (possibly
  // abandoning early). Never returns a finite value > epsilon. Requires
  // epsilon >= 0 (+inf abandons nothing and returns Distance(S, Q)).
  DtwResult DistanceWithThreshold(const Sequence& s, const PreparedQuery& q,
                                  double epsilon,
                                  DtwScratch* scratch = nullptr) const;

  // The same, preparing q through `scratch` (reused while q's values stay
  // the same) or, without one, for this evaluation alone.
  DtwResult Distance(const Sequence& s, const Sequence& q,
                     DtwScratch* scratch = nullptr) const;
  DtwResult DistanceWithThreshold(const Sequence& s, const Sequence& q,
                                  double epsilon,
                                  DtwScratch* scratch = nullptr) const;

  // Convenience: D_tw(S, Q) <= epsilon?
  bool WithinTolerance(const Sequence& s, const Sequence& q,
                       double epsilon) const {
    return DistanceWithThreshold(s, q, epsilon).distance <= epsilon;
  }

  // Full-matrix evaluation with backtracking. O(|S| * |Q|) memory.
  DtwPathResult DistanceWithPath(const Sequence& s, const Sequence& q) const;

 private:
  DtwResult Compute(const Sequence& s, const PreparedQuery& q,
                    double threshold, DtwScratch* scratch) const;
  // Compute through scratch->query_, prepared for `threshold`.
  DtwResult ComputeCached(const Sequence& s, const Sequence& q,
                          double threshold, DtwScratch* scratch) const;

  DtwOptions options_;
};

}  // namespace warpindex

#endif  // WARPINDEX_DTW_DTW_H_
