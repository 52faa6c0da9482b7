#include "plan/filter_cascade.h"

#include <cassert>

#include "dtw/lb_improved.h"
#include "dtw/lb_yi.h"
#include "obs/stage_timings.h"
#include "sequence/feature.h"

namespace warpindex {

std::string_view CascadeStageName(CascadeStage stage) {
  switch (stage) {
    case CascadeStage::kFeatureLb:
      return kStageFeatureLbCascade;
    case CascadeStage::kLbYi:
      return kStageLbYiCascade;
    case CascadeStage::kLbKeogh:
      return kStageLbKeoghCascade;
    case CascadeStage::kLbImproved:
      return kStageLbImprovedCascade;
  }
  return "unknown";
}

CascadePlan CascadePlan::Full() {
  return CascadePlan{{CascadeStage::kFeatureLb, CascadeStage::kLbYi,
                      CascadeStage::kLbKeogh, CascadeStage::kLbImproved}};
}

std::string CascadePlan::ToString() const {
  std::string out;
  for (const CascadeStage stage : stages) {
    out += CascadeStageName(stage);
    out += " > ";
  }
  out += "dtw";
  return out;
}

// Dominance. Every candidate TwSimSearch refines already satisfies the
// paper's index predicate D_tw-lb(S, Q) <= epsilon (Theorem 1): base rows
// come from the R-tree square range query, and buffered rows are selected
// with DtwLowerBoundDistance itself. A stage whose bound never exceeds
// D_tw-lb for the DtwOptions can therefore never prune (a stage prunes
// only on bound > epsilon):
//
//   feature_lb, always. The stage computes DtwLowerBoundDistance, the
//     index's own predicate. (The R-tree tests the square [q - eps,
//     q + eps] with rounded edges, so a base candidate on an edge may sit
//     a few ulps above epsilon; skipping the stage then sends it to exact
//     DTW, whose result is >= D_tw-lb bit for bit and rejects it. The
//     answer is unchanged.)
//   lb_yi, under the max combiner with absolute step and no sqrt (L_inf).
//     Its one-sided term max_i dist(S_i, [minQ, maxQ]) is
//     max(0, minQ - minS, maxS - maxQ): floating-point subtraction is
//     monotone in each argument, so the maximum over i is attained at
//     S_i = minS or maxS, bit for bit. With fabs(a - b) == fabs(b - a),
//     both one-sided terms are <= max(|dGreatest|, |dSmallest|) <= D_tw-lb.
//     The sum combiners (L1, L2) add terms over all elements and keep it.
//   lb_keogh and lb_improved, under L_inf with no band (band < 0). The
//     envelope is then full width: every window of Q is [minQ, maxQ]
//     (also beyond Q's end, since the effective radius max(|S|, |Q|)
//     clips every suffix window to all of Q). LB_Keogh is LB_Yi's first
//     one-sided term, hence <= D_tw-lb as above. LB_Improved's pass 2 is
//     max_j dist(Q_j, [min h, max h]) with h = clamp(S, [minQ, maxQ]);
//     clamping is monotone, so [min h, max h] = [clamp(minS),
//     clamp(maxS)]. Each Q_j lies in [minQ, maxQ]; if Q_j < min h then
//     min h = minS > minQ (or min h = maxQ < minS when minS > maxQ) and
//     min h - Q_j <= minS - minQ = |dSmallest|; symmetrically for
//     Q_j > max h with |dGreatest|. So both passes are <= D_tw-lb and
//     the paper's own setting (unbanded L_inf) plans the empty cascade.
//
// A band keeps lb_keogh and lb_improved (their windows are narrower than
// [minQ, maxQ], so they can exceed D_tw-lb). tests/cascade_planner_test.cc
// checks every marked stage against D_tw-lb exactly, over random pairs of
// each supported DtwOptions.
bool StageDominated(CascadeStage stage, const DtwOptions& options) {
  const bool linf = options.combiner == DtwCombiner::kMax &&
                    options.step == StepCost::kAbsolute &&
                    !options.take_sqrt;
  switch (stage) {
    case CascadeStage::kFeatureLb:
      return true;
    case CascadeStage::kLbYi:
      return linf;
    case CascadeStage::kLbKeogh:
    case CascadeStage::kLbImproved:
      return linf && options.band < 0;
  }
  return false;
}

CascadePlan DefaultCascadePlan(const DtwOptions& options) {
  if (options.band >= 0) {
    return CascadePlan{{CascadeStage::kLbImproved}};
  }
  if (StageDominated(CascadeStage::kLbYi, options)) {
    return CascadePlan::Paper();
  }
  return CascadePlan{{CascadeStage::kLbYi}};
}

namespace {

// Query-side artifacts, each computed at most once per query no matter
// how many stages consume it.
struct QueryArtifacts {
  const Sequence* query = nullptr;
  DtwOptions options;

  bool have_feature = false;
  FeatureVector feature;

  bool have_yi_env = false;
  Envelope yi_env;

  bool have_band_env = false;
  BandEnvelope band_env;

  // Shared by every LbKeogh / LbImproved call of the query.
  LbScratch lb_scratch;

  const FeatureVector& Feature() {
    if (!have_feature) {
      feature = ExtractFeature(*query);
      have_feature = true;
    }
    return feature;
  }

  const Envelope& YiEnvelope() {
    if (!have_yi_env) {
      yi_env = ComputeEnvelope(*query);
      have_yi_env = true;
    }
    return yi_env;
  }

  const BandEnvelope& BandEnv() {
    if (!have_band_env) {
      band_env = ComputeBandEnvelope(*query, EnvelopeRadiusFor(options));
      have_band_env = true;
    }
    return band_env;
  }
};

// The stage's lower bound for one candidate, same domain as
// Dtw::Distance. The envelope bounds may stop early once the bound
// exceeds epsilon; the value returned then still exceeds it.
double StageBound(CascadeStage stage, const Sequence& s, double epsilon,
                  QueryArtifacts* qa) {
  switch (stage) {
    case CascadeStage::kFeatureLb:
      return DtwLowerBoundDistance(ExtractFeature(s), qa->Feature());
    case CascadeStage::kLbYi:
      return LbYi(s, *qa->query, qa->YiEnvelope(), qa->options, epsilon);
    case CascadeStage::kLbKeogh:
      return LbKeogh(s, *qa->query, qa->BandEnv(), qa->options, epsilon,
                     &qa->lb_scratch);
    case CascadeStage::kLbImproved:
      return LbImproved(s, *qa->query, qa->BandEnv(), qa->options, epsilon,
                        &qa->lb_scratch);
  }
  return 0.0;
}

}  // namespace

void FilterCascade::RunLbStages(const Sequence& query, double epsilon,
                                std::vector<const Sequence*>* candidates,
                                const CascadePlan& plan,
                                SearchResult* result, Trace* trace) const {
  assert(!query.empty() && epsilon >= 0.0);
  QueryArtifacts qa;
  qa.query = &query;
  qa.options = options_;

  for (const CascadeStage stage : plan.stages) {
    if (candidates->empty()) {
      break;  // nothing left to prune; skip the remaining stages
    }
    const std::string_view name = CascadeStageName(stage);
    StageTimer timer(&result->cost.stages, &result->cost.stages_cpu, trace,
                     name);
    const size_t in = candidates->size();
    size_t kept = 0;
    for (size_t i = 0; i < candidates->size(); ++i) {
      ++result->cost.lb_evals;
      // Prune only on a STRICT excess: a bound exactly at epsilon cannot
      // rule the candidate out under Algorithm 1's `<= epsilon`
      // acceptance (the exact distance may equal the bound).
      if (StageBound(stage, *(*candidates)[i], epsilon, &qa) <= epsilon) {
        (*candidates)[kept++] = (*candidates)[i];
      }
    }
    candidates->resize(kept);
    result->cost.prunes.Record(name, in, in - kept);
  }
  TraceCounter(trace, "lb_evals",
               static_cast<double>(result->cost.lb_evals));
}

void RunExactStage(const Dtw& dtw, const Sequence& query, double epsilon,
                   const std::vector<const Sequence*>& candidates,
                   SearchResult* result, Trace* trace, DtwScratch* scratch) {
  StageTimer timer(&result->cost.stages, &result->cost.stages_cpu, trace,
                   kStageDtwPostfilter);
  const size_t in = candidates.size();
  const size_t matches_before = result->matches.size();
  result->cost.dtw_evals += in;
  DtwScratch local_scratch;
  if (scratch == nullptr) {
    scratch = &local_scratch;
  }
  const PreparedQuery prepared = dtw.Prepare(query);
  for (const Sequence* s : candidates) {
    const DtwResult d =
        dtw.DistanceWithThreshold(*s, prepared, epsilon, scratch);
    result->cost.dtw_cells += d.cells;
    if (d.distance <= epsilon) {
      result->matches.push_back(s->id());
      result->distances.push_back(d.distance);
    }
  }
  result->cost.prunes.Record(
      kStageDtwPostfilter, in,
      in - (result->matches.size() - matches_before));
  TraceCounter(trace, "dtw_cells",
               static_cast<double>(result->cost.dtw_cells));
}

}  // namespace warpindex
