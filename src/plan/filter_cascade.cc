#include "plan/filter_cascade.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/timer.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_yi.h"
#include "obs/stage_timings.h"
#include "sequence/feature.h"
#include "shard/scatter_gather.h"

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
      return LbYiWithEnvelopes(s, ComputeEnvelope(s), *qa->query,
                               qa->YiEnvelope(), qa->options);
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
                                SearchResult* result, Trace* trace,
                                CascadeObservation* obs) const {
  assert(!query.empty() && epsilon >= 0.0);
  QueryArtifacts qa;
  qa.query = &query;
  qa.options = options_;

  for (const CascadeStage stage : plan.stages) {
    if (candidates->empty()) {
      break;  // nothing left to prune; skip the remaining stages
    }
    const std::string_view name = CascadeStageName(stage);
    ScopedSpan span(trace, name);
    WallTimer timer;
    ThreadCpuTimer cpu_timer;
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
    const double ms = timer.ElapsedMillis();
    result->cost.stages.Add(name, ms);
    result->cost.stages_cpu.Add(name, cpu_timer.ElapsedMillis());
    result->cost.prunes.Record(name, in, in - kept);
    if (obs != nullptr) {
      StageObservation& so = obs->at(stage);
      so.in += in;
      so.pruned += in - kept;
      so.ms += ms;
    }
  }
  TraceCounter(trace, "lb_evals",
               static_cast<double>(result->cost.lb_evals));
}

namespace {

// Thresholded D_tw over candidates[begin, end): appends the matches and
// their distances and returns the DP cells computed.
uint64_t ExactFilter(const Dtw& dtw, const PreparedQuery& query,
                     double epsilon,
                     const std::vector<const Sequence*>& candidates,
                     size_t begin, size_t end, DtwScratch* scratch,
                     std::vector<SequenceId>* matches,
                     std::vector<double>* distances) {
  uint64_t cells = 0;
  for (size_t i = begin; i < end; ++i) {
    const DtwResult d =
        dtw.DistanceWithThreshold(*candidates[i], query, epsilon, scratch);
    cells += d.cells;
    if (d.distance <= epsilon) {
      matches->push_back(candidates[i]->id());
      distances->push_back(d.distance);
    }
  }
  return cells;
}

}  // namespace

void RunExactStage(const Dtw& dtw, const Sequence& query, double epsilon,
                   const std::vector<const Sequence*>& candidates,
                   SearchResult* result, Trace* trace, DtwScratch* scratch,
                   StageObservation* obs, const PostfilterFanOut* fan_out) {
  ScopedSpan span(trace, kStageDtwPostfilter);
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  const size_t in = candidates.size();
  const size_t matches_before = result->matches.size();
  result->cost.dtw_evals += in;
  double cpu_ms = 0.0;
  // Prepared once; the chunks of a fan-out share it read-only.
  const PreparedQuery prepared = dtw.Prepare(query);
  if (fan_out == nullptr) {
    DtwScratch local_scratch;
    result->cost.dtw_cells += ExactFilter(
        dtw, prepared, epsilon, candidates, 0, in,
        scratch != nullptr ? scratch : &local_scratch, &result->matches,
        &result->distances);
    cpu_ms = cpu_timer.ElapsedMillis();
  } else {
    // Outputs are indexed by chunk, so they merge in candidate order; a
    // single chunk runs inline on the caller.
    struct ChunkOut {
      std::vector<SequenceId> matches;
      std::vector<double> distances;
      uint64_t cells = 0;
      double cpu_ms = 0.0;  // thread CPU of the one thread that ran it
    };
    const size_t chunk = std::max<size_t>(1, fan_out->chunk);
    std::vector<ChunkOut> chunks((in + chunk - 1) / chunk);
    ThreadCpuTimer caller_cpu;
    fan_out->scatter->Run(chunks.size(), [&](size_t c) {
      ThreadCpuTimer chunk_cpu;
      DtwScratch chunk_scratch;
      ChunkOut& out = chunks[c];
      out.cells = ExactFilter(dtw, prepared, epsilon, candidates, c * chunk,
                              std::min(in, (c + 1) * chunk), &chunk_scratch,
                              &out.matches, &out.distances);
      out.cpu_ms = chunk_cpu.ElapsedMillis();
    });
    const double caller_cpu_ms = caller_cpu.ElapsedMillis();
    for (const ChunkOut& out : chunks) {
      result->cost.dtw_cells += out.cells;
      cpu_ms += out.cpu_ms;
      result->matches.insert(result->matches.end(), out.matches.begin(),
                             out.matches.end());
      result->distances.insert(result->distances.end(),
                               out.distances.begin(), out.distances.end());
    }
    // The caller's own chunk share is already inside its CPU reading.
    result->cost.cpu_ms += std::max(0.0, cpu_ms - caller_cpu_ms);
  }
  const size_t pruned = in - (result->matches.size() - matches_before);
  const double ms = timer.ElapsedMillis();
  result->cost.stages.Add(kStageDtwPostfilter, ms);
  result->cost.stages_cpu.Add(kStageDtwPostfilter, cpu_ms);
  result->cost.prunes.Record(kStageDtwPostfilter, in, pruned);
  if (obs != nullptr) {
    obs->in += in;
    obs->pruned += pruned;
    obs->ms += ms;
  }
  TraceCounter(trace, "dtw_cells",
               static_cast<double>(result->cost.dtw_cells));
}

}  // namespace warpindex
