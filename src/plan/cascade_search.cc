#include "plan/cascade_search.h"

#include <utility>

#include "common/timer.h"

namespace warpindex {

std::vector<const Sequence*> TwSimSearchCascade::FilterFetchAndPrune(
    const Sequence& query, double epsilon, SearchResult* result,
    Trace* trace, CascadeObservation* obs) const {
  const CascadePlan plan = planner_.Choose();
  TraceCounter(trace, "cascade_stages",
               static_cast<double>(plan.stages.size()));
  std::vector<const Sequence*> fetched =
      base_->FilterAndFetch(query, epsilon, result, trace);
  cascade_.RunLbStages(query, epsilon, &fetched, plan, result, trace, obs);
  return fetched;
}

SearchResult TwSimSearchCascade::SearchImpl(const Sequence& query,
                                            double epsilon, Trace* trace,
                                            DtwScratch* scratch) const {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  const CascadePlan plan = planner_.Choose();
  TraceCounter(trace, "cascade_stages",
               static_cast<double>(plan.stages.size()));
  std::vector<const Sequence*> fetched =
      base_->FilterAndFetch(query, epsilon, &result, trace);
  CascadeObservation obs;
  cascade_.Run(query, epsilon, std::move(fetched), plan, &result, trace,
               scratch, &obs);
  planner_.Observe(obs);
  result.cost.wall_ms = timer.ElapsedMillis();
  result.cost.cpu_ms = cpu_timer.ElapsedMillis();
  return result;
}

}  // namespace warpindex
