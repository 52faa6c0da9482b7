// The paper's two sequential-scan baselines, as stage pipelines over the
// whole database:
//
//   Naive-Scan (Berndt & Clifford [4]; §3.1)  scan, then exact D_tw on
//                                             every row;
//   LB-Scan (Yi, Jagadish & Faloutsos [25]; §3.2)  scan, then the
//                                             O(|S| + |Q|) lower bound
//                                             D_lb (the cascade's lb_yi
//                                             stage), then exact D_tw on
//                                             the rows passing it.
//
// Both refine through the cascade's stages (plan/filter_cascade.h): the
// lower-bound stages of a fixed plan, then RunExactStage. Per the paper's
// §5.1 note the exact stage uses the L_inf time-warping distance, whose
// thresholded evaluation abandons a row once a DP row exceeds epsilon.
//
// Both still read every page of the database: the paper's argument for
// why an index-based method is needed at scale.

#ifndef WARPINDEX_CORE_SCAN_SEARCH_H_
#define WARPINDEX_CORE_SCAN_SEARCH_H_

#include "core/search_method.h"
#include "dtw/dtw.h"
#include "plan/filter_cascade.h"
#include "storage/sequence_store.h"

namespace warpindex {

class ScanSearch : public SearchMethod {
 public:
  // `store` must outlive this object. `lb_yi` selects LB-Scan (plan
  // {lb_yi}); without it the plan is empty: Naive-Scan.
  ScanSearch(const SequenceStore* store, DtwOptions dtw_options, bool lb_yi)
      : store_(store), cascade_(dtw_options) {
    if (lb_yi) {
      plan_.stages.push_back(CascadeStage::kLbYi);
    }
  }

  const char* name() const override {
    return plan_.stages.empty() ? "Naive-Scan" : "LB-Scan";
  }

 protected:
  SearchResult SearchImpl(const Sequence& query, double epsilon,
                          Trace* trace, DtwScratch* scratch) const override;

 private:
  const SequenceStore* store_;
  FilterCascade cascade_;
  CascadePlan plan_;
};

}  // namespace warpindex

#endif  // WARPINDEX_CORE_SCAN_SEARCH_H_
