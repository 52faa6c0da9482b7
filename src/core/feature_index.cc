#include "core/feature_index.h"

#include <cassert>

namespace warpindex {

FeatureIndex::FeatureIndex(RTree tree) : tree_(std::move(tree)) {
  assert(tree_.dims() == kFeatureDims);
}

Point FeatureIndex::FeatureToPoint(const FeatureVector& f) {
  const auto arr = f.AsPoint();
  return Point::FromArray(arr.data(), kFeatureDims);
}

FeatureIndex::FeatureIndex(const Dataset& dataset,
                           FeatureIndexOptions options)
    : tree_([&] {
        if (!options.bulk_load) {
          return RTree(kFeatureDims, options.rtree);
        }
        EntryArray leaves(kFeatureDims);
        leaves.Reserve(dataset.size());
        for (const Sequence& s : dataset.sequences()) {
          leaves.Push(Rect::FromPoint(FeatureToPoint(ExtractFeature(s))),
                      s.id());
        }
        return BulkLoadStr(kFeatureDims, options.rtree, std::move(leaves));
      }()) {
  if (!options.bulk_load) {
    for (const Sequence& s : dataset.sequences()) {
      tree_.Insert(Rect::FromPoint(FeatureToPoint(ExtractFeature(s))),
                   s.id());
    }
  }
}

std::vector<SequenceId> FeatureIndex::RangeQuery(
    const FeatureVector& query_feature, double epsilon,
    RTreeQueryStats* stats, Trace* trace) const {
  const Rect range =
      Rect::SquareAround(FeatureToPoint(query_feature), epsilon);
  return tree_.RangeSearch(range, stats, trace);
}

void FeatureIndex::Insert(SequenceId id, const FeatureVector& feature) {
  tree_.Insert(Rect::FromPoint(FeatureToPoint(feature)), id);
}

bool FeatureIndex::Remove(SequenceId id, const FeatureVector& feature) {
  return tree_.Delete(Rect::FromPoint(FeatureToPoint(feature)), id);
}

}  // namespace warpindex
