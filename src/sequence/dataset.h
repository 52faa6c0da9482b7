// Dataset: an in-memory collection of sequences plus summary statistics and
// a binary serialization format.
//
// A Dataset is the hand-off point between workload generators and the
// storage engine (storage/sequence_store.h), which lays sequences out in
// pages and charges I/O costs.

#ifndef WARPINDEX_SEQUENCE_DATASET_H_
#define WARPINDEX_SEQUENCE_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sequence/sequence.h"

namespace warpindex {

// Summary statistics over the sequences of a dataset.
struct DatasetStats {
  size_t num_sequences = 0;
  size_t total_elements = 0;
  size_t min_length = 0;
  size_t max_length = 0;
  double avg_length = 0.0;
  // Global element range; the ST-Filter categorizer partitions it.
  double global_min = 0.0;
  double global_max = 0.0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<Sequence> sequences);

  // Appends a sequence; its id is set to its position.
  void Add(Sequence s);

  size_t size() const { return sequences_.size(); }
  bool empty() const { return sequences_.empty(); }

  const Sequence& operator[](size_t i) const { return sequences_[i]; }
  const std::vector<Sequence>& sequences() const { return sequences_; }

  DatasetStats ComputeStats() const;

  // Binary serialization:
  //   magic "WIDS" | u32 version | u64 count | per sequence: u64 len,
  //   doubles.  Little-endian host assumed (checked by magic round-trip in
  //   tests).
  // InvalidArgument, with no file created, when a sequence is empty: the
  // file would hold a row LoadFromFile refuses.
  Status SaveToFile(const std::string& path) const;
  // InvalidArgument for a file that is not a valid dataset: bad magic or
  // version, a count or length the file cannot hold, a truncated or empty
  // row, or a non-finite element (the Sequence input contract). Nothing
  // is allocated for a count before the file is known to hold it.
  static Status LoadFromFile(const std::string& path, Dataset* out);

 private:
  std::vector<Sequence> sequences_;
};

}  // namespace warpindex

#endif  // WARPINDEX_SEQUENCE_DATASET_H_
