// Text import/export for datasets, so downstream users can load their own
// corpora: one sequence per line, elements separated by commas and/or
// whitespace; blank lines and lines starting with '#' are ignored.
// (The binary format lives on Dataset itself; this is the interchange
// path.)

#ifndef WARPINDEX_SEQUENCE_DATASET_IO_H_
#define WARPINDEX_SEQUENCE_DATASET_IO_H_

#include <string>

#include "common/status.h"
#include "sequence/dataset.h"

namespace warpindex {

// Parses `path` into `out` (replacing its contents). Fails with
// kInvalidArgument on the first malformed token (message includes the
// line number) and kIoError if the file cannot be read. Empty sequences
// (lines with no values) are rejected.
Status LoadDatasetFromCsv(const std::string& path, Dataset* out);

// Writes one comma-separated line per sequence with round-trip-exact
// formatting (%.17g).
Status SaveDatasetToCsv(const std::string& path, const Dataset& dataset);

// Parses a single line of separated values into a sequence; used by the
// loader and handy for quick tooling. Returns kInvalidArgument on
// malformed input, including a non-finite element (nan, inf, or a value
// that overflows a double): every index predicate assumes finite values.
Status ParseSequenceLine(const std::string& line, Sequence* out);

}  // namespace warpindex

#endif  // WARPINDEX_SEQUENCE_DATASET_IO_H_
