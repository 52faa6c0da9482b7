// The three perfbench workloads. Each runs one closed-loop client in this
// process and fills `out` with the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run). See perfbench/README.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunPaperRange(const RunConfig& config, Output* out);
void RunIngestCascade(const RunConfig& config, Output* out);
void RunWireZipf(const RunConfig& config, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
