// perfbench_runner: runs one workload and prints its result line.
//
//   perfbench_runner --workload=paper-range --seed=1 --seconds=45 --trace=0
//                    --work_dir=.bench_build/work [--quick]
//
// perfbench/run.py builds this binary and translates the benchmark
// --workload/--seed/--seconds/--trace arguments; see perfbench/README.md.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  bool quick = false;
  std::string work_dir = ".bench_build/work";
  warpindex::FlagSet flags("perfbench_runner");
  flags.AddString("workload", &workload,
                  "paper-range | ingest-cascade | wire-zipf");
  flags.AddInt64("seed", &seed, "input seed");
  flags.AddDouble("seconds", &seconds, "timed window length");
  flags.AddInt64("trace", &trace, "1 = traced run (per-layer metrics)");
  flags.AddBool("quick", &quick, "short fixed-count mode (self-check)");
  flags.AddString("work_dir", &work_dir, "scratch directory for saved files");
  if (!flags.Parse(argc, argv) || seconds <= 0.0 || seed < 0 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = static_cast<uint64_t>(seed);
  // The short mode times a single op: it checks shapes and counts, not
  // speed.
  config.seconds = quick ? 0.0 : seconds;
  config.trace = trace == 1;
  config.quick = quick;
  config.work_dir = work_dir;

  perfbench::Output out;
  const int cpu = perfbench::PinToOneCpu();
  out.info().Set("pinned_cpu", warpindex::JsonValue::Int(cpu));
  if (workload == "paper-range") {
    perfbench::RunPaperRange(config, &out);
  } else if (workload == "ingest-cascade") {
    perfbench::RunIngestCascade(config, &out);
  } else if (workload == "wire-zipf") {
    perfbench::RunWireZipf(config, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  out.Print(config);
  return 0;
}
