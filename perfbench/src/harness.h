// Shared pieces of the perfbench runner: run configuration, latency
// samples, process counters, the closed-loop timing window, trace
// self-time attribution, kernel and codec replays, and the result
// printer.
//
// Every workload runs in its own process with one closed-loop client: the
// next operation starts only when the previous one has returned. The
// untraced run (--trace=0) reports the end-to-end metrics; the traced run
// (--trace=1) replays a fixed operation prefix with a Trace attached and
// reports the per-layer metrics. See perfbench/README.md.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/search_method.h"
#include "core/tw_knn_search.h"
#include "net/json.h"
#include "obs/trace.h"
#include "sequence/dataset.h"
#include "sequence/sequence.h"

namespace perfbench {

using warpindex::JsonValue;
using warpindex::KnnResult;
using warpindex::SearchResult;
using warpindex::Sequence;
using warpindex::Trace;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Short mode for the determinism self-check: small fixed op counts, one
  // setup, a one-op timed window.
  bool quick = false;
  // Scratch directory inside the checkout (saved shard files).
  std::string work_dir;
};

// Deterministic 64-bit mix (splitmix64 finaliser): derives per-operation
// seeds from (run seed, stream, index) without shared generator state.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);

// Uniform double in [0, 1) from a mixed seed.
double Unit(uint64_t mixed);

// Zipfian index sampler over [0, n): P(i) ~ 1 / (i + 1)^skew, inverse CDF
// over a precomputed table; draw i is a pure function of (seed, i), so a
// replayed op prefix sees the same queries. Kept here rather than shared
// with bench/common so the benchmark's inputs cannot change under it.
class Zipf {
 public:
  Zipf(size_t n, double skew);
  size_t At(uint64_t mixed) const;

 private:
  std::vector<double> cdf_;
};

// The paper's random-walk corpus: `rows` walks of `length` elements.
warpindex::Dataset RandomWalks(size_t rows, size_t length, uint64_t seed);

// Latency samples of one operation class, in milliseconds.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  size_t count() const { return ms_.size(); }
  // Nearest-rank percentile, p in (0, 1]; 0 when empty.
  double Percentile(double p) const;
  // Samples strictly beyond the nearest-rank position of `p`.
  size_t Beyond(double p) const;
  double Sum() const;

 private:
  std::vector<double> ms_;
};

// Process CPU seconds (user + system, all threads) from getrusage.
double ProcessCpuSeconds();
// Peak resident set size of this process, MiB.
double PeakRssMiB();

double NowSeconds();

// Pins this process (and every thread it starts afterwards) to the
// highest-numbered CPU it may run on; returns that CPU, or -1 if the
// affinity call failed. Cross-CPU wake-ups between the client, pool,
// router and server threads are the largest source of run-to-run
// variance on a small virtual machine; see perfbench/README.md.
int PinToOneCpu();

// Order-sensitive 64-bit fingerprint of an answer's (id, distance) pairs,
// so the timed window keeps 8 bytes per op instead of whole answers.
uint64_t Fingerprint(const SearchResult& result);
uint64_t Fingerprint(const KnnResult& result);

// Result of one run: the result line plus a detail report.
class Output {
 public:
  // A plain metric.
  void Add(const std::string& name, double value, const std::string& unit);
  // A percentile of `samples`, recorded with its sample count and the
  // number of samples beyond it.
  void AddPercentile(const std::string& name, const Samples& samples,
                     double p);
  // numerator / base, recorded with both; 0 when the base is 0.
  void AddRatio(const std::string& name, double numerator, double base,
                const std::string& unit, const std::string& base_label);
  // Extra facts for the report line (sizes, counts, per-span times).
  JsonValue& info() { return info_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints the report line, then the result line (last line of stdout).
  // The result line carries exactly the end-to-end metrics (untraced)
  // or the per-layer metrics (traced); per-layer metrics a workload has
  // no layer for read 0.
  void Print(const RunConfig& config) const;

 private:
  JsonValue metrics_ = JsonValue::Object();
  JsonValue report_ = JsonValue::Object();
  JsonValue info_ = JsonValue::Object();
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The metric lists BENCHMARK.json declares, in its order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Median of a small vector (copy).
double Median(std::vector<double> values);

// ---- Closed-loop timed window.

// Runs op(i) for i = first, first + 1, ... until `seconds` of wall time
// have elapsed (at least one op). Returns the number of ops run and fills
// wall/cpu seconds over the window.
struct Window {
  size_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Window RunWindow(size_t first, double seconds,
                 const std::function<void(size_t)>& op);

// Adds the end-to-end metrics of an untraced run, plus failed_op_ratio
// for the report line; `setups` are the set-up times of the run.
void AddEndToEnd(const Samples& range_ms, const Samples& knn_ms,
                 const Window& window, const std::vector<double>& setups,
                 Output* out);

// ---- Trace attribution.

struct TraceTotals {
  // Self time per span name, summed over traces (ms).
  std::map<std::string, double> self_ms;
  // Per trace: operation wall minus the part of [0, wall] covered by the
  // root spans (ms), summed over traces.
  double unattributed_ms = 0.0;
  // Sum over traces of (wall - the longest "shard" span), for traces that
  // have shard spans, and how many traces had them.
  double fanout_tax_ms = 0.0;
  size_t fanout_traces = 0;
  // "shard" spans seen.
  uint64_t shard_spans = 0;

  // Folds one operation's trace; `wall_ms` is the client-measured time
  // of the operation, whose start is the trace's origin.
  void Fold(const Trace& trace, double wall_ms, double engine_wall_ms);
  JsonValue SelfJson(size_t ops) const;
};

// ---- Kernel replays on a workload's own (query, candidate) pairs.

struct KernelPair {
  const Sequence* query = nullptr;
  const Sequence* candidate = nullptr;
  double epsilon = 0.0;
};

// Replays full-width DTW, a Sakoe-Chiba band of `band` cells, LB_Keogh and
// LB_Improved (same band) on `pairs`, each thresholded at the pair's
// epsilon like the serving path, repeating each pass until at least
// `min_ms` of kernel time has been measured; adds the dtw.*_ns_per_*
// metrics to `out`.
void ReplayKernels(const std::vector<KernelPair>& pairs, int band,
                   double min_ms, Output* out);

// ---- Wire codec replay.

struct CodecTotals {
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  double codec_ms = 0.0;
};

// Request bodies as the router builds them; responses as the shard
// server builds them, with the cost's timing fields zeroed so byte counts
// are exact. Encode (Render) and decode (Parse + typed decode) are timed.
void CodecRange(const std::vector<uint32_t>& shards, const char* method,
                double epsilon, const Sequence& query,
                const SearchResult& answer, CodecTotals* totals);
void CodecKnn(const std::vector<uint32_t>& shards, size_t k,
              const Sequence& query, const KnnResult& answer,
              CodecTotals* totals);

// ---- Answer comparison.

// True iff both answers hold the same (id, distance) pairs, bit for bit,
// after sorting by id.
bool SameRange(SearchResult a, SearchResult b);
bool SameKnn(const KnnResult& a, const KnnResult& b);

// Per-layer counters folded from SearchCost, shared by all workloads.
struct CostTotals {
  uint64_t dtw_cells = 0;
  uint64_t dtw_evals = 0;
  uint64_t index_nodes = 0;
  uint64_t pages = 0;
  double postfilter_ms = 0.0;
  double fetch_ms = 0.0;
  double lb_ms = 0.0;
  // Range ops only: candidates, matches and live rows at query time.
  uint64_t candidates = 0;
  uint64_t matches = 0;
  uint64_t live_rows = 0;
  // Cascade pass counts: in / kept per stage.
  std::map<std::string, std::pair<uint64_t, uint64_t>> stage_in_kept;

  void Fold(const warpindex::SearchCost& cost);
  void FoldRange(const SearchResult& result, size_t live_rows);
};

// Emits the per-layer metrics every workload shares (dtw, rtree,
// storage, core, plan) from `totals` over `ops` operations.
void AddCostMetrics(const CostTotals& totals, size_t ops, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
