// paper-range: the paper's Algorithm 1 on one Engine in the paper's
// configuration (STR bulk load, 1 KB pages, L_inf base distance, full
// DTW, no cache). Uniform perturbed-copy queries, no repeats: 80% range
// queries at epsilon, 20% k-NN. The DTW kernel, the R-tree and the store
// do the work; fan-out, net, cache and ingest do none, so this workload
// is the control for changes to those layers.

#include <algorithm>
#include <memory>

#include "common/timer.h"
#include "core/engine.h"
#include "sequence/feature.h"
#include "sequence/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warpindex::Dataset;
using warpindex::Engine;
using warpindex::EngineOptions;
using warpindex::MethodKind;
using warpindex::SequenceId;

constexpr size_t kRows = 20000;
constexpr size_t kLength = 256;
constexpr double kEpsilon = 0.2;
constexpr double kKnnShare = 0.2;
constexpr size_t kK = 10;
constexpr size_t kWarmupOps = 5;
constexpr int kSetups = 5;
constexpr size_t kTraceOps = 1500;
constexpr size_t kQuickOps = 120;
// Every kCheckEvery-th timed op (seeded offset) is checked against the
// scan oracle, up to kMaxChecks.
constexpr uint64_t kCheckEvery = 100;
constexpr size_t kMaxChecks = 8;
// Kernel replay: (query, candidate) pairs kept from the traced pass.
constexpr size_t kMaxPairs = 4000;
constexpr int kBand = static_cast<int>(kLength / 10);

struct Op {
  bool knn = false;
  Sequence query;
};

// The warm-up prefix is range queries only, so set-up time does not swing
// with how many 20-60 ms k-NN queries a seed puts into it.
Op MakeOp(const Dataset& data, uint64_t seed, size_t i) {
  Op op;
  op.knn = i >= kWarmupOps && Unit(Mix(seed, 1, i)) < kKnnShare;
  const size_t pick = static_cast<size_t>(Mix(seed, 2, i) % data.size());
  op.query = warpindex::PerturbSequence(data[pick], Mix(seed, 3, i));
  return op;
}

std::unique_ptr<Engine> Build(uint64_t seed) {
  return std::make_unique<Engine>(RandomWalks(kRows, kLength, seed),
                                  EngineOptions{});
}

struct Answer {
  SearchResult range;
  KnnResult knn;
};

Answer RunOp(const Engine& engine, const Op& op, Trace* trace,
             warpindex::DtwScratch* scratch) {
  Answer answer;
  if (op.knn) {
    answer.knn = engine.SearchKnn(op.query, kK, trace);
  } else {
    answer.range = engine.SearchWith(MethodKind::kTwSimSearch, op.query,
                                     kEpsilon, trace, scratch);
  }
  return answer;
}

// Scan oracle: exact thresholded DTW over every live row. For k-NN the
// threshold is the answer's own k-th distance; once the reported
// distances are verified, every true neighbour lies within it.
bool CheckAgainstScan(const Engine& engine, const Op& op,
                      const Answer& answer) {
  const warpindex::Dtw dtw(engine.options().dtw);
  warpindex::DtwScratch scratch;
  const double threshold =
      op.knn ? (answer.knn.neighbors.size() == kK
                    ? answer.knn.neighbors.back().distance
                    : warpindex::kInfiniteDistance)
             : kEpsilon;
  std::vector<warpindex::KnnMatch> within;
  const Dataset& data = engine.dataset();
  for (size_t id = 0; id < data.size(); ++id) {
    const double d =
        dtw.DistanceWithThreshold(data[id], op.query, threshold, &scratch)
            .distance;
    if (d <= threshold) {
      within.push_back({static_cast<SequenceId>(id), d});
    }
  }
  if (!op.knn) {
    SearchResult scan;
    for (const warpindex::KnnMatch& m : within) {
      scan.matches.push_back(m.id);
      scan.distances.push_back(m.distance);
    }
    return SameRange(scan, answer.range);
  }
  std::sort(within.begin(), within.end(), warpindex::KnnMatchOrder);
  if (within.size() > kK) {
    within.resize(kK);
  }
  KnnResult scan;
  scan.neighbors = within;
  return SameKnn(scan, answer.knn);
}

void AddSizes(Output* out) {
  JsonValue& info = out->info();
  info.Set("corpus_rows", JsonValue::Int(kRows));
  info.Set("corpus_length", JsonValue::Int(kLength));
  info.Set("epsilon", JsonValue::Double(kEpsilon));
  info.Set("knn_k", JsonValue::Int(kK));
  info.Set("knn_share", JsonValue::Double(kKnnShare));
  info.Set("distinct_queries", JsonValue::Str("every op (no repeats)"));
  info.Set("cache", JsonValue::Str("none"));
  info.Set("client_threads", JsonValue::Int(1));
  info.Set("worker_threads", JsonValue::Int(0));
  info.Set("connections", JsonValue::Int(0));
  info.Set("warmup_ops", JsonValue::Int(kWarmupOps));
}

void RunUntraced(const RunConfig& config, Output* out) {
  std::vector<double> setups;
  JsonValue phases = JsonValue::Object();  // of the last setup, seconds
  std::unique_ptr<Engine> engine;
  warpindex::DtwScratch scratch;
  const int setups_wanted = config.quick ? 1 : kSetups;
  for (int r = 0; r < setups_wanted; ++r) {
    engine.reset();
    const double t0 = NowSeconds();
    engine = Build(config.seed);
    const double t1 = NowSeconds();
    for (size_t i = 0; i < kWarmupOps; ++i) {
      RunOp(*engine, MakeOp(engine->dataset(), config.seed, i), nullptr,
            &scratch);
    }
    const double t2 = NowSeconds();
    setups.push_back(t2 - t0);
    phases.Set("build", JsonValue::Double(t1 - t0));
    phases.Set("warmup", JsonValue::Double(t2 - t1));
  }

  Samples range_ms;
  Samples knn_ms;
  std::vector<std::pair<size_t, Answer>> kept;
  const uint64_t check_offset = Mix(config.seed, 4, 0) % kCheckEvery;
  const Window window = RunWindow(
      kWarmupOps, config.seconds, [&](size_t i) {
        const Op op = MakeOp(engine->dataset(), config.seed, i);
        const double t0 = NowSeconds();
        Answer answer = RunOp(*engine, op, nullptr, &scratch);
        const double ms = (NowSeconds() - t0) * 1e3;
        (op.knn ? knn_ms : range_ms).Add(ms);
        if (i % kCheckEvery == check_offset && kept.size() < kMaxChecks) {
          kept.emplace_back(i, std::move(answer));
        }
      });

  out->attempted = window.ops;
  for (const auto& [i, answer] : kept) {
    if (!CheckAgainstScan(*engine,
                          MakeOp(engine->dataset(), config.seed, i), answer)) {
      ++out->failed;
    }
  }
  AddEndToEnd(range_ms, knn_ms, window, setups, out);
  out->info().Set("oracle_checks", JsonValue::Int(kept.size()));
  out->info().Set("setup_phases_s", phases);
}

void RunTraced(const RunConfig& config, Output* out) {
  const std::unique_ptr<Engine> engine = Build(config.seed);
  const Dataset& data = engine->dataset();
  warpindex::DtwScratch scratch;
  for (size_t i = 0; i < kWarmupOps; ++i) {
    RunOp(*engine, MakeOp(data, config.seed, i), nullptr, &scratch);
  }
  const size_t n = config.quick ? kQuickOps : kTraceOps;
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ops.push_back(MakeOp(data, config.seed, kWarmupOps + i));
  }

  // Pass 1, untraced: the baseline for the tracing overhead.
  Samples untraced_range;
  for (const Op& op : ops) {
    const double t0 = NowSeconds();
    RunOp(*engine, op, nullptr, &scratch);
    if (!op.knn) {
      untraced_range.Add((NowSeconds() - t0) * 1e3);
    }
  }

  // Pass 2, traced: counters, span self times, decomposed replay.
  Samples traced_range;
  CostTotals costs;
  TraceTotals spans;
  CodecTotals codec;
  std::vector<KernelPair> pairs;
  double rtree_ms = 0.0;
  size_t range_ops = 0;
  for (const Op& op : ops) {
    Trace trace;
    const double t0 = NowSeconds();
    const Answer answer = RunOp(*engine, op, &trace, &scratch);
    const double ms = (NowSeconds() - t0) * 1e3;
    const warpindex::SearchCost& cost =
        op.knn ? answer.knn.cost : answer.range.cost;
    spans.Fold(trace, ms, cost.wall_ms);
    costs.Fold(cost);
    if (op.knn) {
      CodecKnn({0}, kK, op.query, answer.knn, &codec);
      continue;
    }
    ++range_ops;
    traced_range.Add(ms);
    costs.FoldRange(answer.range, engine->live_size());
    CodecRange({0}, warpindex::MethodKindName(MethodKind::kTwSimSearch),
               kEpsilon, op.query, answer.range, &codec);

    // Algorithm 1 through the public layer calls: index range query,
    // store fetch, exact DTW. Must equal Engine::SearchWith.
    warpindex::WallTimer rtree_timer;
    const std::vector<SequenceId> candidates =
        engine->feature_index().RangeQuery(warpindex::ExtractFeature(op.query),
                                           kEpsilon);
    rtree_ms += rtree_timer.ElapsedMillis();
    SearchResult decomposed;
    const warpindex::Dtw dtw(engine->options().dtw);
    for (const SequenceId id : candidates) {
      const Sequence s = engine->store().Fetch(id);
      const double d =
          dtw.DistanceWithThreshold(s, op.query, kEpsilon, &scratch).distance;
      if (d <= kEpsilon) {
        decomposed.matches.push_back(id);
        decomposed.distances.push_back(d);
      }
      if (pairs.size() < kMaxPairs) {
        pairs.push_back({&op.query, &data[static_cast<size_t>(id)], kEpsilon});
      }
    }
    if (candidates.size() != answer.range.num_candidates ||
        !SameRange(decomposed, answer.range)) {
      ++out->failed;
    }
  }
  out->attempted = ops.size();

  ReplayKernels(pairs, kBand, config.quick ? 5.0 : 200.0, out);
  AddCostMetrics(costs, ops.size(), out);
  const double nops = static_cast<double>(ops.size());
  out->AddRatio("rtree.range_ms_per_op", rtree_ms,
                static_cast<double>(range_ops), "ms", "range ops");
  out->AddRatio("core.unattributed_ms_per_op", spans.unattributed_ms, nops,
                "ms", "ops");
  out->AddRatio("net.request_bytes_per_op",
                static_cast<double>(codec.request_bytes), nops, "bytes",
                "ops (one body per op)");
  out->AddRatio("net.response_bytes_per_op",
                static_cast<double>(codec.response_bytes), nops, "bytes",
                "ops (one body per op)");
  out->AddRatio("net.codec_ms_per_op", codec.codec_ms, nops, "ms", "ops");
  out->Add("obs.trace_overhead_pct",
           (traced_range.Percentile(0.5) / untraced_range.Percentile(0.5) -
            1.0) * 100.0,
           "%");
  out->AddRatio("failed_op_ratio", static_cast<double>(out->failed), nops,
                "1", "ops");
  out->info().Set("traced_ops", JsonValue::Int(ops.size()));
  out->info().Set("span_self_ms_per_op", spans.SelfJson(ops.size()));
}

}  // namespace

void RunPaperRange(const RunConfig& config, Output* out) {
  AddSizes(out);
  if (config.trace) {
    RunTraced(config, out);
  } else {
    RunUntraced(config, out);
  }
}

}  // namespace perfbench
