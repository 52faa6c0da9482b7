#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "dtw/dtw.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_keogh.h"
#include "net/serialize.h"
#include "obs/stage_timings.h"
#include "sequence/random_walk_generator.h"

namespace perfbench {

using warpindex::Dtw;
using warpindex::DtwOptions;
using warpindex::DtwResult;
using warpindex::DtwScratch;

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Unit(uint64_t mixed) {
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

Zipf::Zipf(size_t n, double skew) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
  cdf_.back() = 1.0;
}

size_t Zipf::At(uint64_t mixed) const {
  const double u = Unit(mixed);
  return static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
}

warpindex::Dataset RandomWalks(size_t rows, size_t length, uint64_t seed) {
  warpindex::RandomWalkOptions options;
  options.num_sequences = rows;
  options.min_length = length;
  options.max_length = length;
  options.seed = seed;
  return warpindex::GenerateRandomWalkDataset(options);
}

double Samples::Percentile(double p) const {
  if (ms_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = ms_;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  const size_t index = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sorted.begin(), sorted.begin() + index, sorted.end());
  return sorted[index];
}

size_t Samples::Beyond(double p) const {
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(ms_.size())));
  return ms_.size() - std::min(ms_.size(), std::max<size_t>(rank, 1));
}

double Samples::Sum() const {
  double total = 0.0;
  for (const double v : ms_) {
    total += v;
  }
  return total;
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu = c;
    }
  }
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

namespace {

uint64_t FoldBits(uint64_t h, uint64_t v) {
  return Mix(h, v, 0x5bd1e995);
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t Fingerprint(const SearchResult& result) {
  SearchResult canonical = result;
  warpindex::CanonicalizeMatchOrder(&canonical);
  uint64_t h = FoldBits(1, canonical.matches.size());
  for (size_t i = 0; i < canonical.matches.size(); ++i) {
    h = FoldBits(h, static_cast<uint64_t>(canonical.matches[i]));
    h = FoldBits(h, i < canonical.distances.size()
                        ? DoubleBits(canonical.distances[i])
                        : 0);
  }
  return h;
}

uint64_t Fingerprint(const KnnResult& result) {
  uint64_t h = FoldBits(2, result.neighbors.size());
  for (const warpindex::KnnMatch& m : result.neighbors) {
    h = FoldBits(h, static_cast<uint64_t>(m.id));
    h = FoldBits(h, DoubleBits(m.distance));
  }
  return h;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

JsonValue ValueUnit(double value, const std::string& unit) {
  JsonValue v = JsonValue::Object();
  v.Set("value", JsonValue::Double(value));
  v.Set("unit", JsonValue::Str(unit));
  return v;
}

}  // namespace

void Output::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.Set(name, ValueUnit(value, unit));
  report_.Set(name, ValueUnit(value, unit));
}

void Output::AddPercentile(const std::string& name, const Samples& samples,
                           double p) {
  const double value = samples.Percentile(p);
  metrics_.Set(name, ValueUnit(value, "ms"));
  JsonValue row = ValueUnit(value, "ms");
  row.Set("samples", JsonValue::Int(static_cast<int64_t>(samples.count())));
  row.Set("beyond", JsonValue::Int(static_cast<int64_t>(samples.Beyond(p))));
  report_.Set(name, std::move(row));
}

void Output::AddRatio(const std::string& name, double numerator, double base,
                      const std::string& unit, const std::string& base_label) {
  const double value = base > 0.0 ? numerator / base : 0.0;
  metrics_.Set(name, ValueUnit(value, unit));
  JsonValue row = ValueUnit(value, unit);
  row.Set("numerator", JsonValue::Double(numerator));
  row.Set("base", JsonValue::Double(base));
  row.Set("base_is", JsonValue::Str(base_label));
  report_.Set(name, std::move(row));
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"range_p50_ms", "ms"}, {"range_p99_ms", "ms"},
      {"knn_p50_ms", "ms"},   {"knn_p95_ms", "ms"},
      {"ops_per_s", "1/s"},   {"cpu_ms_per_op", "ms"},
      {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"dtw.cells_per_op", "count"},
      {"dtw.evals_per_op", "count"},
      {"dtw.full_ns_per_cell", "ns"},
      {"dtw.banded_ns_per_cell", "ns"},
      {"dtw.lb_keogh_ns_per_elem", "ns"},
      {"dtw.lb_improved_ns_per_elem", "ns"},
      {"dtw.postfilter_ms_per_op", "ms"},
      {"rtree.nodes_per_op", "count"},
      {"rtree.range_ms_per_op", "ms"},
      {"rtree.candidate_ratio", "1"},
      {"storage.pages_per_op", "count"},
      {"storage.fetch_ms_per_op", "ms"},
      {"core.matches_per_candidate", "1"},
      {"core.unattributed_ms_per_op", "ms"},
      {"plan.feature_lb_pass_rate", "1"},
      {"plan.lb_keogh_pass_rate", "1"},
      {"plan.lb_improved_pass_rate", "1"},
      {"plan.lb_ms_per_op", "ms"},
      {"exec.wait_ms_per_op", "ms"},
      {"shard.shards_searched_per_op", "count"},
      {"shard.fanout_tax_ms_per_op", "ms"},
      {"ingest.write_p50_ms", "ms"},
      {"ingest.write_p99_ms", "ms"},
      {"ingest.insert_ms_mean", "ms"},
      {"ingest.compactions", "count"},
      {"ingest.compact_ms_mean", "ms"},
      {"ingest.rows_rebuilt_per_row_written", "1"},
      {"ingest.delta_rows_mean", "count"},
      {"net.subrequests_per_op", "count"},
      {"net.retries", "count"},
      {"net.hedges", "count"},
      {"net.failed_subrequests", "count"},
      {"net.request_bytes_per_op", "bytes"},
      {"net.response_bytes_per_op", "bytes"},
      {"net.codec_ms_per_op", "ms"},
      {"net.tax_ms_per_op", "ms"},
      {"cache.hit_ratio", "1"},
      {"cache.hit_ms_mean", "ms"},
      {"cache.evictions_per_op", "count"},
      {"cache.invalidations_per_write", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"failed_op_ratio", "1"},
  };
  return kMetrics;
}

void Output::Print(const RunConfig& config) const {
  JsonValue report = JsonValue::Object();
  report.Set("workload", JsonValue::Str(config.workload));
  report.Set("seed", JsonValue::Int(static_cast<int64_t>(config.seed)));
  report.Set("mode", JsonValue::Str(config.trace ? "traced" : "untraced"));
  report.Set("info", info_);
  report.Set("metrics", report_);
  JsonValue line = JsonValue::Object();
  line.Set("report", std::move(report));
  std::printf("%s\n", line.Render().c_str());

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(failed == 0));
  result.Set("attempted", JsonValue::Int(static_cast<int64_t>(attempted)));
  result.Set("failed", JsonValue::Int(static_cast<int64_t>(failed)));
  JsonValue metrics = JsonValue::Object();
  for (const MetricSpec& spec :
       config.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const JsonValue* measured = metrics_.Find(spec.name);
    if (measured == nullptr && !config.trace) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      std::abort();
    }
    if (measured != nullptr &&
        measured->GetString("unit", "") != spec.unit) {
      std::fprintf(stderr, "metric %s has unit %s, expected %s\n", spec.name,
                   measured->GetString("unit", "").c_str(), spec.unit);
      std::abort();
    }
    metrics.Set(spec.name,
                measured != nullptr ? *measured : ValueUnit(0.0, spec.unit));
  }
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Render().c_str());
  std::fflush(stdout);
}

Window RunWindow(size_t first, double seconds,
                 const std::function<void(size_t)>& op) {
  Window window;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  double now = t0;
  size_t i = first;
  do {
    op(i++);
    ++window.ops;
    now = NowSeconds();
  } while (now - t0 < seconds);
  window.wall_s = now - t0;
  window.cpu_s = ProcessCpuSeconds() - cpu0;
  return window;
}

void AddEndToEnd(const Samples& range_ms, const Samples& knn_ms,
                 const Window& window, const std::vector<double>& setups,
                 Output* out) {
  out->AddPercentile("range_p50_ms", range_ms, 0.50);
  out->AddPercentile("range_p99_ms", range_ms, 0.99);
  out->AddPercentile("knn_p50_ms", knn_ms, 0.50);
  out->AddPercentile("knn_p95_ms", knn_ms, 0.95);
  out->AddRatio("ops_per_s", static_cast<double>(window.ops), window.wall_s,
                "1/s", "window seconds");
  out->AddRatio("cpu_ms_per_op", window.cpu_s * 1e3,
                static_cast<double>(window.ops), "ms", "ops");
  out->Add("setup_s", Median(setups), "s");
  out->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  out->AddRatio("failed_op_ratio", static_cast<double>(out->failed),
                static_cast<double>(out->attempted), "1", "ops");
  out->info().Set("setup_repeats", JsonValue::Int(setups.size()));
}

namespace {

using Interval = std::pair<double, double>;

// Length of the union of `intervals` clipped to [lo, hi].
double Covered(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (const auto& [start, end] : intervals) {
    const double a = std::max(start, cursor);
    const double b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

void TraceTotals::Fold(const Trace& trace, double wall_ms,
                       double engine_wall_ms) {
  const std::vector<warpindex::TraceSpan>& spans = trace.spans();
  std::vector<std::vector<Interval>> children(spans.size());
  std::vector<Interval> roots;
  double longest_shard = -1.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const warpindex::TraceSpan& span = spans[i];
    const Interval interval{span.start_ms, span.start_ms + span.duration_ms};
    if (span.parent < 0) {
      roots.push_back(interval);
    } else {
      children[static_cast<size_t>(span.parent)].push_back(interval);
    }
    if (span.name == "shard") {
      ++shard_spans;
      longest_shard = std::max(longest_shard, span.duration_ms);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const warpindex::TraceSpan& span = spans[i];
    self_ms[span.name] +=
        span.duration_ms - Covered(children[i], span.start_ms,
                                   span.start_ms + span.duration_ms);
  }
  unattributed_ms += wall_ms - Covered(roots, 0.0, wall_ms);
  if (longest_shard >= 0.0) {
    fanout_tax_ms += engine_wall_ms - longest_shard;
    ++fanout_traces;
  }
}

JsonValue TraceTotals::SelfJson(size_t ops) const {
  JsonValue json = JsonValue::Object();
  for (const auto& [name, ms] : self_ms) {
    json.Set(name, JsonValue::Double(ops > 0 ? ms / static_cast<double>(ops)
                                             : 0.0));
  }
  return json;
}

void ReplayKernels(const std::vector<KernelPair>& pairs, int band,
                   double min_ms, Output* out) {
  out->info().Set("kernel_pairs", JsonValue::Int(pairs.size()));
  out->info().Set("kernel_band", JsonValue::Int(band));
  if (pairs.empty()) {
    return;
  }
  DtwOptions banded_options = DtwOptions::Linf();
  banded_options.band = band;
  const Dtw full(DtwOptions::Linf());
  const Dtw banded(banded_options);
  // One envelope per distinct query, looked up before any timing.
  std::unordered_map<const Sequence*, warpindex::BandEnvelope> envelopes;
  std::vector<const warpindex::BandEnvelope*> envelope_of;
  envelope_of.reserve(pairs.size());
  for (const KernelPair& pair : pairs) {
    auto it = envelopes.find(pair.query);
    if (it == envelopes.end()) {
      it = envelopes
               .emplace(pair.query,
                        warpindex::ComputeBandEnvelope(
                            *pair.query, static_cast<size_t>(band)))
               .first;
    }
    envelope_of.push_back(&it->second);
  }
  DtwScratch scratch;
  // Runs `pass` (one sweep over every pair, returning its work units)
  // until min_ms has elapsed; returns ns per unit.
  const auto measure = [&](const std::function<uint64_t()>& pass) {
    double elapsed_ms = 0.0;
    uint64_t units = 0;
    do {
      const auto t0 = std::chrono::steady_clock::now();
      const uint64_t done = pass();
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      units += done;
    } while (elapsed_ms < min_ms);
    return units > 0 ? elapsed_ms * 1e6 / static_cast<double>(units) : 0.0;
  };
  volatile double sink = 0.0;
  out->Add("dtw.full_ns_per_cell", measure(
      [&]() {
        uint64_t cells = 0;
        for (const KernelPair& pair : pairs) {
          const DtwResult r = full.DistanceWithThreshold(
              *pair.candidate, *pair.query, pair.epsilon, &scratch);
          cells += r.cells;
          sink = sink + r.distance;
        }
        return cells;
      }), "ns");
  out->Add("dtw.banded_ns_per_cell", measure(
      [&]() {
        uint64_t cells = 0;
        for (const KernelPair& pair : pairs) {
          const DtwResult r = banded.DistanceWithThreshold(
              *pair.candidate, *pair.query, pair.epsilon, &scratch);
          cells += r.cells;
          sink = sink + r.distance;
        }
        return cells;
      }), "ns");
  out->Add("dtw.lb_keogh_ns_per_elem", measure(
      [&]() {
        uint64_t elems = 0;
        for (size_t i = 0; i < pairs.size(); ++i) {
          sink = sink + warpindex::LbKeogh(*pairs[i].candidate,
                                           *pairs[i].query, *envelope_of[i],
                                           banded_options);
          elems += pairs[i].candidate->size();
        }
        return elems;
      }), "ns");
  out->Add("dtw.lb_improved_ns_per_elem", measure(
      [&]() {
        uint64_t elems = 0;
        for (size_t i = 0; i < pairs.size(); ++i) {
          sink = sink + warpindex::LbImproved(*pairs[i].candidate,
                                              *pairs[i].query,
                                              *envelope_of[i],
                                              banded_options);
          elems += pairs[i].candidate->size();
        }
        return elems;
      }), "ns");
}

namespace {

using warpindex::JsonToCost;
using warpindex::JsonToKnnMatches;
using warpindex::JsonToSequence;

warpindex::SearchCost WithoutTimings(const warpindex::SearchCost& cost) {
  warpindex::SearchCost out = cost;
  out.wall_ms = 0.0;
  out.cpu_ms = 0.0;
  out.stages.Reset();
  out.stages_cpu.Reset();
  for (const auto& [stage, ms] : cost.stages.entries()) {
    out.stages.Add(stage, 0.0);
  }
  for (const auto& [stage, ms] : cost.stages_cpu.entries()) {
    out.stages_cpu.Add(stage, 0.0);
  }
  return out;
}

JsonValue ShardList(const std::vector<uint32_t>& shards) {
  JsonValue list = JsonValue::Array();
  for (const uint32_t s : shards) {
    list.Add(JsonValue::Int(s));
  }
  return list;
}

// Times encode + decode of one request/response pair; the decoders are
// the ones the shard server and router run.
void TimeCodec(const JsonValue& request, const JsonValue& response,
               bool knn, CodecTotals* totals) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string request_text = request.Render();
  const std::string response_text = response.Render();
  JsonValue parsed_request;
  JsonValue parsed_response;
  Sequence query;
  warpindex::SearchCost cost;
  bool ok = JsonValue::Parse(request_text, &parsed_request).ok() &&
            JsonValue::Parse(response_text, &parsed_response).ok();
  if (ok) {
    const JsonValue* q = parsed_request.Find("query");
    const JsonValue* c = parsed_response.Find("cost");
    ok = q != nullptr && c != nullptr && JsonToSequence(*q, &query).ok() &&
         JsonToCost(*c, &cost).ok();
  }
  if (ok && knn) {
    std::vector<warpindex::KnnMatch> neighbors;
    const JsonValue* n = parsed_response.Find("neighbors");
    ok = n != nullptr && JsonToKnnMatches(*n, &neighbors).ok();
  } else if (ok) {
    const JsonValue* m = parsed_response.Find("matches");
    const JsonValue* d = parsed_response.Find("distances");
    ok = m != nullptr && d != nullptr && m->size() == d->size();
  }
  totals->codec_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (!ok) {
    std::fprintf(stderr, "codec replay: body failed to decode\n");
    std::abort();
  }
  totals->request_bytes += request_text.size();
  totals->response_bytes += response_text.size();
}

}  // namespace

void CodecRange(const std::vector<uint32_t>& shards, const char* method,
                double epsilon, const Sequence& query,
                const SearchResult& answer, CodecTotals* totals) {
  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardList(shards));
  request.Set("method", JsonValue::Str(method));
  request.Set("epsilon", JsonValue::Double(epsilon));
  request.Set("query", warpindex::SequenceToJson(query));
  JsonValue response = JsonValue::Object();
  JsonValue matches = JsonValue::Array();
  for (const warpindex::SequenceId id : answer.matches) {
    matches.Add(JsonValue::Int(id));
  }
  response.Set("matches", std::move(matches));
  JsonValue distances = JsonValue::Array();
  for (const double d : answer.distances) {
    distances.Add(JsonValue::Double(d));
  }
  response.Set("distances", std::move(distances));
  response.Set("num_candidates",
               JsonValue::Int(static_cast<int64_t>(answer.num_candidates)));
  response.Set("cost", warpindex::CostToJson(WithoutTimings(answer.cost)));
  TimeCodec(request, response, /*knn=*/false, totals);
}

void CodecKnn(const std::vector<uint32_t>& shards, size_t k,
              const Sequence& query, const KnnResult& answer,
              CodecTotals* totals) {
  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardList(shards));
  request.Set("k", JsonValue::Int(static_cast<int64_t>(k)));
  request.Set("query", warpindex::SequenceToJson(query));
  JsonValue response = JsonValue::Object();
  response.Set("neighbors", warpindex::KnnMatchesToJson(answer.neighbors));
  response.Set("num_refined",
               JsonValue::Int(static_cast<int64_t>(answer.num_refined)));
  response.Set("cost", warpindex::CostToJson(WithoutTimings(answer.cost)));
  TimeCodec(request, response, /*knn=*/true, totals);
}

bool SameRange(SearchResult a, SearchResult b) {
  warpindex::CanonicalizeMatchOrder(&a);
  warpindex::CanonicalizeMatchOrder(&b);
  if (a.matches != b.matches || a.distances.size() != b.distances.size()) {
    return false;
  }
  for (size_t i = 0; i < a.distances.size(); ++i) {
    if (std::memcmp(&a.distances[i], &b.distances[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameKnn(const KnnResult& a, const KnnResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) {
    return false;
  }
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].id != b.neighbors[i].id ||
        std::memcmp(&a.neighbors[i].distance, &b.neighbors[i].distance,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

// Time in the planned cascade's lower-bound stages.
double LbStageMs(const warpindex::SearchCost& cost) {
  double ms = 0.0;
  for (const auto& [stage, stage_ms] : cost.stages.entries()) {
    if (stage == warpindex::kStageFeatureLbCascade ||
        stage == warpindex::kStageLbYiCascade ||
        stage == warpindex::kStageLbKeoghCascade ||
        stage == warpindex::kStageLbImprovedCascade) {
      ms += stage_ms;
    }
  }
  return ms;
}

}  // namespace

void CostTotals::Fold(const warpindex::SearchCost& cost) {
  dtw_cells += cost.dtw_cells;
  dtw_evals += cost.dtw_evals;
  index_nodes += cost.index_nodes;
  pages += cost.io.TotalPageReads();
  postfilter_ms += cost.stages.Get(warpindex::kStageDtwPostfilter);
  fetch_ms += cost.stages.Get(warpindex::kStageCandidateFetch);
  lb_ms += LbStageMs(cost);
  for (const auto& [stage, counts] : cost.prunes.entries()) {
    auto& [in, kept] = stage_in_kept[stage];
    in += counts.in;
    kept += counts.in - counts.pruned;
  }
}

void CostTotals::FoldRange(const SearchResult& result, size_t live) {
  candidates += result.num_candidates;
  matches += result.matches.size();
  live_rows += live;
}

void AddCostMetrics(const CostTotals& totals, size_t ops, Output* out) {
  const double n = static_cast<double>(ops);
  out->AddRatio("dtw.cells_per_op", static_cast<double>(totals.dtw_cells), n,
                "count", "ops");
  out->AddRatio("dtw.evals_per_op", static_cast<double>(totals.dtw_evals), n,
                "count", "ops");
  out->AddRatio("dtw.postfilter_ms_per_op", totals.postfilter_ms, n, "ms",
                "ops");
  out->AddRatio("rtree.nodes_per_op", static_cast<double>(totals.index_nodes),
                n, "count", "ops");
  out->AddRatio("rtree.candidate_ratio", static_cast<double>(totals.candidates),
                static_cast<double>(totals.live_rows), "1",
                "live rows summed over range ops");
  out->AddRatio("storage.pages_per_op", static_cast<double>(totals.pages), n,
                "count", "ops");
  out->AddRatio("storage.fetch_ms_per_op", totals.fetch_ms, n, "ms", "ops");
  out->AddRatio("core.matches_per_candidate",
                static_cast<double>(totals.matches),
                static_cast<double>(totals.candidates), "1",
                "candidates over range ops");
  const auto pass_rate = [&](const char* metric, std::string_view stage) {
    const auto it = totals.stage_in_kept.find(std::string(stage));
    const double in = it == totals.stage_in_kept.end()
                          ? 0.0
                          : static_cast<double>(it->second.first);
    const double kept = it == totals.stage_in_kept.end()
                            ? 0.0
                            : static_cast<double>(it->second.second);
    out->AddRatio(metric, kept, in, "1",
                  std::string("candidates entering ") + std::string(stage));
  };
  pass_rate("plan.feature_lb_pass_rate", warpindex::kStageFeatureLbCascade);
  pass_rate("plan.lb_keogh_pass_rate", warpindex::kStageLbKeoghCascade);
  pass_rate("plan.lb_improved_pass_rate", warpindex::kStageLbImprovedCascade);
  out->AddRatio("plan.lb_ms_per_op", totals.lb_ms, n, "ms", "ops");
}

}  // namespace perfbench
