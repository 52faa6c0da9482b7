// warpindex_cli: load a sequence database (CSV or a built-in synthetic
// corpus), build the index, and answer tolerance or kNN queries from the
// command line.
//
//   # range query: which synthetic stocks track stock 17 within $4?
//   $ ./warpindex_cli --dataset stock --query_id 17 --eps 4
//
//   # kNN over your own CSV (one sequence per line):
//   $ ./warpindex_cli --data my_series.csv --query_file pattern.csv --k 5
//
//   # compare all four methods on the same query:
//   $ ./warpindex_cli --dataset walk --query_id 3 --eps 0.1 --compare
//
//   # trace a query (one JSON span per line) and print the span tree:
//   $ ./warpindex_cli --dataset stock --query_id 17 --eps 4 --trace_out=q.jsonl
//
//   # run a demo workload and print the metrics snapshot:
//   $ ./warpindex_cli stats
//
//   # batch-serve a query workload over a thread pool:
//   $ ./warpindex_cli serve --dataset stock --threads 4 --eps 4
//   $ ./warpindex_cli serve --data my_series.csv --queries patterns.csv
//         --threads 8 --eps 0.5       (one command line)
//
//   # serve a writable ingest engine: stream inserts/deletes through the
//   # pool while the batches run, verify against a from-scratch engine:
//   $ ./warpindex_cli serve --ingest --shards 4 --ingest_writes 2000
//
//   # serve with the live introspection server and scrape it:
//   $ ./warpindex_cli serve --dataset stock --http_port 8080 --linger_s 600 &
//   $ ./warpindex_cli inspect --http_port 8080 --endpoint /statusz
//   $ curl -s localhost:8080/metrics
//
//   # multi-process serving plane (docs/NETWORKING.md): save a sharded
//   # database, serve each shard in its own process, scatter-gather
//   # through a router:
//   $ ./warpindex_cli save --out /tmp/db --dataset stock --shards 2
//   $ ./warpindex_cli shard-serve --db /tmp/db --shards 0 --port 18091 &
//   $ ./warpindex_cli shard-serve --db /tmp/db --shards 1 --port 18092 &
//   $ ./warpindex_cli route --groups '127.0.0.1:18091;127.0.0.1:18092'
//         --port 18090 --http_port 18080 &       (one command line)
//   $ ./warpindex_cli net-query --port 18090 --eps 4 --query_id 17 --k 3

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/flags.h"
#include "common/stats.h"
#include "core/engine.h"
#include "exec/introspection.h"
#include "ingest/ingest_engine.h"
#include "exec/query_executor.h"
#include "obs/profiler.h"
#include "net/fleet.h"
#include "net/router.h"
#include "net/serialize.h"
#include "net/shard_server.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/httpd.h"
#include "obs/slow_log.h"
#include "obs/trace_store.h"
#include "sequence/dataset_io.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"
#include "shard/shard_io.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

// Loads --data CSV when given, else synthesizes the named built-in corpus.
bool LoadDatabase(const std::string& data_path,
                  const std::string& dataset_kind, Dataset* dataset) {
  if (!data_path.empty()) {
    const Status status = LoadDatasetFromCsv(data_path, dataset);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return false;
    }
    return true;
  }
  if (dataset_kind == "stock") {
    *dataset = GenerateStockDataset(StockDataOptions{});
    return true;
  }
  if (dataset_kind == "walk") {
    RandomWalkOptions rw;
    rw.num_sequences = 1000;
    rw.min_length = 100;
    rw.max_length = 200;
    *dataset = GenerateRandomWalkDataset(rw);
    return true;
  }
  std::fprintf(stderr, "unknown --dataset '%s'\n", dataset_kind.c_str());
  return false;
}

// The CLI's short spellings of the range methods.
bool ParseMethodAlias(const std::string& name, MethodKind* kind) {
  if (name == "tw") {
    *kind = MethodKind::kTwSimSearch;
  } else if (name == "naive") {
    *kind = MethodKind::kNaiveScan;
  } else if (name == "lb") {
    *kind = MethodKind::kLbScan;
  } else if (name == "st") {
    *kind = MethodKind::kStFilter;
  } else if (name == "cascade") {
    *kind = MethodKind::kTwSimSearchCascade;
  } else {
    return false;
  }
  return true;
}

bool ParseMethod(const std::string& name, MethodKind* kind) {
  if (!ParseMethodAlias(name, kind)) {
    std::fprintf(stderr,
                 "unknown --method '%s' (tw | naive | lb | st | cascade)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// Per-stage pruning summary of one or many queries (--method cascade, or
// tw with the LB_Yi cascade); silent when no stage recorded counters.
void PrintPruneTable(const StageCounters& prunes) {
  if (prunes.empty()) {
    return;
  }
  std::printf("\nper-stage pruning:\n");
  std::printf("  %-22s %12s %12s %9s\n", "stage", "in", "pruned",
              "pruned%");
  for (const auto& [stage, counts] : prunes.entries()) {
    const double pct =
        counts.in > 0
            ? 100.0 * static_cast<double>(counts.pruned) /
                  static_cast<double>(counts.in)
            : 0.0;
    std::printf("  %-22s %12llu %12llu %8.1f%%\n", stage.c_str(),
                static_cast<unsigned long long>(counts.in),
                static_cast<unsigned long long>(counts.pruned), pct);
  }
}

// Any serving flavor behind one pointer: a single Engine (--shards=1),
// a ShardedEngine (a write-free IngestEngine over K per-shard engines),
// or a writable IngestEngine (`serve --ingest`). The EngineLike interface
// is all the executor and the query paths need.
struct ServingEngine {
  std::unique_ptr<Engine> single;
  std::unique_ptr<ShardedEngine> sharded;
  std::unique_ptr<IngestEngine> ingest;

  const EngineLike* get() const {
    if (ingest != nullptr) {
      return ingest.get();
    }
    return single != nullptr ? static_cast<const EngineLike*>(single.get())
                             : sharded.get();
  }
};

// Builds the serving engine from parsed --shards/--partition flags.
// Consumes `dataset`.
bool BuildServingEngine(Dataset dataset, const EngineOptions& options,
                        int64_t shards, const std::string& partition,
                        FlightRecorder* flight_recorder,
                        ServingEngine* out) {
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return false;
  }
  if (shards == 1) {
    out->single = std::make_unique<Engine>(std::move(dataset), options);
    return true;
  }
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = static_cast<size_t>(shards);
  if (!ParsePartitionerKind(partition, &sharded_options.partitioner)) {
    std::fprintf(stderr, "unknown --partition '%s' (hash | range)\n",
                 partition.c_str());
    return false;
  }
  sharded_options.engine = options;
  sharded_options.flight_recorder = flight_recorder;
  out->sharded = std::make_unique<ShardedEngine>(std::move(dataset),
                                                 sharded_options);
  return true;
}

// Set by SIGINT/SIGTERM so the --linger_s wait exits cleanly (CI smoke
// kills the backgrounded server with TERM and expects exit 0).
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

// `serve` subcommand: batch-mode serving path. Loads a database, builds
// the index once, then runs a query workload through the concurrent
// QueryExecutor and reports throughput and latency percentiles. With
// --profile_out support: samples the whole command with the SIGPROF
// profiler (obs/profiler.h) and writes the profile on any exit path.
// The extension picks the format: .json = speedscope, anything else =
// collapsed-stack text for flamegraph.pl / inferno.
class ScopedCliProfile {
 public:
  ScopedCliProfile(std::string path, int hz) : path_(std::move(path)) {
    if (path_.empty()) {
      return;
    }
    ProfileOptions options;
    options.hz = hz;
    const Status status = CpuProfiler::Global().Start(options);
    if (!status.ok()) {
      std::fprintf(stderr, "--profile_out: %s\n", status.ToString().c_str());
      return;
    }
    armed_ = true;
  }

  ~ScopedCliProfile() {
    if (!armed_) {
      return;
    }
    Profile profile;
    const Status status = CpuProfiler::Global().Stop(&profile);
    if (!status.ok()) {
      std::fprintf(stderr, "--profile_out: %s\n", status.ToString().c_str());
      return;
    }
    const bool speedscope =
        path_.size() >= 5 &&
        path_.compare(path_.size() - 5, 5, ".json") == 0;
    const std::string body =
        speedscope ? profile.SpeedscopeJson() : profile.FoldedText();
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "--profile_out: cannot write %s\n",
                   path_.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), file);
    std::fclose(file);
    std::printf("wrote CPU profile to %s (%llu samples at %d Hz, %s)\n",
                path_.c_str(),
                static_cast<unsigned long long>(profile.samples), profile.hz,
                speedscope ? "speedscope JSON" : "collapsed stacks");
  }

  ScopedCliProfile(const ScopedCliProfile&) = delete;
  ScopedCliProfile& operator=(const ScopedCliProfile&) = delete;

 private:
  std::string path_;
  bool armed_ = false;
};

// --http_port it also runs the live introspection server (/metrics,
// /statusz, /slowlog, /flightrecorder; see docs/OBSERVABILITY.md) and
// --linger_s keeps it scrapeable after the batches finish.
int RunServe(int argc, char** argv) {
  std::string dataset_kind = "stock";
  std::string data_path;
  std::string queries_path;
  int64_t num_queries = 100;
  double eps = -1.0;
  std::string method = "tw";
  int64_t threads = 4;
  int64_t repeat = 1;
  int64_t seed = 1;
  bool show_metrics = false;
  int64_t http_port = -1;
  double linger_s = 0.0;
  int64_t flight_capacity = 256;
  int64_t slow_worst_k = 32;
  int64_t shards = 1;
  std::string partition = "hash";
  int64_t trace_capacity = 64;
  double trace_slow_ms = 5.0;
  double trace_sample = 0.05;
  std::string trace_events_out;
  bool ingest = false;
  int64_t ingest_writes = 2000;
  int64_t ingest_delete_every = 7;
  double ingest_rate = 0.0;
  int64_t ingest_compact_entries = 128;
  std::string profile_out;
  int64_t profile_hz = 99;
  bool use_cache = false;
  int64_t cache_mb = 64;

  FlagSet flags("warpindex_cli serve");
  flags.AddString("dataset", &dataset_kind,
                  "built-in corpus when --data is absent: stock | walk");
  flags.AddString("data", &data_path, "CSV file with one sequence per line");
  flags.AddString("queries", &queries_path,
                  "CSV file with one query per line; omitted = generate "
                  "--num_queries perturbed-copy queries");
  flags.AddInt64("num_queries", &num_queries,
                 "generated workload size when --queries is absent");
  flags.AddDouble("eps", &eps, "tolerance for every range query");
  flags.AddString("method", &method, "tw | naive | lb | st | cascade");
  flags.AddInt64("threads", &threads, "executor worker count");
  flags.AddInt64("repeat", &repeat, "times to run the whole batch");
  flags.AddInt64("seed", &seed, "generated-workload seed");
  flags.AddBool("metrics", &show_metrics,
                "print the metrics snapshot (Prometheus text) afterwards");
  flags.AddInt64("http_port", &http_port,
                 "run the introspection HTTP server on 127.0.0.1:<port> "
                 "(0 = ephemeral; negative = disabled)");
  flags.AddDouble("linger_s", &linger_s,
                  "keep the HTTP server scrapeable this many seconds after "
                  "the batches finish (SIGINT/SIGTERM ends it early)");
  flags.AddInt64("flight_capacity", &flight_capacity,
                 "flight-recorder ring size (last N completed queries)");
  flags.AddInt64("slow_worst_k", &slow_worst_k,
                 "slow-query log size (worst K queries by latency)");
  flags.AddInt64("shards", &shards,
                 "partition the database across this many per-shard "
                 "engines with scatter-gather fan-out (1 = unsharded)");
  flags.AddString("partition", &partition,
                  "--shards>1 partitioner: hash | range (range enables "
                  "feature-MBR shard pruning on clustered data)");
  flags.AddInt64("trace_capacity", &trace_capacity,
                 "tail-sampled trace store size behind /tracez "
                 "(0 = tracing disabled)");
  flags.AddDouble("trace_slow_ms", &trace_slow_ms,
                  "always keep traces at least this slow (ms)");
  flags.AddDouble("trace_sample", &trace_sample,
                  "probability of keeping an otherwise-unremarkable trace "
                  "(1 = keep all)");
  flags.AddString("trace_events_out", &trace_events_out,
                  "write the retained traces as Chrome/Perfetto "
                  "trace-event JSON to this file after the batches");
  flags.AddBool("ingest", &ingest,
                "serve from a writable IngestEngine and stream "
                "--ingest_writes inserts/deletes concurrently with the "
                "query batches (see docs/INGEST.md)");
  flags.AddInt64("ingest_writes", &ingest_writes,
                 "--ingest: inserts streamed while the batches run");
  flags.AddInt64("ingest_delete_every", &ingest_delete_every,
                 "--ingest: delete one earlier insert every N inserts "
                 "(0 = no deletes)");
  flags.AddDouble("ingest_rate", &ingest_rate,
                  "--ingest: throttle writes to this many per second "
                  "(0 = unthrottled)");
  flags.AddInt64("ingest_compact_entries", &ingest_compact_entries,
                 "--ingest: delta entries per shard that trigger a "
                 "background compaction");
  flags.AddString("profile_out", &profile_out,
                  "sample the whole run with the SIGPROF CPU profiler and "
                  "write the profile here (.json = speedscope, otherwise "
                  "collapsed stacks)");
  flags.AddInt64("profile_hz", &profile_hz,
                 "--profile_out sampling rate per CPU-second");
  flags.AddBool("cache", &use_cache,
                "semantic result cache in front of the executor "
                "(ε-subsumption reuse; see docs/CACHING.md)");
  flags.AddInt64("cache_mb", &cache_mb, "--cache byte budget (MiB)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  ScopedCliProfile profile(profile_out, static_cast<int>(profile_hz));
  if (ingest && (ingest_writes < 0 || ingest_compact_entries <= 0)) {
    std::fprintf(stderr,
                 "--ingest_writes must be >= 0 and "
                 "--ingest_compact_entries positive\n");
    return 1;
  }
  if (flight_capacity <= 0 || slow_worst_k <= 0) {
    std::fprintf(stderr,
                 "--flight_capacity and --slow_worst_k must be positive\n");
    return 1;
  }
  if (eps < 0.0) {
    eps = dataset_kind == "stock" && data_path.empty() ? 4.0 : 0.1;
  }
  MethodKind kind;
  if (!ParseMethod(method, &kind)) {
    return 1;
  }

  Dataset dataset;
  if (!LoadDatabase(data_path, dataset_kind, &dataset) || dataset.empty()) {
    return 1;
  }

  // Build the workload before the dataset moves into the engine (a
  // sharded engine splits it and keeps no global copy).
  std::vector<Sequence> queries;
  if (!queries_path.empty()) {
    Dataset query_set;
    const Status status = LoadDatasetFromCsv(queries_path, &query_set);
    if (!status.ok() || query_set.empty()) {
      std::fprintf(stderr, "cannot load queries: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < query_set.size(); ++i) {
      queries.push_back(query_set[i]);
    }
  } else {
    QueryWorkloadOptions workload;
    workload.num_queries = static_cast<size_t>(num_queries);
    workload.seed = static_cast<uint64_t>(seed);
    queries = GenerateQueryWorkload(dataset, workload);
  }

  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (Sequence& q : queries) {
    requests.push_back(QueryRequest{kind, std::move(q), eps});
  }

  // Always-on flight recorder and slow-query log: every completed query
  // lands in both, whether or not the HTTP server is up.
  FlightRecorderOptions recorder_options;
  recorder_options.capacity = static_cast<size_t>(flight_capacity);
  FlightRecorder flight_recorder(recorder_options);
  SlowQueryLog slow_log(static_cast<size_t>(slow_worst_k));

  // Tail-sampled trace retention behind /tracez (and the trace-event
  // export): the executor traces queries and the store keeps the slow /
  // errored / shard-skewed / sampled ones.
  std::unique_ptr<TraceStore> trace_store;
  if (trace_capacity > 0) {
    TraceStoreOptions trace_options;
    trace_options.capacity = static_cast<size_t>(trace_capacity);
    trace_options.slow_ms = trace_slow_ms;
    trace_options.sample_probability = trace_sample;
    trace_store = std::make_unique<TraceStore>(trace_options);
  }

  EngineOptions options;
  options.build_st_filter = kind == MethodKind::kStFilter;
  // --ingest verification rebuilds a from-scratch reference over the
  // final live set, so keep the base rows before the dataset moves.
  Dataset ingest_base;
  if (ingest) {
    ingest_base = dataset;
  }
  const size_t base_size = dataset.size();
  ServingEngine engine;
  if (ingest) {
    if (shards < 1) {
      std::fprintf(stderr, "--shards must be >= 1\n");
      return 1;
    }
    IngestOptions ingest_options;
    ingest_options.num_shards = static_cast<size_t>(shards);
    if (!ParsePartitionerKind(partition, &ingest_options.partitioner)) {
      std::fprintf(stderr, "unknown --partition '%s' (hash | range)\n",
                   partition.c_str());
      return 1;
    }
    ingest_options.engine = options;
    ingest_options.compact_max_delta_entries =
        static_cast<size_t>(ingest_compact_entries);
    ingest_options.compact_max_tombstones =
        static_cast<size_t>(ingest_compact_entries);
    ingest_options.trace_store = trace_store.get();
    ingest_options.flight_recorder = &flight_recorder;
    engine.ingest = std::make_unique<IngestEngine>(std::move(dataset),
                                                   ingest_options);
  } else if (!BuildServingEngine(std::move(dataset), options, shards,
                                 partition, &flight_recorder, &engine)) {
    return 1;
  }

  // Optional executor-tier semantic cache. Registers its
  // warpindex_cache_executor_* series in the serving engine's registry
  // so /metrics and the stats epilogue show the same names. With
  // --ingest every write bumps DataVersion(), so cached entries from
  // before the write are invalid by construction.
  std::unique_ptr<SemanticCache> cache;
  if (use_cache) {
    SemanticCacheOptions cache_options;
    cache_options.max_bytes = static_cast<size_t>(cache_mb) << 20;
    cache_options.metrics = &engine.get()->metrics();
    cache = std::make_unique<SemanticCache>(cache_options);
  }

  QueryExecutorOptions executor_options;
  executor_options.num_threads = static_cast<size_t>(threads);
  executor_options.flight_recorder = &flight_recorder;
  executor_options.slow_log = &slow_log;
  executor_options.trace_store = trace_store.get();
  executor_options.cache = cache.get();
  QueryExecutor executor(engine.get(), executor_options);
  if (engine.sharded != nullptr) {
    // The sharded engine fans each query out over the executor's own
    // pool (the calling worker participates; see docs/SHARDING.md).
    engine.sharded->AttachPool(&executor.pool());
  }
  if (engine.ingest != nullptr) {
    // Same fan-out pool; the executor additionally becomes the write
    // path (SubmitInsert/SubmitDelete) and the compactor schedules its
    // merges on the pool too.
    engine.ingest->AttachPool(&executor.pool());
    executor.AttachIngest(engine.ingest.get());
  }

  if (http_port > 65535) {
    std::fprintf(stderr, "--http_port out of range\n");
    return 1;
  }
  IntrospectionServerOptions server_options;
  server_options.port = static_cast<uint16_t>(http_port > 0 ? http_port : 0);
  IntrospectionServer server(server_options);
  if (http_port >= 0) {
    RegisterIntrospectionRoutes(
        &server, IntrospectionOptions{.engine = engine.single.get(),
                                      .sharded = engine.sharded.get(),
                                      .ingest = engine.ingest.get(),
                                      .executor = &executor,
                                      .cache = cache.get(),
                                      .flight_recorder = &flight_recorder,
                                      .slow_log = &slow_log,
                                      .trace_store = trace_store.get()});
    const Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "cannot start introspection server: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("introspection server on http://127.0.0.1:%u "
                "(/healthz /metrics /statusz /slowlog /flightrecorder "
                "/tracez /cachez)\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }
  if (engine.sharded != nullptr) {
    std::printf("sharded engine: %zu shards, %s partitioning\n",
                engine.sharded->num_shards(),
                PartitionerKindName(engine.sharded->partitioner()));
  }
  if (engine.ingest != nullptr) {
    std::printf("ingest engine: %zu shards, %s partitioning, compaction "
                "at %lld delta entries; streaming %lld writes\n",
                engine.ingest->num_shards(),
                PartitionerKindName(engine.ingest->partitioner()),
                static_cast<long long>(ingest_compact_entries),
                static_cast<long long>(ingest_writes));
  }
  if (kind == MethodKind::kTwSimSearchCascade) {
    std::printf("serving %zu %s queries (eps=%.4f, plan=%s) over %zu "
                "threads\n",
                requests.size(), MethodKindName(kind), eps,
                DefaultCascadePlan(options.dtw).ToString().c_str(),
                executor.num_threads());
  } else {
    std::printf("serving %zu %s queries (eps=%.4f) over %zu threads\n",
                requests.size(), MethodKindName(kind), eps,
                executor.num_threads());
  }

  // --ingest writer: streams inserts (and periodic deletes) through the
  // executor's pool while the query batches run below, so snapshot reads
  // and background compaction are exercised under real concurrency.
  std::vector<std::pair<SequenceId, Sequence>> inserted;
  std::vector<SequenceId> deleted;
  bool write_error = false;
  std::thread writer;
  if (engine.ingest != nullptr && ingest_writes > 0) {
    writer = std::thread([&] {
      std::vector<std::pair<std::future<SequenceId>, Sequence>> pending;
      pending.reserve(static_cast<size_t>(ingest_writes));
      std::vector<SequenceId> ids(static_cast<size_t>(ingest_writes), -1);
      // Futures are single-shot; resolve lazily so a victim lookup and
      // the final drain never both call get() on one.
      const auto resolve = [&](size_t j) {
        if (ids[j] < 0) {
          ids[j] = pending[j].first.get();
        }
        return ids[j];
      };
      std::vector<std::future<bool>> delete_acks;
      const auto start = std::chrono::steady_clock::now();
      SequenceId next_base_victim = 0;
      uint64_t deletes_issued = 0;
      for (int64_t i = 0; i < ingest_writes; ++i) {
        if (ingest_rate > 0.0) {
          std::this_thread::sleep_until(
              start +
              std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(i) /
                                                ingest_rate)));
        }
        Sequence row = PerturbSequence(
            ingest_base[static_cast<size_t>(i) % ingest_base.size()],
            static_cast<uint64_t>(seed) * 1000003ull +
                static_cast<uint64_t>(i));
        Sequence to_insert = row;
        pending.emplace_back(executor.SubmitInsert(std::move(to_insert)),
                             std::move(row));
        if (ingest_delete_every > 0 &&
            (i + 1) % ingest_delete_every == 0) {
          // Alternate victims between a base row and an acknowledged
          // insert, so tombstones land on both sides of the base/delta
          // split.
          SequenceId victim;
          if (deletes_issued % 2 == 0 &&
              static_cast<size_t>(next_base_victim) < base_size) {
            victim = next_base_victim++;
          } else {
            victim = resolve(
                static_cast<size_t>(i + 1 - ingest_delete_every));
          }
          ++deletes_issued;
          deleted.push_back(victim);
          delete_acks.push_back(executor.SubmitDelete(victim));
        }
      }
      for (size_t j = 0; j < pending.size(); ++j) {
        inserted.emplace_back(resolve(j), std::move(pending[j].second));
      }
      for (std::future<bool>& ack : delete_acks) {
        if (!ack.get()) {
          write_error = true;
        }
      }
    });
  }

  StageCounters batch_prunes;
  uint64_t total_dtw_evals = 0;
  for (int64_t round = 0; round < repeat; ++round) {
    const BatchResult batch = executor.SubmitBatch(requests);
    std::vector<double> latencies;
    latencies.reserve(batch.results.size());
    size_t total_matches = 0;
    for (const SearchResult& r : batch.results) {
      latencies.push_back(r.cost.wall_ms);
      total_matches += r.matches.size();
      batch_prunes.Merge(r.cost.prunes);
      total_dtw_evals += r.cost.dtw_evals;
    }
    std::printf(
        "batch %lld: %.1f queries/s (%.2f ms wall), %zu matches, "
        "service p50=%.3f ms p99=%.3f ms p999=%.3f ms\n",
        static_cast<long long>(round), batch.queries_per_sec,
        batch.wall_ms, total_matches, Percentile(latencies, 0.5),
        Percentile(latencies, 0.99), Percentile(latencies, 0.999));
    std::fflush(stdout);
  }
  PrintPruneTable(batch_prunes);
  if (total_dtw_evals > 0) {
    std::printf("exact-DTW evaluations: %llu\n",
                static_cast<unsigned long long>(total_dtw_evals));
  }
  if (cache != nullptr) {
    const SemanticCacheStats cache_stats = cache->TakeStats();
    std::printf("cache: warpindex_cache_executor_hits_total=%llu "
                "warpindex_cache_executor_misses_total=%llu "
                "(hit ratio %.3f, %zu entries, %zu bytes)\n",
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses),
                cache_stats.hit_ratio, cache_stats.entries,
                cache_stats.bytes);
  }

  if (engine.ingest != nullptr) {
    if (writer.joinable()) {
      writer.join();
    }
    // Let the background compactor drain the write backlog so the
    // summary and the verification below see a quiesced engine.
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    IngestEngine::Health health = engine.ingest->TakeHealthSnapshot();
    while (health.compaction_backlog > 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      health = engine.ingest->TakeHealthSnapshot();
    }
    std::printf("ingest: %llu inserts, %llu deletes, %llu compactions "
                "(%llu cut rebalances), epoch %llu, %zu live of %zu "
                "ids, backlog %zu\n",
                static_cast<unsigned long long>(health.inserts_total),
                static_cast<unsigned long long>(health.deletes_total),
                static_cast<unsigned long long>(health.compactions_total),
                static_cast<unsigned long long>(
                    health.cut_rebalances_total),
                static_cast<unsigned long long>(health.epoch),
                health.live_sequences, health.id_space,
                health.compaction_backlog);

    // Verify the consistency contract (docs/INGEST.md): a from-scratch
    // engine over the final live set must answer bit-identically.
    std::sort(inserted.begin(), inserted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Dataset ref = std::move(ingest_base);
    bool ok = true;
    if (write_error) {
      std::fprintf(stderr, "ingest verify: a delete was not acknowledged\n");
      ok = false;
    }
    for (auto& [id, row] : inserted) {
      if (static_cast<size_t>(id) != ref.size()) {
        // Ids must be the contiguous dataset positions.
        std::fprintf(stderr,
                     "ingest verify: insert id %lld, expected %zu\n",
                     static_cast<long long>(id), ref.size());
        ok = false;
        break;
      }
      ref.Add(std::move(row));
    }
    if (ok) {
      Engine reference(std::move(ref), options);
      for (const SequenceId id : deleted) {
        if (!reference.Remove(id)) {
          std::fprintf(stderr,
                       "ingest verify: reference Remove(%lld) failed\n",
                       static_cast<long long>(id));
          ok = false;
        }
      }
      const size_t nq = std::min<size_t>(requests.size(), 8);
      for (size_t i = 0; i < nq && ok; ++i) {
        const Sequence& q = requests[i].query;
        const SearchResult got =
            engine.get()->SearchWith(MethodKind::kTwSimSearch, q, eps);
        const SearchResult want =
            reference.SearchWith(MethodKind::kTwSimSearch, q, eps);
        // The ingest merge emits ascending global ids; a single engine
        // answers in index traversal order. Compare as id sets.
        std::vector<SequenceId> want_sorted = want.matches;
        std::sort(want_sorted.begin(), want_sorted.end());
        if (got.matches != want_sorted) {
          std::fprintf(stderr,
                       "ingest verify: range answers differ on query %zu "
                       "(%zu vs %zu matches)\n",
                       i, got.matches.size(), want.matches.size());
          std::vector<SequenceId> extra;
          std::set_difference(got.matches.begin(), got.matches.end(),
                              want_sorted.begin(), want_sorted.end(),
                              std::back_inserter(extra));
          std::vector<SequenceId> missing;
          std::set_difference(want_sorted.begin(), want_sorted.end(),
                              got.matches.begin(), got.matches.end(),
                              std::back_inserter(missing));
          for (size_t n = 0; n < extra.size() && n < 5; ++n) {
            std::fprintf(stderr, "  extra match #%lld\n",
                         static_cast<long long>(extra[n]));
          }
          for (size_t n = 0; n < missing.size() && n < 5; ++n) {
            std::fprintf(stderr, "  missing match #%lld\n",
                         static_cast<long long>(missing[n]));
          }
          ok = false;
        }
        const KnnResult got_knn = engine.get()->SearchKnn(q, 5);
        const KnnResult want_knn = reference.SearchKnn(q, 5);
        if (got_knn.neighbors.size() != want_knn.neighbors.size()) {
          std::fprintf(stderr,
                       "ingest verify: kNN sizes differ on query %zu "
                       "(%zu vs %zu)\n",
                       i, got_knn.neighbors.size(),
                       want_knn.neighbors.size());
          ok = false;
        } else {
          for (size_t n = 0; n < got_knn.neighbors.size(); ++n) {
            if (got_knn.neighbors[n].id != want_knn.neighbors[n].id ||
                got_knn.neighbors[n].distance !=
                    want_knn.neighbors[n].distance) {
              std::fprintf(
                  stderr,
                  "ingest verify: kNN neighbor %zu differs on query %zu "
                  "(#%lld d=%.17g vs #%lld d=%.17g)\n",
                  n, i, static_cast<long long>(got_knn.neighbors[n].id),
                  got_knn.neighbors[n].distance,
                  static_cast<long long>(want_knn.neighbors[n].id),
                  want_knn.neighbors[n].distance);
              ok = false;
            }
          }
        }
      }
    }
    if (!ok) {
      std::fprintf(stderr, "ingest verify FAILED\n");
      return 1;
    }
    std::printf("ingest verify ok (%zu live sequences, answers match a "
                "from-scratch engine)\n",
                engine.ingest->live_size());
    std::fflush(stdout);
  }

  if (trace_store != nullptr) {
    std::printf("trace store: %llu offered, %llu kept (slow=%llu "
                "error=%llu skew=%llu sampled=%llu)\n",
                static_cast<unsigned long long>(trace_store->offered()),
                static_cast<unsigned long long>(trace_store->kept()),
                static_cast<unsigned long long>(trace_store->kept_slow()),
                static_cast<unsigned long long>(trace_store->kept_error()),
                static_cast<unsigned long long>(trace_store->kept_skew()),
                static_cast<unsigned long long>(
                    trace_store->kept_sampled()));
    if (!trace_events_out.empty()) {
      const std::vector<CompletedTrace> kept = trace_store->Snapshot();
      std::vector<const Trace*> traces;
      traces.reserve(kept.size());
      for (const CompletedTrace& t : kept) {
        traces.push_back(&t.trace);
      }
      const Status status = WriteTraceEventsFile(traces, trace_events_out);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu retained traces to %s (trace-event JSON)\n",
                  traces.size(), trace_events_out.c_str());
    }
  } else if (!trace_events_out.empty()) {
    std::fprintf(stderr,
                 "--trace_events_out needs --trace_capacity > 0\n");
    return 1;
  }

  if (show_metrics) {
    const BuildInfo build_info = GetBuildInfo();
    const ProcessSelfMetrics process = CollectProcessSelfMetrics();
    std::printf(
        "\n== metrics snapshot ==\n%s",
        MetricsToPrometheusText(engine.get()->metrics().TakeSnapshot(),
                                &build_info, &process)
            .c_str());
  }

  // Keep the introspection server scrapeable (CI smoke and operators
  // curl the endpoints while we linger here).
  if (server.running() && linger_s > 0.0) {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    std::printf("lingering %.0f s for scrapes (SIGINT/SIGTERM to stop)\n",
                linger_s);
    std::fflush(stdout);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(linger_s));
    while (g_stop_requested == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.Stop();
    std::printf("introspection server stopped (%llu requests served)\n",
                static_cast<unsigned long long>(server.requests_served()));
  }
  return 0;
}

// `inspect` subcommand: one-shot client for a running introspection
// server — fetches an endpoint and prints the body to stdout.
int RunInspect(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int64_t http_port = 0;
  std::string endpoint = "/statusz";
  int64_t timeout_ms = 5000;

  FlagSet flags("warpindex_cli inspect");
  flags.AddString("host", &host, "server address (numeric IPv4)");
  flags.AddInt64("http_port", &http_port,
                 "port of a running `serve --http_port` instance");
  flags.AddString("endpoint", &endpoint,
                  "/healthz | /metrics | /statusz | /slowlog | "
                  "/flightrecorder | /tracez | /cachez");
  flags.AddInt64("timeout_ms", &timeout_ms, "socket timeout");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (http_port <= 0 || http_port > 65535) {
    std::fprintf(stderr, "pass --http_port of a running server\n");
    return 1;
  }

  std::string body;
  int status_code = 0;
  const Status status =
      HttpGet(host, static_cast<uint16_t>(http_port), endpoint, &body,
              &status_code, static_cast<int>(timeout_ms));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fputs(body.c_str(), stdout);
  if (!body.empty() && body.back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (status_code != 200) {
    std::fprintf(stderr, "HTTP %d\n", status_code);
    return 1;
  }
  return 0;
}

// "host:port" -> RouterEndpoint; false on malformed input.
bool ParseEndpoint(const std::string& spec, RouterEndpoint* endpoint) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  endpoint->host = spec.substr(0, colon);
  const long port = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    return false;
  }
  endpoint->port = static_cast<uint16_t>(port);
  return true;
}

// Comma-separated shard indexes ("0,3,5").
bool ParseShardList(const std::string& spec,
                    std::vector<uint32_t>* shards) {
  shards->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string item = spec.substr(pos, end - pos);
    char* parse_end = nullptr;
    const long shard = std::strtol(item.c_str(), &parse_end, 10);
    if (parse_end == item.c_str() || *parse_end != '\0' || shard < 0) {
      return false;
    }
    shards->push_back(static_cast<uint32_t>(shard));
    pos = end + 1;
  }
  return !shards->empty();
}

// The wire protocol carries method names in their canonical form
// (MethodKindName); accept both those and the CLI's short spellings.
// Quiet on failure (runs inside the router's request handler).
bool ParseWireMethod(const std::string& name, MethodKind* kind) {
  return ParseMethodKind(name, kind) || ParseMethodAlias(name, kind);
}

// `save` subcommand: build a sharded database and persist it for the
// multi-process serving plane (manifest + per-shard engine dirs).
int RunSave(int argc, char** argv) {
  std::string out_dir;
  std::string dataset_kind = "stock";
  std::string data_path;
  int64_t shards = 2;
  std::string partition = "hash";

  FlagSet flags("warpindex_cli save");
  flags.AddString("out", &out_dir, "directory to write the database into");
  flags.AddString("dataset", &dataset_kind,
                  "built-in corpus when --data is absent: stock | walk");
  flags.AddString("data", &data_path, "CSV file with one sequence per line");
  flags.AddInt64("shards", &shards, "number of shards (>= 1)");
  flags.AddString("partition", &partition, "hash | range");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "pass --out <dir>\n");
    return 1;
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 1;
  }
  Dataset dataset;
  if (!LoadDatabase(data_path, dataset_kind, &dataset) || dataset.empty()) {
    return 1;
  }
  const size_t num_sequences = dataset.size();

  ShardedEngineOptions options;
  options.num_shards = static_cast<size_t>(shards);
  if (!ParsePartitionerKind(partition, &options.partitioner)) {
    std::fprintf(stderr, "unknown --partition '%s' (hash | range)\n",
                 partition.c_str());
    return 1;
  }
  ShardedEngine engine(std::move(dataset), options);
  const Status status = engine.Save(out_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %zu sequences as %lld %s-partitioned shards to %s\n",
              num_sequences, static_cast<long long>(shards),
              PartitionerKindName(options.partitioner), out_dir.c_str());
  return 0;
}

// `shard-serve` subcommand: one shard-server process of the serving
// plane. Opens a subset of a saved sharded database and answers wire
// RPCs until SIGTERM, then drains gracefully (finish in-flight, answer
// new queries UNAVAILABLE, exit 0). The CI smoke test asserts the
// "drain complete" line.
int RunShardServe(int argc, char** argv) {
  std::string db_dir;
  std::string shards_spec;
  int64_t group = 0;
  int64_t replica = 0;
  int64_t port = 0;
  int64_t http_port = -1;
  double qps = 0.0;
  double burst = 0.0;
  int64_t max_inflight = 0;
  bool st_filter = true;

  FlagSet flags("warpindex_cli shard-serve");
  flags.AddString("db", &db_dir, "saved sharded database (`save --out`)");
  flags.AddString("shards", &shards_spec,
                  "comma-separated manifest shard indexes to serve");
  flags.AddInt64("group", &group, "shard-group id (replicas share one)");
  flags.AddInt64("replica", &replica, "replica index within the group");
  flags.AddInt64("port", &port, "wire-protocol port (0 = ephemeral)");
  flags.AddInt64("http_port", &http_port,
                 "introspection HTTP server port (negative = disabled)");
  flags.AddDouble("qps", &qps,
                  "per-client admission quota in queries/s (0 = unmetered)");
  flags.AddDouble("burst", &burst,
                  "per-client token-bucket burst (0 = max(1, qps))");
  flags.AddInt64("max_inflight", &max_inflight,
                 "shed queries beyond this many concurrent (0 = uncapped)");
  flags.AddBool("st_filter", &st_filter,
                "build the suffix-tree filter so ST-Filter queries work");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (db_dir.empty()) {
    std::fprintf(stderr, "pass --db <dir>\n");
    return 1;
  }
  ShardServerOptions options;
  options.db_dir = db_dir;
  if (!ParseShardList(shards_spec, &options.serve_shards)) {
    std::fprintf(stderr, "pass --shards as comma-separated indexes\n");
    return 1;
  }
  options.group = static_cast<int>(group);
  options.replica = static_cast<int>(replica);
  options.engine.build_st_filter = st_filter;
  options.server.port = static_cast<uint16_t>(port);
  options.server.admission.per_client_qps = qps;
  options.server.admission.per_client_burst = burst;
  options.server.admission.max_inflight = static_cast<int>(max_inflight);
  options.server.metrics = &MetricsRegistry::Global();

  std::unique_ptr<ShardServer> server;
  Status status = ShardServer::Create(std::move(options), &server);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  status = server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  IntrospectionServer http(IntrospectionServerOptions{
      .port = static_cast<uint16_t>(http_port > 0 ? http_port : 0)});
  if (http_port >= 0) {
    RegisterIntrospectionRoutes(
        &http, IntrospectionOptions{.shard_server = server.get()});
    status = http.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "cannot start introspection server: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("introspection server on http://127.0.0.1:%u\n",
                static_cast<unsigned>(http.port()));
  }

  std::string shard_list;
  for (const uint32_t shard : server->serve_shards()) {
    if (!shard_list.empty()) {
      shard_list.push_back(',');
    }
    shard_list += std::to_string(shard);
  }
  std::printf("shard-server listening on 127.0.0.1:%u "
              "(group %d replica %d, shards %s of %zu, %s partitioning)\n",
              static_cast<unsigned>(server->port()), server->group(),
              server->replica(), shard_list.c_str(),
              server->manifest_num_shards(),
              PartitionerKindName(server->partitioner()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful drain: no new connections, in-flight requests finish, new
  // queries are answered UNAVAILABLE so the router fails over.
  server->RequestDrain();
  server->WaitIdle();
  server->Stop();
  if (http_port >= 0) {
    http.Stop();
  }
  std::printf("drain complete\n");
  return 0;
}

// `route` subcommand: the router process. Connects to shard-server
// replicas, then serves the same RANGE/KNN wire RPCs itself — clients
// (`net-query`) cannot tell a router from a single shard server that
// happens to hold everything.
int RunRoute(int argc, char** argv) {
  std::string groups_spec;
  int64_t port = 0;
  int64_t http_port = -1;
  int64_t connect_timeout_ms = 2000;
  int64_t call_timeout_ms = 10000;
  int64_t max_attempts = 3;
  int64_t backoff_ms = 25;
  bool hedge = true;
  int64_t hedge_min_ms = 10;
  int64_t hedge_max_ms = 1000;
  int64_t knn_wave = 0;
  double qps = 0.0;
  int64_t max_inflight = 0;

  FlagSet flags("warpindex_cli route");
  flags.AddString("groups", &groups_spec,
                  "shard groups as 'host:port,host:port;host:port' — "
                  "';' separates groups, ',' separates a group's replicas");
  flags.AddInt64("port", &port, "wire-protocol port (0 = ephemeral)");
  flags.AddInt64("http_port", &http_port,
                 "introspection HTTP server port (negative = disabled)");
  flags.AddInt64("connect_timeout_ms", &connect_timeout_ms,
                 "per-replica connect/handshake deadline");
  flags.AddInt64("call_timeout_ms", &call_timeout_ms,
                 "per-attempt sub-request deadline");
  flags.AddInt64("max_attempts", &max_attempts,
                 "sequential replica attempts per sub-request leg");
  flags.AddInt64("backoff_ms", &backoff_ms,
                 "base retry backoff (doubles per attempt)");
  flags.AddBool("hedge", &hedge, "hedged backup requests to replicas");
  flags.AddInt64("hedge_min_ms", &hedge_min_ms, "hedge delay floor");
  flags.AddInt64("hedge_max_ms", &hedge_max_ms,
                 "hedge delay ceiling (also the cold-start delay)");
  flags.AddInt64("knn_wave", &knn_wave,
                 "shard groups per kNN wave (0 = all in one wave)");
  flags.AddDouble("qps", &qps,
                  "per-client admission quota in queries/s (0 = unmetered)");
  flags.AddInt64("max_inflight", &max_inflight,
                 "shed queries beyond this many concurrent (0 = uncapped)");
  int64_t fleet_poll_ms = 0;
  flags.AddInt64("fleet_poll_ms", &fleet_poll_ms,
                 "background fleet STATS poll period in ms "
                 "(0 = poll only when /metrics?fleet=1 or /fleetz is "
                 "scraped)");
  bool use_cache = false;
  int64_t cache_mb = 64;
  flags.AddBool("cache", &use_cache,
                "router-tier semantic result cache — a hit skips the "
                "shard fan-out entirely; only for immutable saved "
                "databases (see docs/CACHING.md)");
  flags.AddInt64("cache_mb", &cache_mb, "--cache byte budget (MiB)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  RouterOptions options;
  size_t pos = 0;
  while (pos <= groups_spec.size() && !groups_spec.empty()) {
    size_t end = groups_spec.find(';', pos);
    if (end == std::string::npos) {
      end = groups_spec.size();
    }
    const std::string group = groups_spec.substr(pos, end - pos);
    std::vector<RouterEndpoint> replicas;
    size_t rpos = 0;
    while (rpos <= group.size() && !group.empty()) {
      size_t rend = group.find(',', rpos);
      if (rend == std::string::npos) {
        rend = group.size();
      }
      RouterEndpoint endpoint;
      if (!ParseEndpoint(group.substr(rpos, rend - rpos), &endpoint)) {
        std::fprintf(stderr, "malformed endpoint in --groups: '%s'\n",
                     group.substr(rpos, rend - rpos).c_str());
        return 1;
      }
      replicas.push_back(endpoint);
      rpos = rend + 1;
    }
    if (!replicas.empty()) {
      options.groups.push_back(std::move(replicas));
    }
    pos = end + 1;
  }
  if (options.groups.empty()) {
    std::fprintf(stderr,
                 "pass --groups 'host:port,host:port;host:port'\n");
    return 1;
  }
  options.connect_timeout_ms = static_cast<int>(connect_timeout_ms);
  options.call_timeout_ms = static_cast<int>(call_timeout_ms);
  options.max_attempts = static_cast<int>(max_attempts);
  options.backoff_ms = static_cast<int>(backoff_ms);
  options.enable_hedging = hedge;
  options.hedge_min_ms = static_cast<int>(hedge_min_ms);
  options.hedge_max_ms = static_cast<int>(hedge_max_ms);
  options.knn_wave_size = static_cast<size_t>(knn_wave);
  options.metrics = &MetricsRegistry::Global();

  FlightRecorder flight_recorder(FlightRecorderOptions{.capacity = 512});
  SlowQueryLog slow_log(32);
  options.flight_recorder = &flight_recorder;
  options.slow_log = &slow_log;

  // Router-tier cache: the saved shard databases are immutable, so the
  // fixed version-0 keying is sound (docs/CACHING.md).
  std::unique_ptr<SemanticCache> cache;
  if (use_cache) {
    SemanticCacheOptions cache_options;
    cache_options.max_bytes = static_cast<size_t>(cache_mb) << 20;
    cache_options.tier = "router";
    cache_options.metrics = &MetricsRegistry::Global();
    cache = std::make_unique<SemanticCache>(cache_options);
    options.cache = cache.get();
  }

  // Fleet federation (net/fleet.h): the poller dials the same replica
  // endpoints the router scatter-gathers over and backs
  // /metrics?fleet=1 and /fleetz on the introspection server.
  FleetPollerOptions fleet_options;
  fleet_options.groups = options.groups;
  fleet_options.call_timeout_ms = static_cast<int>(call_timeout_ms);
  fleet_options.poll_interval_ms = static_cast<int>(fleet_poll_ms);
  FleetPoller fleet_poller(std::move(fleet_options));

  std::unique_ptr<Router> router;
  Status status = Router::Create(std::move(options), &router);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // Front door: the same wire protocol the shard servers speak, with
  // the scatter-gather hidden behind it.
  WireServerOptions front_options;
  front_options.name = "router";
  front_options.port = static_cast<uint16_t>(port);
  front_options.admission.per_client_qps = qps;
  front_options.admission.max_inflight = static_cast<int>(max_inflight);
  front_options.metrics = &MetricsRegistry::Global();
  WireServer front(front_options);
  Router* router_ptr = router.get();
  front.Handle(
      WireType::kRange,
      [router_ptr](const std::string&, const JsonValue& request,
                   JsonValue* response) {
        MethodKind kind = MethodKind::kTwSimSearch;
        const std::string method =
            request.GetString("method", MethodKindName(kind));
        if (!ParseWireMethod(method, &kind)) {
          return Status::InvalidArgument("unknown method '" + method + "'");
        }
        const double epsilon = request.GetDouble("epsilon", -1.0);
        Sequence query;
        const JsonValue* query_json = request.Find("query");
        if (query_json == nullptr) {
          return Status::InvalidArgument("request needs 'query'");
        }
        WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
        const bool traced = request.GetBool("trace", false);
        Trace trace;
        SearchResult result;
        WARPINDEX_RETURN_IF_ERROR(router_ptr->RouteRange(
            kind, query, epsilon, traced ? &trace : nullptr, &result));
        JsonValue matches = JsonValue::Array();
        for (const SequenceId id : result.matches) {
          matches.Add(JsonValue::Int(id));
        }
        response->Set("matches", std::move(matches));
        response->Set("num_candidates", JsonValue::Uint(result.num_candidates));
        response->Set("cost", CostToJson(result.cost));
        if (traced) {
          response->Set("spans", SpansToJson(trace.spans()));
        }
        return Status::Ok();
      });
  front.Handle(
      WireType::kKnn,
      [router_ptr](const std::string&, const JsonValue& request,
                   JsonValue* response) {
        const int64_t k = request.GetInt("k", 0);
        if (k < 1) {
          return Status::InvalidArgument("k must be >= 1");
        }
        Sequence query;
        const JsonValue* query_json = request.Find("query");
        if (query_json == nullptr) {
          return Status::InvalidArgument("request needs 'query'");
        }
        WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
        const bool traced = request.GetBool("trace", false);
        Trace trace;
        KnnResult result;
        WARPINDEX_RETURN_IF_ERROR(
            router_ptr->RouteKnn(query, static_cast<size_t>(k),
                                 traced ? &trace : nullptr, &result));
        response->Set("neighbors", KnnMatchesToJson(result.neighbors));
        response->Set("num_refined", JsonValue::Uint(result.num_refined));
        response->Set("cost", CostToJson(result.cost));
        if (traced) {
          response->Set("spans", SpansToJson(trace.spans()));
        }
        return Status::Ok();
      });
  status = front.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  IntrospectionServer http(IntrospectionServerOptions{
      .port = static_cast<uint16_t>(http_port > 0 ? http_port : 0)});
  if (http_port >= 0) {
    RegisterIntrospectionRoutes(
        &http, IntrospectionOptions{.router = router.get(),
                                    .fleet = &fleet_poller,
                                    .router_cache = cache.get(),
                                    .flight_recorder = &flight_recorder,
                                    .slow_log = &slow_log});
    if (fleet_poll_ms > 0) {
      (void)fleet_poller.Start();
    }
    status = http.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "cannot start introspection server: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("introspection server on http://127.0.0.1:%u\n",
                static_cast<unsigned>(http.port()));
  }

  std::printf("router listening on 127.0.0.1:%u "
              "(%zu groups, %zu shards, %s partitioning)\n",
              static_cast<unsigned>(front.port()), router->num_groups(),
              router->num_shards(),
              PartitionerKindName(router->partitioner()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  front.RequestDrain();
  front.WaitIdle();
  front.Stop();
  if (http_port >= 0) {
    http.Stop();
  }
  std::printf("drain complete\n");
  return 0;
}

// `net-query` subcommand: a wire-protocol client. Builds a query the
// same way the main command does, sends it to a router (or directly to
// a shard server with --shards), and prints the answer. --timeout_ms is
// the client-side deadline — a stalled peer surfaces as
// DEADLINE_EXCEEDED, never a hang.
int RunNetQuery(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t timeout_ms = 5000;
  std::string dataset_kind = "stock";
  std::string data_path;
  std::string query_path;
  int64_t query_id = 0;
  bool perturb = true;
  int64_t seed = 1;
  double eps = -1.0;
  int64_t k = 0;
  std::string method = "tw";
  std::string shards_spec;
  int64_t repeat = 1;

  FlagSet flags("warpindex_cli net-query");
  flags.AddString("host", &host, "router or shard-server address");
  flags.AddInt64("port", &port, "wire-protocol port");
  flags.AddInt64("timeout_ms", &timeout_ms,
                 "client deadline covering connect + send + response");
  flags.AddString("dataset", &dataset_kind,
                  "built-in corpus the query is drawn from: stock | walk");
  flags.AddString("data", &data_path, "CSV the query is drawn from");
  flags.AddString("query_file", &query_path,
                  "CSV file whose first sequence is the query");
  flags.AddInt64("query_id", &query_id, "sequence to use as the query");
  flags.AddBool("perturb", &perturb, "perturb the --query_id sequence");
  flags.AddInt64("seed", &seed, "perturbation seed");
  flags.AddDouble("eps", &eps, "tolerance for a range query");
  flags.AddInt64("k", &k, "neighbor count for a kNN query");
  flags.AddString("method", &method,
                  "range-query method: tw | naive | lb | st | cascade");
  flags.AddString("shards", &shards_spec,
                  "talk to a shard server directly: the shard indexes to "
                  "query (omit when talking to a router)");
  flags.AddInt64("repeat", &repeat, "send the query this many times");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "pass --port of a running router\n");
    return 1;
  }
  if (eps < 0.0 && k <= 0) {
    std::fprintf(stderr, "pass --eps <tol> or --k <n>\n");
    return 1;
  }
  MethodKind kind;
  if (!ParseMethod(method, &kind)) {
    return 1;
  }

  Sequence query;
  if (!query_path.empty()) {
    Dataset queries;
    const Status status = LoadDatasetFromCsv(query_path, &queries);
    if (!status.ok() || queries.empty()) {
      std::fprintf(stderr, "cannot load query: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    query = queries[0];
  } else {
    Dataset dataset;
    if (!LoadDatabase(data_path, dataset_kind, &dataset) ||
        dataset.empty()) {
      return 1;
    }
    if (query_id < 0 || static_cast<size_t>(query_id) >= dataset.size()) {
      std::fprintf(stderr, "--query_id out of range\n");
      return 1;
    }
    const Sequence& base = dataset[static_cast<size_t>(query_id)];
    query = perturb ? PerturbSequence(base, static_cast<uint64_t>(seed))
                    : base;
  }

  WireClientOptions client_options;
  client_options.host = host;
  client_options.port = static_cast<uint16_t>(port);
  client_options.timeout_ms = static_cast<int>(timeout_ms);
  client_options.client_id = "net-query";
  WireClient client(client_options);

  JsonValue shards = JsonValue::Null();
  if (!shards_spec.empty()) {
    std::vector<uint32_t> shard_list;
    if (!ParseShardList(shards_spec, &shard_list)) {
      std::fprintf(stderr, "malformed --shards\n");
      return 1;
    }
    shards = JsonValue::Array();
    for (const uint32_t shard : shard_list) {
      shards.Add(JsonValue::Int(shard));
    }
  }

  for (int64_t round = 0; round < repeat; ++round) {
    if (eps >= 0.0) {
      JsonValue request = JsonValue::Object();
      if (!shards.is_null()) {
        request.Set("shards", shards);
      }
      request.Set("method", JsonValue::Str(MethodKindName(kind)));
      request.Set("epsilon", JsonValue::Double(eps));
      request.Set("query", SequenceToJson(query));
      JsonValue response;
      const Status status =
          client.Call(WireType::kRange, request, &response);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("sequences with D_tw <= %.4f: %zu (from %lld "
                  "candidates)\n",
                  eps,
                  response.Find("matches") != nullptr
                      ? response.Find("matches")->size()
                      : 0,
                  static_cast<long long>(
                      response.GetInt("num_candidates", 0)));
      if (const JsonValue* matches = response.Find("matches");
          matches != nullptr) {
        for (const JsonValue& id : matches->items()) {
          std::printf("  #%lld\n",
                      static_cast<long long>(id.AsInt()));
        }
      }
    }
    if (k > 0) {
      JsonValue request = JsonValue::Object();
      if (!shards.is_null()) {
        request.Set("shards", shards);
      }
      request.Set("k", JsonValue::Int(k));
      request.Set("query", SequenceToJson(query));
      JsonValue response;
      const Status status = client.Call(WireType::kKnn, request, &response);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::vector<KnnMatch> neighbors;
      if (const JsonValue* neighbors_json = response.Find("neighbors");
          neighbors_json != nullptr) {
        const Status parse = JsonToKnnMatches(*neighbors_json, &neighbors);
        if (!parse.ok()) {
          std::fprintf(stderr, "%s\n", parse.ToString().c_str());
          return 1;
        }
      }
      std::printf("%zu nearest sequences under D_tw:\n", neighbors.size());
      for (const KnnMatch& n : neighbors) {
        std::printf("  #%-6lld dtw=%.5f\n", static_cast<long long>(n.id),
                    n.distance);
      }
    }
  }
  return 0;
}

// Indented rendering of a trace's span tree with counters.
void PrintTraceTree(const Trace& trace) {
  const auto& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    int depth = 0;
    for (int p = spans[i].parent; p >= 0;
         p = spans[static_cast<size_t>(p)].parent) {
      ++depth;
    }
    std::printf("  %*s%-18s %8.3f ms", depth * 2, "",
                spans[i].name.c_str(), spans[i].duration_ms);
    for (const auto& [name, value] : spans[i].counters) {
      std::printf("  %s=%.0f", name.c_str(), value);
    }
    std::printf("\n");
  }
}

int Run(int argc, char** argv) {
  std::string dataset_kind = "stock";
  std::string data_path;
  std::string query_path;
  int64_t query_id = 0;
  bool perturb = true;
  double eps = -1.0;
  int64_t k = 0;
  bool compare = false;
  int64_t seed = 1;
  std::string trace_out;
  std::string trace_events_out;
  std::string method = "tw";
  int64_t shards = 1;
  std::string partition = "hash";

  // `serve` subcommand: concurrent batch serving (own flag set).
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return RunServe(argc - 1, argv + 1);
  }

  // `inspect` subcommand: scrape a running introspection server.
  if (argc > 1 && std::strcmp(argv[1], "inspect") == 0) {
    return RunInspect(argc - 1, argv + 1);
  }

  // Multi-process serving plane (docs/NETWORKING.md).
  if (argc > 1 && std::strcmp(argv[1], "save") == 0) {
    return RunSave(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "shard-serve") == 0) {
    return RunShardServe(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "route") == 0) {
    return RunRoute(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "net-query") == 0) {
    return RunNetQuery(argc - 1, argv + 1);
  }

  // `stats` subcommand: run the configured query workload, then print the
  // metrics snapshot (Prometheus text). Flags still apply.
  const bool stats_mode =
      argc > 1 && std::strcmp(argv[1], "stats") == 0;
  if (stats_mode) {
    --argc;
    ++argv;
  }

  FlagSet flags("warpindex_cli");
  flags.AddString("dataset", &dataset_kind,
                  "built-in corpus when --data is absent: stock | walk");
  flags.AddString("data", &data_path, "CSV file with one sequence per line");
  flags.AddString("query_file", &query_path,
                  "CSV file whose first sequence is the query");
  flags.AddInt64("query_id", &query_id,
                 "data sequence to use as the query when --query_file is "
                 "absent");
  flags.AddBool("perturb", &perturb,
                "perturb the --query_id sequence (paper's workload recipe) "
                "instead of querying the exact copy");
  flags.AddDouble("eps", &eps, "tolerance for a range query (omit for kNN)");
  flags.AddInt64("k", &k, "neighbor count for a kNN query");
  flags.AddBool("compare", &compare,
                "also run the scan and ST-Filter baselines");
  flags.AddInt64("seed", &seed, "perturbation seed");
  flags.AddString("trace_out", &trace_out,
                  "write the query's span tree to this file as JSON lines");
  flags.AddString("trace_events_out", &trace_events_out,
                  "write the query's span tree to this file as "
                  "Chrome/Perfetto trace-event JSON (ui.perfetto.dev)");
  flags.AddString("method", &method,
                  "range-query method: tw | naive | lb | st | cascade");
  flags.AddInt64("shards", &shards,
                 "partition the database across this many per-shard "
                 "engines with scatter-gather fan-out (1 = unsharded)");
  flags.AddString("partition", &partition,
                  "--shards>1 partitioner: hash | range");
  std::string profile_out;
  int64_t profile_hz = 99;
  flags.AddString("profile_out", &profile_out,
                  "sample the whole run with the SIGPROF CPU profiler and "
                  "write the profile here (.json = speedscope, otherwise "
                  "collapsed stacks)");
  flags.AddInt64("profile_hz", &profile_hz,
                 "--profile_out sampling rate per CPU-second");
  bool use_cache = false;
  int64_t cache_mb = 64;
  flags.AddBool("cache", &use_cache,
                "run the queries through a semantic result cache and "
                "print its hit/miss totals (see docs/CACHING.md)");
  flags.AddInt64("cache_mb", &cache_mb, "--cache byte budget (MiB)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  ScopedCliProfile profile(profile_out, static_cast<int>(profile_hz));
  MethodKind method_kind;
  if (!ParseMethod(method, &method_kind)) {
    return 1;
  }
  if (eps < 0.0 && k <= 0) {
    if (stats_mode) {
      eps = dataset_kind == "stock" ? 4.0 : 0.1;  // demo workload default
    } else {
      std::fprintf(stderr, "pass --eps <tol> for a range query or --k <n> "
                           "for kNN\n");
      return 1;
    }
  }

  // Load or synthesize the database.
  Dataset dataset;
  if (!LoadDatabase(data_path, dataset_kind, &dataset)) {
    return 1;
  }
  if (dataset.empty()) {
    std::fprintf(stderr, "empty dataset\n");
    return 1;
  }
  const DatasetStats stats = dataset.ComputeStats();
  std::printf("database: %zu sequences, lengths %zu..%zu (avg %.0f)\n",
              stats.num_sequences, stats.min_length, stats.max_length,
              stats.avg_length);

  // Build the query before the dataset moves into the engine (a sharded
  // engine splits it and keeps no global copy).
  Sequence query;
  if (!query_path.empty()) {
    Dataset queries;
    const Status status = LoadDatasetFromCsv(query_path, &queries);
    if (!status.ok() || queries.empty()) {
      std::fprintf(stderr, "cannot load query: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    query = queries[0];
  } else {
    if (query_id < 0 || static_cast<size_t>(query_id) >= dataset.size()) {
      std::fprintf(stderr, "--query_id out of range\n");
      return 1;
    }
    const Sequence& base = dataset[static_cast<size_t>(query_id)];
    query = perturb
                ? PerturbSequence(base, static_cast<uint64_t>(seed))
                : base;
    std::printf("query: %s copy of sequence #%lld (%zu elements)\n",
                perturb ? "perturbed" : "exact",
                static_cast<long long>(query_id), query.size());
  }

  EngineOptions options;
  options.build_st_filter = compare || method_kind == MethodKind::kStFilter;
  ServingEngine serving;
  if (!BuildServingEngine(std::move(dataset), options, shards, partition,
                          nullptr, &serving)) {
    return 1;
  }
  const EngineLike& engine = *serving.get();
  // Trace export is a plain span-to-JSON writer; any shard's engine
  // serves for a sharded trace.
  const Engine& trace_engine = serving.single != nullptr
                                   ? *serving.single
                                   : serving.sharded->shard(0);
  if (serving.sharded != nullptr) {
    std::printf("sharded engine: %zu shards, %s partitioning\n",
                serving.sharded->num_shards(),
                PartitionerKindName(serving.sharded->partitioner()));
  }

  // --cache routes the queries through an executor fronted by the
  // semantic cache; the cache registers its warpindex_cache_executor_*
  // series in the engine's registry, so `stats` mode reports the same
  // metric names `serve --cache` exports on /metrics.
  std::unique_ptr<SemanticCache> cache;
  std::unique_ptr<QueryExecutor> cached_executor;
  if (use_cache) {
    SemanticCacheOptions cache_options;
    cache_options.max_bytes = static_cast<size_t>(cache_mb) << 20;
    cache_options.metrics = &engine.metrics();
    cache = std::make_unique<SemanticCache>(cache_options);
    QueryExecutorOptions exec_options;
    exec_options.num_threads = 1;
    exec_options.cache = cache.get();
    cached_executor =
        std::make_unique<QueryExecutor>(serving.get(), exec_options);
  }

  const bool tracing = !trace_out.empty() || !trace_events_out.empty();
  // Traces headed for the trace-event file (one timeline document, so
  // both a kNN and a range trace from this invocation share it).
  std::vector<Trace> event_traces;

  if (k > 0) {
    Trace trace;
    const KnnResult result =
        cached_executor != nullptr
            ? cached_executor->SearchKnn(query, static_cast<size_t>(k),
                                         tracing ? &trace : nullptr)
            : engine.SearchKnn(query, static_cast<size_t>(k),
                               tracing ? &trace : nullptr);
    std::printf("\n%zu nearest sequences under D_tw:\n",
                result.neighbors.size());
    for (const KnnMatch& n : result.neighbors) {
      std::printf("  #%-6lld dtw=%.5f\n", static_cast<long long>(n.id),
                  n.distance);
    }
    std::printf("(refined %zu candidates; %.2f ms CPU, %.1f ms simulated "
                "elapsed)\n",
                result.num_refined, result.cost.wall_ms,
                engine.ElapsedMillis(result.cost));
    if (tracing) {
      if (!trace_out.empty()) {
        const Status status =
            trace_engine.ExportTrace(trace, trace_out, query_id);
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          return 1;
        }
        std::printf("\ntrace (%zu spans, appended to %s):\n",
                    trace.spans().size(), trace_out.c_str());
      } else {
        std::printf("\ntrace (%zu spans):\n", trace.spans().size());
      }
      PrintTraceTree(trace);
      if (!trace_events_out.empty()) {
        event_traces.push_back(trace);
      }
    }
  }

  if (eps >= 0.0) {
    Trace trace;
    const SearchResult result =
        cached_executor != nullptr
            ? cached_executor
                  ->Submit(method_kind, query, eps,
                           tracing ? &trace : nullptr)
                  .get()
            : engine.SearchWith(method_kind, query, eps,
                                tracing ? &trace : nullptr);
    std::printf("\nsequences with D_tw <= %.4f: %zu (from %zu candidates)\n",
                eps, result.matches.size(), result.num_candidates);
    for (const SequenceId id : result.matches) {
      std::printf("  #%lld\n", static_cast<long long>(id));
    }
    std::printf("(%.2f ms CPU, %.1f ms simulated elapsed)\n",
                result.cost.wall_ms, engine.ElapsedMillis(result.cost));
    PrintPruneTable(result.cost.prunes);
    if (tracing) {
      if (!trace_out.empty()) {
        const Status status =
            trace_engine.ExportTrace(trace, trace_out, query_id);
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          return 1;
        }
        std::printf("\ntrace (%zu spans, appended to %s):\n",
                    trace.spans().size(), trace_out.c_str());
      } else {
        std::printf("\ntrace (%zu spans):\n", trace.spans().size());
      }
      PrintTraceTree(trace);
      if (!trace_events_out.empty()) {
        event_traces.push_back(trace);
      }
    }
    if (compare) {
      // Every method is exact, so each must return the answer above.
      std::vector<SequenceId> want = result.matches;
      std::sort(want.begin(), want.end());
      bool agree = true;
      std::printf("\n%-22s %12s %8s %14s\n", "method", "candidates",
                  "matches", "elapsed_ms(sim)");
      for (const MethodKind kind :
           {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade,
            MethodKind::kLbScan, MethodKind::kNaiveScan,
            MethodKind::kStFilter}) {
        const SearchResult r = engine.SearchWith(kind, query, eps);
        std::vector<SequenceId> got = r.matches;
        std::sort(got.begin(), got.end());
        const bool same = got == want;
        agree = agree && same;
        std::printf("%-22s %12zu %8zu %14.1f%s\n", MethodKindName(kind),
                    r.num_candidates, r.matches.size(),
                    engine.ElapsedMillis(r.cost),
                    same ? "" : "  ANSWER DIFFERS");
      }
      if (!agree) {
        std::fprintf(stderr, "--compare: methods disagree on the answer\n");
        return 1;
      }
    }
  }

  if (!trace_events_out.empty()) {
    std::vector<const Trace*> traces;
    traces.reserve(event_traces.size());
    for (const Trace& t : event_traces) {
      traces.push_back(&t);
    }
    const Status status =
        trace_engine.ExportTraceEvents(traces, trace_events_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu trace(s) to %s (trace-event JSON; open in "
                "ui.perfetto.dev)\n",
                traces.size(), trace_events_out.c_str());
  }

  if (cache != nullptr) {
    const SemanticCacheStats cache_stats = cache->TakeStats();
    std::printf("\ncache: warpindex_cache_executor_hits_total=%llu "
                "warpindex_cache_executor_misses_total=%llu "
                "(hit ratio %.3f, %zu entries, %zu bytes)\n",
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses),
                cache_stats.hit_ratio, cache_stats.entries,
                cache_stats.bytes);
  }

  if (stats_mode) {
    const BuildInfo build_info = GetBuildInfo();
    const ProcessSelfMetrics process = CollectProcessSelfMetrics();
    std::printf("\n== metrics snapshot ==\n%s",
                MetricsToPrometheusText(engine.metrics().TakeSnapshot(),
                                        &build_info, &process)
                    .c_str());
  }
  return 0;
}

}  // namespace
}  // namespace warpindex

int main(int argc, char** argv) { return warpindex::Run(argc, argv); }
