#include "ingest/ingest_engine.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "ingest/compactor.h"
#include "shard/fanout.h"
#include "shard/shard_io.h"

namespace warpindex {
IngestEngine::IngestEngine(Dataset dataset, IngestOptions options)
    : options_(std::move(options)),
      disk_model_(options_.engine.disk, options_.engine.page_size_bytes) {
  assert(options_.num_shards >= 1);
  ShardAssignment assignment =
      AssignShards(dataset, options_.partitioner, options_.num_shards);
  auto view = std::make_shared<ShardView>();
  view->shards = BuildShardSet(dataset, assignment, options_.engine);
  if (options_.partitioner == PartitionerKind::kRange) {
    view->range_cuts = InitialRangeCuts(view->shards);
  }
  view_ = std::move(view);
  part_of_ = std::move(assignment.shard_of);
  live_count_.store(static_cast<int64_t>(dataset.size()),
                    std::memory_order_relaxed);
  InitWiring();
}

IngestEngine::IngestEngine(std::shared_ptr<const ShardView> view,
                           std::vector<uint32_t> part_of,
                           IngestOptions options)
    : options_(std::move(options)),
      disk_model_(options_.engine.disk, options_.engine.page_size_bytes),
      view_(std::move(view)),
      part_of_(std::move(part_of)) {
  int64_t live = 0;
  for (const BaseShard& shard : view_->shards) {
    live += static_cast<int64_t>(shard.engine->live_size());
  }
  live_count_.store(live, std::memory_order_relaxed);
  InitWiring();
}

IngestEngine::~IngestEngine() {
  // The compactor must drain (its jobs touch *this) before any member
  // goes away.
  compactor_.reset();
}

void IngestEngine::InitWiring() {
  const size_t k = view_->shards.size();
  deltas_.clear();
  deltas_.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    deltas_.push_back(std::make_unique<DeltaShard>());
  }
  shard_compactions_ = std::vector<std::atomic<uint64_t>>(k);
  shard_last_compaction_ms_ = std::vector<std::atomic<double>>(k);
  shard_queries_ = std::vector<std::atomic<uint64_t>>(k);
  shard_skipped_ = std::vector<std::atomic<uint64_t>>(k);

  metrics_ = options_.engine.metrics != nullptr ? options_.engine.metrics
                                                : &MetricsRegistry::Global();
  inserts_total_ = metrics_->GetCounter("warpindex_ingest_inserts_total",
                                        "Sequences inserted via ingest");
  deletes_total_ = metrics_->GetCounter("warpindex_ingest_deletes_total",
                                        "Sequences tombstoned via ingest");
  compactions_total_ =
      metrics_->GetCounter("warpindex_ingest_compactions_total",
                           "Delta-into-base merges completed");
  cut_rebalances_total_ =
      metrics_->GetCounter("warpindex_ingest_cut_rebalances_total",
                           "Range-partitioner cut recomputations");
  delta_entries_gauge_ =
      metrics_->GetGauge("warpindex_ingest_delta_entries",
                         "Buffered delta entries across all shards");
  backlog_gauge_ = metrics_->GetGauge(
      "warpindex_ingest_compaction_backlog",
      "Shards currently over a compaction trigger threshold");
  compaction_ms_hist_ = metrics_->GetHistogram(
      "warpindex_ingest_compaction_ms", ExponentialBoundaries(0.1, 2.0, 16),
      "Compaction duration (freeze + rebuild + swap), ms");
  queries_total_ =
      metrics_->GetCounter("warpindex_shard_queries_total",
                           "Logical queries served by the partitioned engine");
  subqueries_total_ = metrics_->GetCounter(
      "warpindex_shard_subqueries_total", "Per-partition sub-queries executed");
  skipped_total_ =
      metrics_->GetCounter("warpindex_shard_skipped_total",
                           "Partition visits avoided by feature-MBR pruning");
  fanout_hist_ = metrics_->GetHistogram(
      "warpindex_shard_fanout", LinearBoundaries(1.0, 1.0, 16),
      "Partitions searched per logical query");
  shard_delta_gauges_.clear();
  for (size_t s = 0; s < k; ++s) {
    shard_delta_gauges_.push_back(metrics_->GetGauge(
        "warpindex_ingest_delta_entries_shard" + std::to_string(s),
        "Buffered delta entries of shard " + std::to_string(s)));
  }

  if (options_.start_compactor) {
    compactor_ = std::make_unique<Compactor>(this, options_.compact_poll_ms,
                                             options_.compact_on_pool);
  }
}

size_t IngestEngine::id_space() const {
  std::lock_guard<std::mutex> lock(ids_mu_);
  return part_of_.size();
}

std::shared_ptr<const ShardView> IngestEngine::CurrentView() const {
  std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
  return view_;
}

IngestEngine::QuerySnapshot IngestEngine::AcquireSnapshot() const {
  std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
  QuerySnapshot snap;
  snap.view = view_;
  snap.parts.reserve(deltas_.size());
  for (const auto& delta : deltas_) {
    snap.parts.push_back(delta->TakeSnapshot());
  }
  return snap;
}

double IngestEngine::ElapsedMillis(const SearchCost& cost) const {
  return cost.wall_ms + disk_model_.CostMillis(cost.io);
}

size_t IngestEngine::RouteInsert(const ShardView& view,
                                 const FeatureVector& feature,
                                 SequenceId id) const {
  if (options_.partitioner == PartitionerKind::kRange &&
      !view.range_cuts.empty()) {
    return RouteByRangeCuts(view.range_cuts, FeatureKeyOf(feature));
  }
  return static_cast<size_t>(MixSequenceId(static_cast<uint64_t>(id)) %
                             view.shards.size());
}

SequenceId IngestEngine::Insert(Sequence s) {
  assert(!s.empty());  // and finite, which Sequence asserts on construction
  const FeatureVector feature = ExtractFeature(s);

  std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
  const std::shared_ptr<const ShardView>& view = view_;
  SequenceId id;
  size_t part;
  {
    std::lock_guard<std::mutex> ids(ids_mu_);
    id = static_cast<SequenceId>(part_of_.size());
    part = RouteInsert(*view, feature, id);
    part_of_.push_back(static_cast<uint32_t>(part));
  }
  s.set_id(id);
  DeltaEntry entry;
  entry.id = id;
  entry.feature = feature;
  entry.sequence = std::make_shared<const Sequence>(std::move(s));
  entry.appended_ms = clock_.ElapsedMillis();
  deltas_[part]->Append(std::move(entry));

  live_count_.fetch_add(1, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  data_version_.fetch_add(1, std::memory_order_release);
  inserts_total_->Increment();
  delta_entries_gauge_->Increment();
  shard_delta_gauges_[part]->Increment();
  return id;
}

bool IngestEngine::Delete(SequenceId id) {
  if (id < 0) {
    return false;
  }
  std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
  const std::shared_ptr<const ShardView>& view = view_;
  uint32_t part;
  {
    std::lock_guard<std::mutex> ids(ids_mu_);
    if (static_cast<size_t>(id) >= part_of_.size()) {
      return false;
    }
    part = part_of_[static_cast<size_t>(id)];
  }
  if (part == kDroppedShard) {
    return false;
  }

  // Is `id` currently a live base row of its partition? (A compacted-away
  // id is absent from global_of; a buffered insert is present only in the
  // delta, which MarkDead checks itself.)
  const BaseShard& base = view->shards[part];
  bool base_live = false;
  const std::vector<SequenceId>& global_of = *base.global_of;
  const auto it =
      std::lower_bound(global_of.begin(), global_of.end(), id);
  if (it != global_of.end() && *it == id) {
    const SequenceId local =
        static_cast<SequenceId>(it - global_of.begin());
    base_live = base.engine->Contains(local);
  }

  const DeltaShard::DeadMark mark = deltas_[part]->MarkDead(id, base_live);
  if (mark != DeltaShard::DeadMark::kMarked) {
    return false;
  }
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  deletes_.fetch_add(1, std::memory_order_relaxed);
  data_version_.fetch_add(1, std::memory_order_release);
  deletes_total_->Increment();
  return true;
}

std::vector<size_t> IngestEngine::SelectPartitions(
    const QuerySnapshot& snap, const Point& query_point, double epsilon,
    std::vector<bool>* base_hit) const {
  // A pruned base contributes no matches, so its tombstones are
  // irrelevant to this query; its buffered rows still are.
  const size_t num_parts = snap.view->shards.size();
  std::vector<size_t> active;
  active.reserve(num_parts);
  base_hit->assign(num_parts, false);
  for (size_t s = 0; s < num_parts; ++s) {
    (*base_hit)[s] =
        PartitionMayMatch(snap.view->shards[s].bounds, query_point, epsilon);
    if ((*base_hit)[s] || !snap.parts[s].entries.empty()) {
      active.push_back(s);
      shard_queries_[s].fetch_add(1, std::memory_order_relaxed);
    } else {
      shard_skipped_[s].fetch_add(1, std::memory_order_relaxed);
    }
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  queries_total_->Increment();
  subqueries_total_->Increment(active.size());
  skipped_total_->Increment(num_parts - active.size());
  fanout_hist_->Observe(static_cast<double>(active.size()));
  return active;
}

SearchResult IngestEngine::SearchWith(MethodKind kind, const Sequence& query,
                                      double epsilon, Trace* trace,
                                      DtwScratch* /*scratch*/) const {
  FanOutClock clock;
  const QuerySnapshot snap = AcquireSnapshot();
  const FeatureVector qfeat = ExtractFeature(query);
  std::vector<bool> base_hit;
  const std::vector<size_t> active = SelectPartitions(
      snap, FeatureIndex::FeatureToPoint(qfeat), epsilon, &base_hit);
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;

  // Two partials per partition: its base's answer, then its delta's.
  std::vector<SearchResult> partials(2 * active.size());
  RunFanOut(
      pool_, snap.view->shards.size(), active, trace,
      {{"partitioner", static_cast<double>(options_.partitioner)},
       {"epoch", static_cast<double>(snap.view->epoch)}},
      &clock, [&](size_t i, size_t s, Trace* sub) {
        DtwScratch scratch;
        const BaseShard& shard = snap.view->shards[s];
        SearchResult& base = partials[2 * i];
        if (base_hit[s]) {
          base = shard.engine->SearchWith(kind, query, epsilon, sub, &scratch);
          RemapToGlobal(*shard.global_of, &snap.parts[s].dead, &base);
          TraceCounter(sub, "candidates",
                       static_cast<double>(base.num_candidates));
          TraceCounter(sub, "matches",
                       static_cast<double>(base.matches.size()));
          TraceCounter(sub, "index_nodes",
                       static_cast<double>(base.cost.index_nodes));
          TraceCounter(sub, "dtw_evals",
                       static_cast<double>(base.cost.dtw_evals));
        }
        // The buffered rows are candidates like the base's index hits:
        // selected by the predicate the R-tree applies (D_tw-lb <=
        // epsilon, on the stored feature), then refined by this
        // partition engine's Algorithm 1 tail. Entry ids are already
        // global; tombstoned entries are not in the snapshot.
        SearchResult& delta = partials[2 * i + 1];
        const std::vector<DeltaEntry>& entries = snap.parts[s].entries;
        if (!entries.empty()) {
          ScopedSpan delta_span(sub, "delta_scan");
          ThreadCpuTimer delta_cpu;
          std::vector<const Sequence*> candidates;
          for (const DeltaEntry& entry : entries) {
            if (DtwLowerBoundDistance(entry.feature, qfeat) <= epsilon) {
              candidates.push_back(entry.sequence.get());
            }
          }
          if (!candidates.empty()) {
            delta = shard.engine->Refine(kind, query, epsilon,
                                         std::move(candidates), sub, &scratch);
          }
          TraceCounter(sub, "delta_entries",
                       static_cast<double>(entries.size()));
          TraceCounter(sub, "delta_matches",
                       static_cast<double>(delta.matches.size()));
          delta.cost.lb_evals += entries.size();
          delta.cost.cpu_ms = delta_cpu.ElapsedMillis();
        }
        if (options_.flight_recorder != nullptr) {
          SearchCost cost = base.cost;
          cost.Merge(delta.cost);
          FlightRecord record = MakeFlightRecord(
              MethodKindName(kind), epsilon, query.size(),
              base.matches.size() + delta.matches.size(),
              base.num_candidates + delta.num_candidates, cost, trace_id);
          record.shard = static_cast<int32_t>(s);
          options_.flight_recorder->Record(std::move(record));
        }
      });
  SearchResult result = MergeRange(&partials);
  clock.Stamp(&result.cost);
  return result;
}

KnnResult IngestEngine::SearchKnnSeeded(const Sequence& query, size_t k,
                                        double seed_bound,
                                        Trace* trace) const {
  FanOutClock clock;
  const QuerySnapshot snap = AcquireSnapshot();
  const FeatureVector qfeat = ExtractFeature(query);
  // No epsilon to prune against up front: every live base feeds the one
  // merged candidate stream, which reads only as far into each index as
  // the k-th distance allows.
  std::vector<bool> base_hit;
  std::vector<size_t> bases =
      SelectPartitions(snap, FeatureIndex::FeatureToPoint(qfeat),
                       kInfiniteDistance, &base_hit);
  std::erase_if(bases, [&](size_t s) { return !base_hit[s]; });
  // The buffered rows join the partitions' index streams as one more
  // source, bounded by D_tw-lb on their stored features (their ids are
  // global already; tombstoned ones are not in the snapshot). The
  // snapshot's dead sets drop tombstoned base rows before their fetch.
  std::vector<BufferedKnnRow> buffered;
  std::vector<const std::vector<SequenceId>*> dead;
  for (const DeltaShard::Snapshot& part : snap.parts) {
    for (const DeltaEntry& entry : part.entries) {
      buffered.push_back({DtwLowerBoundDistance(entry.feature, qfeat),
                          entry.id, entry.sequence.get()});
    }
    dead.push_back(&part.dead);
  }
  const size_t lb_evals = buffered.size();
  KnnResult result =
      SearchPartitionsKnn(snap.view->shards, bases, dead, std::move(buffered),
                          query, k, seed_bound, trace);
  result.cost.lb_evals += lb_evals;
  clock.ExcludeCpu(result.cost.cpu_ms);
  clock.Stamp(&result.cost);
  return result;
}

bool IngestEngine::CompactShard(size_t s) {
  assert(s < deltas_.size());
  std::lock_guard<std::mutex> compaction(compaction_mu_);
  WallTimer timer;
  ThreadCpuTimer cpu_timer;

  Trace trace;
  const bool tracing = options_.trace_store != nullptr;
  size_t root_span = 0;
  if (tracing) {
    root_span = trace.BeginSpan("compaction");
    trace.AddCounter("shard_index", static_cast<double>(s));
  }

  // Freeze: the delta log prefix + tombstone set this merge will consume.
  std::shared_ptr<const ShardView> view;
  DeltaShard::Frozen frozen;
  {
    ScopedSpan freeze_span(tracing ? &trace : nullptr, "freeze");
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    view = view_;
    frozen = deltas_[s]->Freeze();
  }
  if (frozen.entry_count == 0 && frozen.dead.empty()) {
    if (tracing) {
      trace.EndSpan(root_span);
    }
    return false;
  }

  // Build the replacement base off-lock: the live base rows minus the
  // frozen tombstones, merged with the frozen live entries, in ascending
  // global id order (Dataset::Add re-ids to local position, so the new
  // global_of is exactly the merged id list).
  const BaseShard& base = view->shards[s];
  std::shared_ptr<const Engine> new_engine;
  std::shared_ptr<const std::vector<SequenceId>> new_global;
  ShardFeatureBounds new_bounds;
  {
    ScopedSpan build_span(tracing ? &trace : nullptr, "build");
    std::vector<std::pair<SequenceId, const Sequence*>> rows;
    const std::vector<SequenceId>& global_of = *base.global_of;
    rows.reserve(global_of.size() + frozen.entry_count);
    for (size_t local = 0; local < global_of.size(); ++local) {
      const SequenceId g = global_of[local];
      if (!base.engine->Contains(static_cast<SequenceId>(local)) ||
          IsDead(&frozen.dead, g)) {
        continue;
      }
      rows.push_back({g, &base.engine->dataset()[local]});
    }
    std::vector<std::pair<SequenceId, const Sequence*>> delta_rows;
    delta_rows.reserve(frozen.entry_count);
    for (size_t i = 0; i < frozen.entry_count; ++i) {
      const DeltaEntry& entry = frozen.entries[i];
      if (!IsDead(&frozen.dead, entry.id)) {
        delta_rows.push_back({entry.id, entry.sequence.get()});
      }
    }
    // Concurrent inserts may append out of id order; the base list is
    // ascending by construction.
    std::sort(delta_rows.begin(), delta_rows.end());
    rows.insert(rows.end(), delta_rows.begin(), delta_rows.end());
    std::inplace_merge(rows.begin(), rows.end() - delta_rows.size(),
                       rows.end());

    Dataset merged;
    std::vector<SequenceId> ids;
    ids.reserve(rows.size());
    for (const auto& [g, seq] : rows) {
      merged.Add(*seq);
      ids.push_back(g);
      new_bounds.Cover(ExtractFeature(*seq));
    }
    if (tracing) {
      trace.AddCounter("merged_rows", static_cast<double>(rows.size()));
      trace.AddCounter("frozen_entries",
                       static_cast<double>(frozen.entry_count));
      trace.AddCounter("frozen_tombstones",
                       static_cast<double>(frozen.dead.size()));
    }
    new_engine = std::make_shared<Engine>(std::move(merged), options_.engine);
    new_global =
        std::make_shared<const std::vector<SequenceId>>(std::move(ids));
  }

  // Swap: publish the next epoch and drop the frozen writes from the
  // delta under one writer hold, so no query can pair the new base with
  // a delta that no longer buffers those writes (or vice versa).
  {
    ScopedSpan swap_span(tracing ? &trace : nullptr, "swap");
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    auto next = std::make_shared<ShardView>(*view_);
    next->shards[s].engine = std::move(new_engine);
    next->shards[s].global_of = std::move(new_global);
    next->shards[s].bounds = new_bounds;
    next->epoch = view_->epoch + 1;
    MaybeRebalanceCuts(next.get(), s);
    deltas_[s]->ApplyCompaction(frozen);
    view_ = std::move(next);
    // Compaction preserves answers, but conservatively invalidating here
    // keeps the cache contract trivial: version equality implies the
    // engine state a cached entry answered under is byte-for-byte the
    // state a reuse would query.
    data_version_.fetch_add(1, std::memory_order_release);
  }

  const double duration_ms = timer.ElapsedMillis();
  compactions_total_->Increment();
  shard_compactions_[s].fetch_add(1, std::memory_order_relaxed);
  shard_last_compaction_ms_[s].store(duration_ms, std::memory_order_relaxed);
  compaction_ms_hist_->Observe(duration_ms);
  delta_entries_gauge_->Decrement(static_cast<int64_t>(frozen.entry_count));
  shard_delta_gauges_[s]->Decrement(static_cast<int64_t>(frozen.entry_count));

  if (tracing) {
    trace.EndSpan(root_span);
    CompletedTrace completed;
    completed.method = "compaction";
    completed.wall_ms = duration_ms;
    completed.cpu_ms = cpu_timer.ElapsedMillis();
    completed.matches = frozen.entry_count;
    completed.trace = std::move(trace);
    options_.trace_store->Offer(std::move(completed));
  }
  return true;
}

size_t IngestEngine::CompactAll() {
  size_t merged = 0;
  for (size_t s = 0; s < deltas_.size(); ++s) {
    if (CompactShard(s)) {
      ++merged;
    }
  }
  return merged;
}

void IngestEngine::MaybeRebalanceCuts(ShardView* next, size_t s) {
  if (options_.partitioner != PartitionerKind::kRange ||
      options_.rebalance_factor <= 1.0 || next->shards.size() < 2 ||
      next->range_cuts.empty()) {
    return;
  }
  size_t total = 0;
  for (const BaseShard& shard : next->shards) {
    total += shard.global_of->size();
  }
  const size_t size_s = next->shards[s].global_of->size();
  const double avg =
      static_cast<double>(total) / static_cast<double>(next->shards.size());
  if (size_s < 8 ||
      static_cast<double>(size_s) <= options_.rebalance_factor * avg) {
    return;
  }
  // Median split of the outgrown shard's keys: future inserts for its
  // upper half route to the right neighbor. Routing only — placement
  // never changes answers — so no data moves.
  const Dataset& data = next->shards[s].engine->dataset();
  std::vector<FeatureKey> keys;
  keys.reserve(data.size());
  for (size_t local = 0; local < data.size(); ++local) {
    keys.push_back(FeatureKeyOf(ExtractFeature(data[local])));
  }
  auto median = keys.begin() + keys.size() / 2;
  std::nth_element(keys.begin(), median, keys.end());
  if (s + 1 < next->shards.size()) {
    next->range_cuts[s] = *median;
  } else {
    // The last shard has no right neighbor; lowering the PREVIOUS cut
    // would move keys left, so only ever raise it toward the median.
    next->range_cuts[s - 1] = std::max(next->range_cuts[s - 1], *median);
  }
  cut_rebalances_.fetch_add(1, std::memory_order_relaxed);
  cut_rebalances_total_->Increment();
}

Status IngestEngine::Save(const std::string& dir) {
  CompactAll();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  const std::shared_ptr<const ShardView> view = CurrentView();
  ShardManifest manifest;
  manifest.partitioner = options_.partitioner;
  manifest.page_size_bytes = options_.engine.page_size_bytes;
  manifest.assignment.num_shards = view->shards.size();
  {
    std::lock_guard<std::mutex> ids(ids_mu_);
    manifest.assignment.shard_of.assign(part_of_.size(), kDroppedShard);
  }
  for (size_t s = 0; s < view->shards.size(); ++s) {
    for (const SequenceId g : *view->shards[s].global_of) {
      manifest.assignment.shard_of[static_cast<size_t>(g)] =
          static_cast<uint32_t>(s);
    }
  }
  manifest.range_cuts.assign(view->range_cuts.begin(),
                             view->range_cuts.end());
  WARPINDEX_RETURN_IF_ERROR(
      SaveShardManifest(dir + "/manifest.wism", manifest));
  for (size_t s = 0; s < view->shards.size(); ++s) {
    WARPINDEX_RETURN_IF_ERROR(
        view->shards[s].engine->Save(dir + "/" + ShardSubdir(s)));
  }
  return Status::Ok();
}

Status IngestEngine::Open(const std::string& dir, IngestOptions options,
                          std::unique_ptr<IngestEngine>* out) {
  const ShardSetShape shape{options.num_shards, options.partitioner,
                            options.engine.page_size_bytes};
  ShardSet set;
  WARPINDEX_RETURN_IF_ERROR(
      OpenShardSet(dir, {}, options.engine, &shape, &set));
  auto view = std::make_shared<ShardView>();
  view->shards = std::move(set.shards);
  if (options.partitioner == PartitionerKind::kRange) {
    // A v1 manifest (pre-ingest writer) carries no cuts: recompute the
    // initial ones the constructor would have produced.
    view->range_cuts =
        set.manifest.range_cuts.empty()
            ? InitialRangeCuts(view->shards)
            : std::vector<FeatureKey>(set.manifest.range_cuts.begin(),
                                      set.manifest.range_cuts.end());
  }
  out->reset(new IngestEngine(std::move(view),
                              std::move(set.manifest.assignment.shard_of),
                              std::move(options)));
  return Status::Ok();
}

bool IngestEngine::ShouldCompact(size_t s) const {
  const DeltaShard::Stats stats = deltas_[s]->TakeStats();
  if (stats.entries >= options_.compact_max_delta_entries) {
    return true;
  }
  if (stats.dead >= options_.compact_max_tombstones) {
    return true;
  }
  if (options_.compact_max_delta_age_ms > 0.0 && stats.entries > 0 &&
      clock_.ElapsedMillis() - stats.oldest_ms >=
          options_.compact_max_delta_age_ms) {
    return true;
  }
  return false;
}

void IngestEngine::SetCompactionBacklog(size_t backlog) {
  backlog_gauge_->Set(static_cast<int64_t>(backlog));
}

IngestEngine::Health IngestEngine::TakeHealthSnapshot() const {
  Health health;
  const std::shared_ptr<const ShardView> view = CurrentView();
  health.num_shards = view->shards.size();
  health.partitioner = options_.partitioner;
  health.epoch = view->epoch;
  health.live_sequences = live_size();
  health.id_space = id_space();
  health.inserts_total = inserts_.load(std::memory_order_relaxed);
  health.deletes_total = deletes_.load(std::memory_order_relaxed);
  health.cut_rebalances_total =
      cut_rebalances_.load(std::memory_order_relaxed);
  health.queries_total = queries_.load(std::memory_order_relaxed);
  health.shards.resize(view->shards.size());
  for (size_t s = 0; s < view->shards.size(); ++s) {
    ShardStatus& status = health.shards[s];
    status.shard_index = s;
    status.base_sequences = view->shards[s].global_of->size();
    const DeltaShard::Stats stats = deltas_[s]->TakeStats();
    status.delta_entries = stats.entries;
    status.tombstones = stats.dead;
    status.writes_total = stats.writes_total;
    status.write_rate_per_s = deltas_[s]->write_rate();
    status.compactions = shard_compactions_[s].load(std::memory_order_relaxed);
    status.last_compaction_ms =
        shard_last_compaction_ms_[s].load(std::memory_order_relaxed);
    status.queries = shard_queries_[s].load(std::memory_order_relaxed);
    status.skipped = shard_skipped_[s].load(std::memory_order_relaxed);
    status.base_health = view->shards[s].engine->TakeHealthSnapshot();
    status.bounds = view->shards[s].bounds;
    health.compactions_total += status.compactions;
    health.subqueries_total += status.queries;
    health.shards_skipped_total += status.skipped;
    if (ShouldCompact(s)) {
      ++health.compaction_backlog;
    }
  }
  return health;
}

}  // namespace warpindex
