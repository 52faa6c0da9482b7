#include "shard/sharded_engine.h"

#include <utility>

namespace warpindex {

ShardedEngine::ShardedEngine(Dataset dataset, ShardedEngineOptions options) {
  options.start_compactor = false;
  ingest_ = std::make_unique<IngestEngine>(std::move(dataset),
                                           std::move(options));
  view_ = ingest_->CurrentView();
}

ShardedEngine::ShardedEngine(std::unique_ptr<IngestEngine> ingest)
    : ingest_(std::move(ingest)), view_(ingest_->CurrentView()) {}

Status ShardedEngine::Open(const std::string& dir,
                           ShardedEngineOptions options,
                           std::unique_ptr<ShardedEngine>* out) {
  options.start_compactor = false;
  std::unique_ptr<IngestEngine> ingest;
  WARPINDEX_RETURN_IF_ERROR(
      IngestEngine::Open(dir, std::move(options), &ingest));
  out->reset(new ShardedEngine(std::move(ingest)));
  return Status::Ok();
}

}  // namespace warpindex
