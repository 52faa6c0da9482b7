#include "net/wire_server.h"

#include "common/timer.h"

#include "obs/profiler.h"

#include <sys/socket.h>

#include <chrono>
#include <utility>

namespace warpindex {
namespace {

double MonotonicMillis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsQueryType(WireType type) {
  return type == WireType::kRange || type == WireType::kKnn;
}

bool IsRequestType(WireType type) {
  switch (type) {
    case WireType::kHello:
    case WireType::kRange:
    case WireType::kKnn:
    case WireType::kHealth:
    case WireType::kDrain:
    case WireType::kStats:
      return true;
    default:
      return false;
  }
}

}  // namespace

WireServer::WireServer(WireServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {}

WireServer::~WireServer() { Stop(); }

void WireServer::Handle(WireType type, Handler handler) {
  handlers_[type] = std::move(handler);
}

Status WireServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("wire server already running");
  }
  TcpListenerOptions listen_options;
  listen_options.bind_address = options_.bind_address;
  listen_options.port = options_.port;
  listen_options.backlog = options_.backlog;
  WARPINDEX_RETURN_IF_ERROR(listener_.Listen(listen_options));
  if (options_.metrics != nullptr) {
    requests_counter_ = options_.metrics->GetCounter(
        "warpindex_net_requests_total",
        "Wire requests received (" + options_.name + ")");
    errors_counter_ = options_.metrics->GetCounter(
        "warpindex_net_errors_total",
        "Wire error responses sent (" + options_.name + ")");
    shed_counter_ = options_.metrics->GetCounter(
        "warpindex_net_shed_total",
        "Wire requests rejected by admission control (" + options_.name +
            ")");
    connections_gauge_ = options_.metrics->GetGauge(
        "warpindex_net_connections",
        "Open wire connections (" + options_.name + ")");
    query_wall_ms_hist_ = options_.metrics->GetHistogram(
        "warpindex_net_query_wall_ms",
        ExponentialBoundaries(0.01, 2.0, 20),
        "wall time per wire query request, handler-side (ms)");
    query_cpu_ms_hist_ = options_.metrics->GetHistogram(
        "warpindex_net_query_cpu_ms",
        ExponentialBoundaries(0.01, 2.0, 20),
        "handler-thread CPU time per wire query request (ms)");
  }
  stopping_.store(false);
  draining_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] {
    CpuProfiler::SetThreadTag("wire-accept");
    AcceptLoop();
  });
  return Status::Ok();
}

void WireServer::RequestDrain() {
  draining_.store(true);
  // Stop accepting: new clients get ECONNREFUSED and try a replica.
  listener_.Shutdown();
}

void WireServer::WaitIdle() {
  std::unique_lock<std::mutex> lock(stats_mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void WireServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stopping_.store(true);
  draining_.store(true);
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    std::lock_guard<std::mutex> lock(conn->fd_mu);
    if (conn->fd >= 0) {
      // Wake a blocked read; the connection thread closes its own fd.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  listener_.Close();
}

WireServerStats WireServer::stats() const {
  WireServerStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.requests_total = requests_total_;
    stats.errors_total = errors_total_;
    stats.inflight = inflight_;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    stats.connections_total = connections_total_;
    int active = 0;
    for (const auto& conn : connections_) {
      if (!conn->done.load()) {
        ++active;
      }
    }
    stats.active_connections = active;
  }
  stats.shed_total =
      admission_.shed_quota_total() + admission_.shed_overload_total();
  stats.draining = draining_.load();
  return stats;
}

void WireServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = listener_.Accept();
    if (fd < 0) {
      break;  // listener shut down (Stop or drain)
    }
    SetSocketIoTimeout(fd, options_.io_timeout_ms);
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    connections_.push_back(std::make_unique<Connection>());
    Connection* conn = connections_.back().get();
    conn->fd = fd;
    ++connections_total_;
    if (connections_gauge_ != nullptr) {
      connections_gauge_->Increment(1);
    }
    conn->thread = std::thread([this, conn] {
      CpuProfiler::SetThreadTag("wire-conn");
      ServeConnection(conn);
    });
  }
}

void WireServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) {
        (*it)->thread.join();
      }
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void WireServer::ServeConnection(Connection* conn) {
  // Only this thread changes the fd (set before the thread started), so
  // it reads it once without the lock.
  const int fd = conn->fd;
  std::string client_id = "anon";
  while (!stopping_.load()) {
    WireFrame frame;
    bool idle = false;
    const Status status =
        ReadFrame(fd, &frame, options_.max_body_bytes, &idle);
    if (!status.ok()) {
      if (idle) {
        continue;  // poll tick: no bytes arrived; re-check stop flag
      }
      break;  // clean close, desync, or transport failure
    }
    if (!DispatchFrame(fd, frame, &client_id)) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->fd_mu);
    CloseSocket(fd);
    conn->fd = -1;
  }
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Increment(-1);
  }
  conn->done.store(true);
}

bool WireServer::DispatchFrame(int fd, const WireFrame& frame,
                               std::string* client_id) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++requests_total_;
  }
  if (requests_counter_ != nullptr) {
    requests_counter_->Increment();
  }

  auto send_error = [&](const Status& status) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++errors_total_;
    }
    if (errors_counter_ != nullptr) {
      errors_counter_->Increment();
    }
    return WriteFrame(fd, MakeErrorFrame(frame.request_id, status)).ok();
  };

  if (!IsRequestType(frame.type)) {
    return send_error(Status::InvalidArgument(
        std::string("expected a request frame, got ") +
        WireTypeName(frame.type)));
  }

  JsonValue request;
  if (frame.body.empty()) {
    request = JsonValue::Object();
  } else {
    const Status parse_status = JsonValue::Parse(frame.body, &request);
    if (!parse_status.ok()) {
      return send_error(Status::InvalidArgument(
          std::string("malformed ") + WireTypeName(frame.type) +
          " body: " + parse_status.message()));
    }
  }

  if (frame.type == WireType::kHello) {
    const std::string hello_client = request.GetString("client", "");
    if (!hello_client.empty()) {
      *client_id = hello_client;
    }
  }

  if (IsQueryType(frame.type) && draining_.load()) {
    return send_error(Status::Unavailable(options_.name + " is draining"));
  }

  const auto handler_it = handlers_.find(frame.type);

  JsonValue response = JsonValue::Object();
  Status handler_status = Status::Ok();

  if (IsQueryType(frame.type)) {
    if (handler_it == handlers_.end()) {
      return send_error(Status::InvalidArgument(
          std::string(WireTypeName(frame.type)) +
          " is not served by this " + options_.name));
    }
    const Status admit =
        admission_.Admit(*client_id, MonotonicMillis());
    if (!admit.ok()) {
      if (shed_counter_ != nullptr) {
        shed_counter_->Increment();
      }
      return send_error(admit);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++inflight_;
    }
    // The fleet page reads wall and CPU p99s of this pair: CPU tracks
    // the handler thread (shard servers search inline), so a wall>>CPU
    // gap on a replica means waiting, not work.
    WallTimer query_timer;
    ThreadCpuTimer query_cpu_timer;
    handler_status = handler_it->second(*client_id, request, &response);
    if (query_wall_ms_hist_ != nullptr) {
      query_wall_ms_hist_->Observe(query_timer.ElapsedMillis());
    }
    if (query_cpu_ms_hist_ != nullptr) {
      query_cpu_ms_hist_->Observe(query_cpu_timer.ElapsedMillis());
    }
    admission_.Release();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      --inflight_;
    }
    idle_cv_.notify_all();
  } else {
    if (handler_it != handlers_.end()) {
      handler_status = handler_it->second(*client_id, request, &response);
    }
    // Built-in fields every peer can rely on, whatever the handler set.
    if (frame.type == WireType::kHello) {
      response.Set("server", JsonValue::Str(options_.name));
      response.Set("protocol", JsonValue::Uint(kWireProtocolVersion));
      response.Set("draining", JsonValue::Bool(draining_.load()));
    } else if (frame.type == WireType::kHealth) {
      WireServerStats s = stats();
      response.Set("status",
                   JsonValue::Str(s.draining ? "draining" : "ok"));
      response.Set("inflight", JsonValue::Int(s.inflight));
      response.Set("requests", JsonValue::Uint(s.requests_total));
    } else if (frame.type == WireType::kDrain) {
      RequestDrain();
      response.Set("draining", JsonValue::Bool(true));
    }
  }

  if (!handler_status.ok()) {
    return send_error(handler_status);
  }

  WireFrame reply;
  reply.type = static_cast<WireType>(static_cast<uint8_t>(frame.type) + 1);
  reply.request_id = frame.request_id;
  reply.body = response.Render();
  return WriteFrame(fd, reply).ok();
}

}  // namespace warpindex
