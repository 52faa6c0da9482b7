// Generic wire-protocol server: a TCP listener, a thread per
// connection, and a handler table keyed by request WireType. Both the
// shard server and the router's front door are instances of this class;
// the transport concerns live here so the RPC code stays pure
// (JsonValue in, JsonValue out).
//
// Connection loop: each connection thread reads frames with a short
// receive timeout (`io_timeout_ms`) used as an idle poll — an idle
// timeout (zero bytes read) keeps the connection and re-checks the
// stop/drain flags; a mid-frame timeout or any transport error closes
// it. Responses go back on the same connection with the request id
// echoed.
//
// Admission: RANGE and KNN pass through the AdmissionController before
// their handler runs; over-quota or overloaded requests are answered
// with a kError frame carrying RESOURCE_EXHAUSTED and never reach the
// handler. HELLO/HEALTH/DRAIN are exempt (health checks must work on an
// overloaded server).
//
// Graceful drain (SIGTERM path): RequestDrain() shuts the listener down
// (no new connections), lets in-flight requests finish, and answers any
// NEW query request with UNAVAILABLE "draining" — which is also how the
// router learns a replica is going away (it fails over immediately on
// UNAVAILABLE). WaitIdle() blocks until the last in-flight request
// completes; then Stop() tears the threads down.

#ifndef WARPINDEX_NET_WIRE_SERVER_H_
#define WARPINDEX_NET_WIRE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/admission.h"
#include "net/json.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace warpindex {

struct WireServerOptions {
  // Name used in metrics help strings and /statusz ("shard-server",
  // "router").
  std::string name = "wire-server";
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; port() reports the real one
  int backlog = 64;
  // Receive-poll granularity for connection threads: how long a read
  // blocks before re-checking stop/drain. Bounds shutdown latency.
  int io_timeout_ms = 250;
  size_t max_body_bytes = kWireDefaultMaxBody;
  AdmissionOptions admission;
  MetricsRegistry* metrics = nullptr;  // optional
};

// Counters for /statusz (all totals since Start).
struct WireServerStats {
  uint64_t connections_total = 0;
  int active_connections = 0;
  uint64_t requests_total = 0;
  uint64_t errors_total = 0;  // kError responses sent (all causes)
  uint64_t shed_total = 0;    // admission rejections (subset of errors)
  int inflight = 0;
  bool draining = false;
};

class WireServer {
 public:
  // A handler receives the identity from the connection's HELLO (or
  // "anon" before one) and the decoded request body, and fills the
  // response body. A non-OK return becomes a kError frame carrying
  // that status.
  using Handler = std::function<Status(const std::string& client_id,
                                       const JsonValue& request,
                                       JsonValue* response)>;

  explicit WireServer(WireServerOptions options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  // Registers `handler` for request `type` (response type is type + 1).
  // Call before Start(). kHello/kHealth/kDrain have built-in defaults a
  // registration replaces or augments: a kHello handler's response body
  // becomes the HELLO_OK payload (this is how the shard server reports
  // its per-shard MBRs).
  void Handle(WireType type, Handler handler);

  Status Start();

  // Graceful drain: stop accepting connections, keep serving in-flight
  // requests, answer new query requests with UNAVAILABLE "draining".
  void RequestDrain();
  bool draining() const { return draining_.load(); }

  // Blocks until no request handler is executing (drain completion).
  void WaitIdle();

  // Hard stop: drains implicitly, closes every connection, joins all
  // threads. Idempotent.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  bool running() const { return running_.load(); }
  WireServerStats stats() const;
  const AdmissionController& admission() const { return admission_; }

 private:
  struct Connection {
    // Guards fd. The connection thread closes the fd and sets it to -1
    // under the lock, and Stop shuts it down under the lock only while
    // it is >= 0, so Stop never touches a closed (possibly reused) fd.
    std::mutex fd_mu;
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  // Dispatches one request frame; returns false when the connection
  // should close (transport failure on the response).
  bool DispatchFrame(int fd, const WireFrame& frame,
                     std::string* client_id);
  void ReapFinishedLocked();

  WireServerOptions options_;
  TcpListener listener_;
  AdmissionController admission_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  uint64_t connections_total_ = 0;

  std::map<WireType, Handler> handlers_;

  mutable std::mutex stats_mu_;
  std::condition_variable idle_cv_;
  int inflight_ = 0;
  uint64_t requests_total_ = 0;
  uint64_t errors_total_ = 0;

  // Optional metrics (null when options_.metrics is null).
  Counter* requests_counter_ = nullptr;
  Counter* errors_counter_ = nullptr;
  Counter* shed_counter_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
  Histogram* query_wall_ms_hist_ = nullptr;
  Histogram* query_cpu_ms_hist_ = nullptr;
};

}  // namespace warpindex

#endif  // WARPINDEX_NET_WIRE_SERVER_H_
