// The wire protocol end to end: frame layout and typed read errors,
// Status <-> kError body mapping, and the WireServer/WireClient pair —
// handshake identity, handler dispatch, admission shedding (quota and
// overload), graceful drain answering UNAVAILABLE, and the client
// deadline: a stalled peer (accepts, never answers) surfaces as
// kDeadlineExceeded, never a hang.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/admission.h"
#include "net/socket.h"
#include "net/wire_client.h"
#include "net/wire_server.h"

namespace warpindex {
namespace {

// ---- Frame layout.

TEST(WireFrameTest, EncodedHeaderLayout) {
  WireFrame frame;
  frame.type = WireType::kRange;
  frame.request_id = 0x0102030405060708ull;
  frame.body = "{\"k\":1}";
  const std::string encoded = EncodeFrame(frame);
  ASSERT_EQ(encoded.size(), kWireHeaderBytes + frame.body.size());
  // Magic: "WNP" + version byte.
  EXPECT_EQ(encoded[0], 'W');
  EXPECT_EQ(encoded[1], 'N');
  EXPECT_EQ(encoded[2], 'P');
  EXPECT_EQ(static_cast<uint8_t>(encoded[3]), kWireProtocolVersion);
  EXPECT_EQ(static_cast<uint8_t>(encoded[4]),
            static_cast<uint8_t>(WireType::kRange));
  // Request id, little-endian at offset 8.
  EXPECT_EQ(static_cast<uint8_t>(encoded[8]), 0x08);
  EXPECT_EQ(static_cast<uint8_t>(encoded[15]), 0x01);
  // Body length, little-endian at offset 16.
  EXPECT_EQ(static_cast<uint8_t>(encoded[16]), frame.body.size());
  EXPECT_EQ(static_cast<uint8_t>(encoded[17]), 0);
  EXPECT_EQ(encoded.substr(kWireHeaderBytes), frame.body);
}

// A connected loopback socket pair for raw frame IO tests.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    TcpListener listener;
    EXPECT_TRUE(listener.Listen(TcpListenerOptions{}).ok());
    std::thread acceptor([&] { a = listener.Accept(); });
    EXPECT_TRUE(TcpConnect("127.0.0.1", listener.port(), 2000, &b).ok());
    acceptor.join();
  }
  ~SocketPair() {
    CloseSocket(a);
    CloseSocket(b);
  }
};

TEST(WireFrameTest, WriteReadRoundTrip) {
  SocketPair pair;
  WireFrame out;
  out.type = WireType::kKnn;
  out.request_id = 77;
  out.body = "{\"query\":[1.5,2.5]}";
  ASSERT_TRUE(WriteFrame(pair.b, out).ok());

  WireFrame in;
  ASSERT_TRUE(ReadFrame(pair.a, &in).ok());
  EXPECT_EQ(in.type, WireType::kKnn);
  EXPECT_EQ(in.request_id, 77u);
  EXPECT_EQ(in.body, out.body);
}

TEST(WireFrameTest, BadMagicIsIoError) {
  SocketPair pair;
  std::string junk(kWireHeaderBytes, '\0');
  std::memcpy(junk.data(), "HTTP", 4);  // an HTTP client knocking
  ASSERT_TRUE(SendAll(pair.b, junk));
  WireFrame in;
  EXPECT_EQ(ReadFrame(pair.a, &in).code(), StatusCode::kIoError);
}

TEST(WireFrameTest, WrongVersionIsIoError) {
  SocketPair pair;
  WireFrame out;
  out.type = WireType::kHealth;
  std::string encoded = EncodeFrame(out);
  encoded[3] = static_cast<char>(kWireProtocolVersion + 1);
  ASSERT_TRUE(SendAll(pair.b, encoded));
  WireFrame in;
  EXPECT_EQ(ReadFrame(pair.a, &in).code(), StatusCode::kIoError);
}

TEST(WireFrameTest, OversizedBodyRejectedBeforeAllocation) {
  SocketPair pair;
  WireFrame out;
  out.type = WireType::kRange;
  out.body = std::string(256, 'x');
  ASSERT_TRUE(SendAll(pair.b, EncodeFrame(out)));
  WireFrame in;
  EXPECT_EQ(ReadFrame(pair.a, &in, /*max_body=*/64).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, CleanCloseBetweenFramesIsUnavailable) {
  SocketPair pair;
  CloseSocket(pair.b);
  pair.b = -1;
  WireFrame in;
  EXPECT_EQ(ReadFrame(pair.a, &in).code(), StatusCode::kUnavailable);
}

TEST(WireFrameTest, CloseMidFrameIsIoError) {
  SocketPair pair;
  WireFrame out;
  out.type = WireType::kRange;
  out.body = "{}";
  const std::string encoded = EncodeFrame(out);
  ASSERT_TRUE(SendAll(pair.b, encoded.data(), 7));  // partial header
  CloseSocket(pair.b);
  pair.b = -1;
  WireFrame in;
  EXPECT_EQ(ReadFrame(pair.a, &in).code(), StatusCode::kIoError);
}

TEST(WireFrameTest, IdleTimeoutIsRetryable) {
  SocketPair pair;
  SetSocketIoTimeout(pair.a, 50);
  WireFrame in;
  bool idle = false;
  const Status status = ReadFrame(pair.a, &in, kWireDefaultMaxBody, &idle);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(idle);  // zero bytes arrived: safe to keep the connection
}

// ---- Error body mapping.

TEST(WireErrorBodyTest, StatusRoundTrip) {
  const Status original = Status::ResourceExhausted("quota exceeded");
  const Status back = ErrorBodyToStatus(StatusToErrorBody(original));
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back.message(), "quota exceeded");
  for (const Status& status :
       {Status::Unavailable("draining"), Status::DeadlineExceeded("slow"),
        Status::InvalidArgument("bad"), Status::NotFound("missing"),
        Status::Internal("bug")}) {
    EXPECT_EQ(ErrorBodyToStatus(StatusToErrorBody(status)).code(),
              status.code());
  }
}

TEST(WireErrorBodyTest, UnknownCodeDegradesToInternal) {
  // A newer server's code name must not crash an older client.
  const Status status =
      ErrorBodyToStatus("{\"code\":\"SHINY_NEW\",\"message\":\"m\"}");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(WireErrorBodyTest, MalformedBodyDegradesToInternal) {
  EXPECT_EQ(ErrorBodyToStatus("not json").code(), StatusCode::kInternal);
}

// ---- Client/server integration.

class WireServerTest : public ::testing::Test {
 protected:
  std::unique_ptr<WireServer> StartServer(WireServerOptions options) {
    options.io_timeout_ms = 50;  // fast drain/stop in tests
    auto server = std::make_unique<WireServer>(std::move(options));
    server->Handle(
        WireType::kRange,
        [this](const std::string& client_id, const JsonValue& request,
               JsonValue* response) {
          const int64_t sleep_ms = request.GetInt("sleep_ms", 0);
          if (sleep_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleep_ms));
          }
          ++handled_;
          response->Set("echo", JsonValue::Int(request.GetInt("x", -1)));
          response->Set("client", JsonValue::Str(client_id));
          return Status::Ok();
        });
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  WireClient MakeClient(const WireServer& server,
                        const std::string& client_id = "test-client") {
    WireClientOptions options;
    options.port = server.port();
    options.timeout_ms = 2000;
    options.client_id = client_id;
    return WireClient(options);
  }

  std::atomic<int> handled_{0};
};

TEST_F(WireServerTest, HelloHandshakeCarriesIdentityToHandlers) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server, "alice");
  JsonValue info;
  ASSERT_TRUE(client.Connect(&info).ok());

  JsonValue request = JsonValue::Object();
  request.Set("x", JsonValue::Int(9));
  JsonValue response;
  ASSERT_TRUE(client.Call(WireType::kRange, request, &response).ok());
  EXPECT_EQ(response.GetInt("echo", -1), 9);
  // The identity from HELLO followed the connection into the handler.
  EXPECT_EQ(response.GetString("client", ""), "alice");
}

TEST_F(WireServerTest, HealthWorksWithoutRegistration) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);
  JsonValue response;
  EXPECT_TRUE(client.Call(WireType::kHealth, JsonValue::Object(),
                          &response)
                  .ok());
}

TEST_F(WireServerTest, UnregisteredTypeIsTypedError) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);
  JsonValue response;
  const Status status =
      client.Call(WireType::kKnn, JsonValue::Object(), &response);
  EXPECT_FALSE(status.ok());
}

TEST_F(WireServerTest, HandlerErrorCrossesAsItsStatusCode) {
  WireServerOptions options;
  options.io_timeout_ms = 50;
  auto server = std::make_unique<WireServer>(std::move(options));
  server->Handle(WireType::kRange,
                 [](const std::string&, const JsonValue&, JsonValue*) {
                   return Status::InvalidArgument("epsilon < 0");
                 });
  ASSERT_TRUE(server->Start().ok());
  WireClient client = MakeClient(*server);
  JsonValue response;
  const Status status =
      client.Call(WireType::kRange, JsonValue::Object(), &response);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "epsilon < 0");
  server->Stop();
}

TEST_F(WireServerTest, SequentialCallsReuseOneConnection) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);
  for (int i = 0; i < 5; ++i) {
    JsonValue request = JsonValue::Object();
    request.Set("x", JsonValue::Int(i));
    JsonValue response;
    ASSERT_TRUE(client.Call(WireType::kRange, request, &response).ok());
    EXPECT_EQ(response.GetInt("echo", -1), i);
  }
  EXPECT_EQ(server->stats().connections_total, 1u);
  EXPECT_EQ(client.calls(), 6u);  // 5 ranges + the implicit HELLO
}

// Satellite: the client deadline. A peer that accepts the connection
// but never answers must surface as kDeadlineExceeded within the
// timeout — never a hang — and the connection must be dropped (stream
// position unknown).
TEST_F(WireServerTest, StalledPeerSurfacesAsDeadlineExceeded) {
  TcpListener stalled;
  ASSERT_TRUE(stalled.Listen(TcpListenerOptions{}).ok());
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    // Accept connections and hold them open silently.
    std::vector<int> held;
    while (!stop.load()) {
      const int fd = stalled.Accept();
      if (fd < 0) break;
      held.push_back(fd);
    }
    for (const int fd : held) CloseSocket(fd);
  });

  WireClientOptions options;
  options.port = stalled.port();
  options.timeout_ms = 200;
  WireClient client(options);

  const auto start = std::chrono::steady_clock::now();
  JsonValue response;
  const Status status =
      client.Call(WireType::kHealth, JsonValue::Object(), &response);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_LT(elapsed.count(), 2000);  // bounded, not hung
  EXPECT_FALSE(client.connected());  // desynced stream was dropped

  // The per-call override tightens an otherwise-long deadline.
  WireClientOptions slow = options;
  slow.timeout_ms = 60000;
  WireClient patient(slow);
  const Status overridden = patient.Call(WireType::kHealth,
                                         JsonValue::Object(), &response,
                                         /*timeout_ms_override=*/150);
  EXPECT_EQ(overridden.code(), StatusCode::kDeadlineExceeded);

  stop.store(true);
  stalled.Shutdown();
  acceptor.join();
}

TEST_F(WireServerTest, ConnectionRefusedIsUnavailable) {
  TcpListener probe;
  ASSERT_TRUE(probe.Listen(TcpListenerOptions{}).ok());
  const uint16_t dead_port = probe.port();
  probe.Shutdown();
  probe.Close();

  WireClientOptions options;
  options.port = dead_port;
  options.timeout_ms = 500;
  WireClient client(options);
  JsonValue response;
  EXPECT_EQ(client.Call(WireType::kHealth, JsonValue::Object(), &response)
                .code(),
            StatusCode::kUnavailable);
}

TEST_F(WireServerTest, PerClientQuotaShedsWithResourceExhausted) {
  WireServerOptions options;
  // Refill so slow (one token per 100 s) that the test's counts stay
  // deterministic even under TSan; the burst depth is what's measured.
  options.admission.per_client_qps = 0.01;
  options.admission.per_client_burst = 2.0;
  auto server = StartServer(std::move(options));
  WireClient client = MakeClient(*server, "greedy");

  JsonValue response;
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    const Status status =
        client.Call(WireType::kRange, JsonValue::Object(), &response);
    if (status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
          << status.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2);    // the bucket depth
  EXPECT_EQ(shed, 4);  // everything past it, rejected not queued
  EXPECT_EQ(server->stats().shed_total, 4u);
  EXPECT_EQ(server->admission().shed_quota_total(), 4u);

  // HEALTH is exempt: it must work on an over-quota server.
  EXPECT_TRUE(
      client.Call(WireType::kHealth, JsonValue::Object(), &response).ok());
}

TEST_F(WireServerTest, InflightCapShedsOverload) {
  WireServerOptions options;
  options.admission.max_inflight = 1;
  auto server = StartServer(std::move(options));

  WireClient slow_client = MakeClient(*server, "slow");
  std::thread slow_call([&] {
    JsonValue request = JsonValue::Object();
    request.Set("sleep_ms", JsonValue::Int(400));
    JsonValue response;
    EXPECT_TRUE(
        slow_client.Call(WireType::kRange, request, &response).ok());
  });

  // Wait until the slow request is actually executing.
  while (server->stats().inflight < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  WireClient second = MakeClient(*server, "second");
  JsonValue response;
  EXPECT_EQ(
      second.Call(WireType::kRange, JsonValue::Object(), &response).code(),
      StatusCode::kResourceExhausted);
  EXPECT_GE(server->admission().shed_overload_total(), 1u);
  slow_call.join();
}

TEST_F(WireServerTest, DrainAnswersUnavailableAndWaitIdleCompletes) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);

  // An in-flight request rides out the drain...
  std::thread inflight([&] {
    JsonValue request = JsonValue::Object();
    request.Set("sleep_ms", JsonValue::Int(300));
    request.Set("x", JsonValue::Int(1));
    JsonValue response;
    const Status status =
        client.Call(WireType::kRange, request, &response);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(response.GetInt("echo", -1), 1);
  });
  while (server->stats().inflight < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->RequestDrain();
  EXPECT_TRUE(server->draining());

  // ...while a NEW query gets UNAVAILABLE — either because the drained
  // listener refuses the connection or because an existing connection
  // answers "draining". Both are the router's failover signal.
  WireClient late = MakeClient(*server, "late");
  JsonValue response;
  const Status late_status =
      late.Call(WireType::kRange, JsonValue::Object(), &response);
  EXPECT_EQ(late_status.code(), StatusCode::kUnavailable)
      << late_status.ToString();

  server->WaitIdle();
  EXPECT_EQ(server->stats().inflight, 0);
  inflight.join();
  server->Stop();
  EXPECT_EQ(handled_.load(), 1);
}

TEST_F(WireServerTest, DrainFrameDrainsOverTheWire) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);
  JsonValue response;
  ASSERT_TRUE(
      client.Call(WireType::kDrain, JsonValue::Object(), &response).ok());
  EXPECT_TRUE(server->draining());
  // The draining connection answers queries with UNAVAILABLE.
  const Status status =
      client.Call(WireType::kRange, JsonValue::Object(), &response);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  server->Stop();
}

TEST_F(WireServerTest, StopIsIdempotentAndJoinsEverything) {
  auto server = StartServer(WireServerOptions{});
  WireClient client = MakeClient(*server);
  JsonValue response;
  ASSERT_TRUE(
      client.Call(WireType::kRange, JsonValue::Object(), &response).ok());
  server->Stop();
  server->Stop();
  EXPECT_FALSE(server->running());
}

// Stop while connections are closing on their own: clients connect and
// hang up in a loop, so connection threads close their fds (and the
// kernel reuses the numbers) while Stop shuts the connections down.
// Stop must only ever shut down an fd it still owns; a thread sanitizer
// build reports the unguarded version of this as a data race.
TEST_F(WireServerTest, StopWhileConnectionsCloseIsSafe) {
  for (int round = 0; round < 5; ++round) {
    auto server = StartServer(WireServerOptions{});
    const uint16_t port = server->port();
    std::atomic<bool> stop_clients{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&stop_clients, port] {
        while (!stop_clients.load()) {
          int fd = -1;
          if (TcpConnect("127.0.0.1", port, 200, &fd).ok()) {
            CloseSocket(fd);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server->Stop();
    stop_clients.store(true);
    for (std::thread& t : clients) {
      t.join();
    }
    EXPECT_FALSE(server->running());
  }
}

// ---- Admission controller unit coverage (clocked manually).

TEST(AdmissionTest, BucketRefillsAtQps) {
  AdmissionOptions options;
  options.per_client_qps = 10.0;  // one token per 100 ms
  options.per_client_burst = 1.0;
  AdmissionController admission(options);

  ASSERT_TRUE(admission.Admit("c", 0.0).ok());
  admission.Release();
  EXPECT_EQ(admission.Admit("c", 10.0).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(admission.Admit("c", 150.0).ok());  // refilled
  admission.Release();
  EXPECT_EQ(admission.admitted_total(), 2u);
  EXPECT_EQ(admission.shed_quota_total(), 1u);
}

TEST(AdmissionTest, QuotaIsPerClient) {
  AdmissionOptions options;
  options.per_client_qps = 1.0;
  options.per_client_burst = 1.0;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit("a", 0.0).ok());
  // Client b has its own bucket; a's exhaustion does not starve b.
  EXPECT_TRUE(admission.Admit("b", 0.0).ok());
  EXPECT_EQ(admission.Admit("a", 1.0).code(),
            StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, InflightCapIsGlobal) {
  AdmissionOptions options;
  options.max_inflight = 2;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit("a", 0.0).ok());
  ASSERT_TRUE(admission.Admit("b", 0.0).ok());
  EXPECT_EQ(admission.Admit("c", 0.0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.shed_overload_total(), 1u);
  admission.Release();
  EXPECT_TRUE(admission.Admit("c", 0.0).ok());
  EXPECT_EQ(admission.inflight(), 2);
}

TEST(AdmissionTest, UnmeteredAdmitsEverything) {
  AdmissionController admission(AdmissionOptions{});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(admission.Admit("anyone", 0.0).ok());
  }
  EXPECT_EQ(admission.admitted_total(), 100u);
}

}  // namespace
}  // namespace warpindex
