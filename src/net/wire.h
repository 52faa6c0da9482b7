// The warpindex wire protocol: versioned length-prefixed frames with
// JSON bodies, connecting the router process to shard-server processes
// (docs/NETWORKING.md has the full frame layout and RPC table).
//
// Frame layout (little-endian, 20-byte header):
//
//   offset 0   4 bytes   magic "WNP" + protocol version byte (0x01)
//   offset 4   1 byte    message type (WireType)
//   offset 5   1 byte    flags (reserved, 0)
//   offset 6   2 bytes   reserved (0)
//   offset 8   8 bytes   request id (echoed verbatim in the response)
//   offset 16  4 bytes   body length in bytes
//   offset 20  ...       body: one JSON value (UTF-8)
//
// Why this shape: length-prefixed framing makes the read loop trivial
// and robust (no delimiter scanning, a hard max_body bound rejects
// garbage before allocation), a version byte in the magic rejects
// cross-version peers at the first frame, and JSON bodies keep the
// payloads debuggable (`xxd` shows you the query) while the framing
// stays binary. Doubles cross as shortest round-trip decimal
// (net/json.h), which parses back bit-identically — the exactness
// contract of the router depends on it.
//
// Request/response pairing: every request type N has a response type
// N+1; kError answers any request. The response echoes the request id,
// which the blocking client (net/wire_client.h) verifies — a mismatch
// means the connection desynced (e.g. a stale response after a timeout)
// and the connection must be dropped.

#ifndef WARPINDEX_NET_WIRE_H_
#define WARPINDEX_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/json.h"

namespace warpindex {

// Protocol version, baked into the frame magic. Bump on any
// incompatible change; peers with a different version fail the first
// read with a typed error instead of misparsing.
inline constexpr uint8_t kWireProtocolVersion = 0x01;

// Frame header size in bytes.
inline constexpr size_t kWireHeaderBytes = 20;

// Default cap on body size (rejects a corrupt length prefix before any
// allocation). Generous: a 1M-point query sequence is ~20 MB of JSON.
inline constexpr size_t kWireDefaultMaxBody = 64u << 20;

enum class WireType : uint8_t {
  kError = 0,     // body {"code":"UNAVAILABLE","message":"..."}
  kHello = 1,     // client handshake: {"client":"...","trace":bool}
  kHelloOk = 2,   // server identity + per-shard feature MBRs
  kRange = 3,     // range query over an explicit shard subset
  kRangeOk = 4,
  kKnn = 5,       // kNN over an explicit shard subset, with a seed bound
  kKnnOk = 6,
  kHealth = 7,    // liveness + serving stats
  kHealthOk = 8,
  kDrain = 9,     // ask the server to drain (tests; SIGTERM is the
  kDrainOk = 10,  // production path)
  kStats = 11,    // metrics-federation scrape: the server's identity +
  kStatsOk = 12,  // full metrics snapshot as JSON (docs/OBSERVABILITY.md)
};

const char* WireTypeName(WireType type);

// One decoded frame.
struct WireFrame {
  WireType type = WireType::kError;
  uint64_t request_id = 0;
  std::string body;
};

// Renders header + body ready to send.
std::string EncodeFrame(const WireFrame& frame);

// Writes one frame to `fd` (EINTR-safe, MSG_NOSIGNAL). IoError on a
// broken connection.
Status WriteFrame(int fd, const WireFrame& frame);

// Reads one frame from `fd`. Error codes:
//   kUnavailable       peer closed cleanly between frames
//   kDeadlineExceeded  SO_RCVTIMEO expired (idle, or mid-frame — the
//                      message tells which; either way the stream
//                      position is unknown unless idle)
//   kIoError           bad magic / wrong version / oversized body /
//                      connection reset / close mid-frame
// `idle_timeout` (optional) is set true when the timeout fired before
// ANY byte of the frame arrived — the caller may safely keep the
// connection and retry (servers poll this way to notice drain/stop).
Status ReadFrame(int fd, WireFrame* out,
                 size_t max_body = kWireDefaultMaxBody,
                 bool* idle_timeout = nullptr);

// ---- Error body mapping: Status <-> kError frames.

// {"code":"RESOURCE_EXHAUSTED","message":"..."} for a non-OK status.
std::string StatusToErrorBody(const Status& status);

// Reconstructs the Status a kError body carries (unknown code names map
// to kInternal so new server codes degrade, not crash, old clients).
Status ErrorBodyToStatus(const std::string& body);

// Convenience: a fully-encoded kError response frame for `status`.
WireFrame MakeErrorFrame(uint64_t request_id, const Status& status);

}  // namespace warpindex

#endif  // WARPINDEX_NET_WIRE_H_
