// Remote serving transport: the wire path in front of DetectionServer.
//
// TransportServer binds a loopback/IPv4 TCP listener and speaks the
// length-prefixed frame protocol from net/frame.hpp as a handler of its own
// net::EventLoop thread (the poll() loop the admin plane runs too). Decoded
// detect requests are bridged into an existing DetectionServer, so the
// queue's admission control, micro-batching, and kDeadlineExceeded
// semantics compose end-to-end: the wire layer adds its own failure domain
// (malformed frames, slow-loris peers, connection storms, mid-request
// disconnects) and its own containment:
//
//  - strict frame validation: malformed/oversized/checksum-failed frames
//    are quarantined — counted, answered with an error frame when the
//    stream is still synchronized (lenient mode), never fatal to the
//    process. `strict` mode closes the offending connection instead,
//    mirroring the pipeline's lenient/strict discipline.
//  - bounded per-connection buffers with backpressure: a connection over
//    its in-flight or write-buffer budget has new requests shed as
//    kUnavailable error frames; a peer that stops reading entirely trips a
//    hard cap and is closed. Nothing buffers without bound.
//  - idle and read timeouts: a silent connection, or one dribbling a
//    partial frame (slow loris), is closed and counted.
//  - graceful drain on stop(): the listener closes first, in-flight
//    requests finish and flush, then connections close — no response is
//    dropped or double-delivered.
//
// RemoteClient is the matching synchronous client: framed request, blocking
// wait for the correlated response, and transparent retry with exponential
// backoff + deterministic jitter. A retry loop never outlives the caller's
// deadline: the remaining budget shrinks across attempts, rides the wire in
// the frame header, and bounds the server-side deadline too.
//
// Every degradation mode is deterministically testable through the five
// net.* fault points (util/faultinject.hpp) and observable through the
// net.* counters mirrored into obs::MetricsRegistry::global().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace gea::serve {

class SloMonitor;

struct TransportConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via port() after start().
  std::uint16_t port = 0;
  /// Lenient (false): a recoverable malformed frame is quarantined and
  /// answered with an error frame; the connection lives on. Strict (true):
  /// any malformed frame closes the connection. Unrecoverable damage (bad
  /// magic, oversized length) always closes — resync is impossible.
  bool strict = false;
  /// Connections beyond this are accepted and immediately closed (counted
  /// as shed) so the backlog cannot grow unboundedly.
  std::size_t max_connections = 256;
  /// Per-frame payload ceiling forwarded to the decoder.
  std::size_t max_payload_bytes = net::kMaxPayloadBytes;
  /// Soft cap on a connection's pending output; requests arriving while
  /// over it are shed as kUnavailable. At 2x the cap the connection is
  /// closed outright (the peer is not draining responses).
  std::size_t write_buffer_limit = 256 * 1024;
  /// Max requests a single connection may have in flight; beyond this new
  /// requests are shed as kUnavailable (per-connection admission control,
  /// layered in front of the queue's global admission control).
  std::size_t max_inflight_per_conn = 64;
  /// A connection with no traffic for this long is closed.
  double idle_timeout_ms = 30'000.0;
  /// A connection holding an incomplete frame for this long (slow loris)
  /// is closed.
  double read_timeout_ms = 5'000.0;
  /// stop() waits at most this long for in-flight requests to finish and
  /// responses to flush before force-closing.
  double drain_timeout_ms = 2'000.0;
  /// Route this server's sockets/codecs through the net.* fault points
  /// (clients in the same process stay clean either way).
  bool fault_injection = true;
  /// Optional SLO monitor fed one sample per response written (latency +
  /// ok/error); transport-level sheds and quarantines count as errors.
  /// Must outlive the server. nullptr = no SLO tracking.
  SloMonitor* slo = nullptr;
};

/// Point-in-time copy of the transport counters (all monotonic except
/// active_connections).
struct TransportSnapshot {
  std::uint64_t accepted = 0;          // connections admitted
  std::uint64_t closed = 0;            // connections torn down (any reason)
  std::uint64_t accept_failures = 0;   // transient accept() failures
  std::uint64_t frames_read = 0;       // valid frames surfaced by the decoder
  std::uint64_t frames_written = 0;    // response frames encoded for write
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t quarantined = 0;       // malformed/oversized/checksum frames
  std::uint64_t shed = 0;              // requests refused by backpressure
  std::uint64_t idle_timeouts = 0;     // connections closed for silence
  std::uint64_t read_timeouts = 0;     // slow-loris kills
  std::uint64_t requests = 0;          // detect requests bridged to the queue
  std::uint64_t responses_ok = 0;      // verdict responses written
  std::uint64_t responses_error = 0;   // error responses written
  std::size_t active_connections = 0;
};

/// Poll-multiplexed frame server in front of a DetectionServer. start()
/// spawns the event loop; stop() (and the destructor) drains gracefully.
/// The DetectionServer must outlive the transport.
class TransportServer {
 public:
  explicit TransportServer(DetectionServer& server,
                           const TransportConfig& config = {});
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Bind + listen + launch the event loop. Fails (without crashing) when
  /// the address is unusable; safe to call once.
  util::Status start();

  /// Graceful drain: stop accepting, let in-flight requests complete and
  /// their responses flush (up to drain_timeout_ms), then close. Idempotent.
  void stop();

  bool running() const;
  /// True while stop() has been requested and the event loop is flushing
  /// in-flight responses. The admin plane reports this as "draining" on
  /// /readyz (not ready, but deliberately so).
  bool draining() const;
  /// The bound port (valid after a successful start()).
  std::uint16_t port() const;
  const TransportConfig& config() const;
  TransportSnapshot stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- Payload codecs (public so tests and alternative clients can speak the
// protocol without a RemoteClient) -----------------------------------------
//
// Two payload versions, following the frame header's v1/v2 discipline
// (encoders write the newest version, decoders accept both):
//
//   request  v1: f64_vector features
//   request  v2: u32 sentinel | u32 version | u64 schema_digest |
//                f64_vector features
//   response v1: u32 code | verdict fields or error message
//   response v2: u32 sentinel | u32 version | u32 code | v1 body |
//                string class_name | u64 schema_digest   (code 0 only)
//
// The sentinel 0xFFFFFFFF can never open a v1 payload (a request starts
// with a feature count, a response with an ErrorCode — both small), so one
// u32 peek disambiguates. The server answers in the version the request
// used: a v1 client receives byte-identical v1 responses, while a v2
// client gets the schema-aware fields and may pin a schema digest — a
// nonzero pin that disagrees with the serving checkpoint fails the request
// with kFailedPrecondition instead of silently scoring under the wrong
// class set.

inline constexpr std::uint32_t kDetectPayloadSentinel = 0xFFFFFFFFu;
inline constexpr std::uint32_t kDetectPayloadVersion = 2;

/// Decoded detect request: features plus the v2 schema pin (version 1
/// requests leave the defaults).
struct DetectRequestPayload {
  std::vector<double> features;
  std::uint32_t version = 1;
  std::uint64_t schema_digest = 0;  // 0 = not pinned
};

/// v1 request bytes (legacy layout, preserved bit for bit).
std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features);
/// v2 request bytes carrying a schema pin (0 = none).
std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features, std::uint64_t schema_digest);
util::Result<DetectRequestPayload> decode_detect_request_payload(
    std::span<const std::uint8_t> payload);

/// Response bytes in `payload_version` (1 or 2) — the server echoes the
/// request's version here.
std::vector<std::uint8_t> encode_detect_response_payload(
    const util::Result<Verdict>& result, std::uint32_t payload_version = 1);
util::Result<Verdict> decode_detect_response_payload(
    std::span<const std::uint8_t> payload);

// --- Client ----------------------------------------------------------------

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double connect_timeout_ms = 1'000.0;
  /// Per-attempt ceiling on waiting for a response when the caller gave no
  /// deadline; with a deadline, the remaining budget governs instead.
  double request_timeout_ms = 5'000.0;
  /// Retries after the first attempt. Only transport-level failures and
  /// kUnavailable are retried; server verdicts and hard errors return
  /// immediately.
  std::size_t max_retries = 3;
  double backoff_initial_ms = 5.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 200.0;
  /// Each backoff is scaled by uniform(1 - jitter, 1 + jitter) drawn from a
  /// deterministic stream seeded with jitter_seed.
  double backoff_jitter = 0.25;
  std::uint64_t jitter_seed = 0x6a17;
  /// Start a distributed trace on every Nth detect() call (1 = every call,
  /// 0 = never). The trace context rides the v2 frame header, so the
  /// server's queue/inference spans join the client's send/retry spans
  /// under one trace id.
  std::size_t trace_sample_every = 1;
  /// Detect payload version to emit (encoders write the newest; 1 forces
  /// the legacy bytes for interop testing).
  std::uint32_t payload_version = kDetectPayloadVersion;
  /// Nonzero (v2 payloads only): pin the serving schema — the server fails
  /// the request if the active checkpoint's schema digest differs.
  std::uint64_t schema_digest = 0;
};

/// Client-side counters, each mirrored into a "net.client.*" series
/// (last_trace_id aside).
struct ClientStats {
  std::uint64_t requests = 0;    // detect() calls
  std::uint64_t attempts = 0;    // wire attempts (>= requests)
  std::uint64_t retries = 0;     // attempts beyond the first per request
  std::uint64_t reconnects = 0;  // sockets re-established
  std::uint64_t transport_errors = 0;  // attempt failures below the app layer
  std::uint64_t last_trace_id = 0;     // 0 = last detect() was untraced
};

/// Synchronous framed client with retry/backoff. Not thread-safe: one
/// RemoteClient per client thread (each owns one connection), matching the
/// closed-loop bench and test harnesses.
class RemoteClient {
 public:
  explicit RemoteClient(const ClientConfig& config);
  ~RemoteClient();

  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  /// Framed detect: encode, send, wait for the correlated response.
  /// deadline_ms > 0 is an end-to-end budget across *all* attempts — it
  /// shrinks by elapsed wall time before every retry and rides the frame
  /// header so the server honors whatever remains; when it runs out the
  /// call returns kDeadlineExceeded. deadline_ms <= 0 = no deadline (each
  /// attempt is still bounded by request_timeout_ms).
  util::Result<Verdict> detect(const std::vector<double>& features,
                               double deadline_ms = 0.0);

  bool connected() const { return sock_.valid(); }
  void disconnect();
  ClientStats stats() const;

 private:
  struct Attempt {
    util::Result<Verdict> result;
    bool transport = false;  // failed below the app layer (retriable)
    Attempt(util::Result<Verdict> r, bool t)
        : result(std::move(r)), transport(t) {}
  };

  util::Status ensure_connected(double budget_ms);
  Attempt attempt_once(const std::vector<double>& features,
                       std::uint64_t request_id, double budget_ms,
                       bool has_deadline, const obs::TraceContext& ctx);

  ClientConfig config_;
  net::Socket sock_;
  std::vector<std::uint8_t> rbuf_;
  std::uint64_t next_id_ = 1;
  util::Rng jitter_;
  obs::Tally requests_{"net.client.requests_total"};
  obs::Tally attempts_{"net.client.attempts_total"};
  obs::Tally retries_{"net.client.retries_total"};
  obs::Tally reconnects_{"net.client.reconnects_total"};
  obs::Tally transport_errors_{"net.client.transport_errors_total"};
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace gea::serve
