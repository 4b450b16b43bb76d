#include "serve/transport.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/slo.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gea::serve {

using util::ErrorCode;
using util::Status;

// --- Payload codecs --------------------------------------------------------

std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + features.size() * 8);
  net::wire::Writer w(out);
  w.put_f64_vector(features);
  return out;
}

std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features, std::uint64_t schema_digest) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + 4 + features.size() * 8);
  net::wire::Writer w(out);
  w.put_u32(kDetectPayloadSentinel);
  w.put_u32(kDetectPayloadVersion);
  w.put_u64(schema_digest);
  w.put_f64_vector(features);
  return out;
}

namespace {

/// Peek the leading u32 of a payload: the v2 sentinel, or a v1 first field
/// (a feature count / an error code — both far below the sentinel).
bool has_v2_sentinel(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return false;
  net::wire::Reader r(payload.first(4));
  return r.get_u32() == kDetectPayloadSentinel;
}

}  // namespace

util::Result<DetectRequestPayload> decode_detect_request_payload(
    std::span<const std::uint8_t> payload) {
  DetectRequestPayload out;
  net::wire::Reader r(payload);
  if (has_v2_sentinel(payload)) {
    r.get_u32();  // sentinel
    out.version = r.get_u32();
    if (!r.ok()) return r.parse_error("detect request payload");
    if (out.version != kDetectPayloadVersion) {
      return Status::error(ErrorCode::kParseError,
                           "detect request payload version " +
                               std::to_string(out.version) + " unsupported");
    }
    out.schema_digest = r.get_u64();
  }
  out.features = r.get_f64_vector();
  if (!r.ok()) return r.parse_error("detect request payload");
  if (r.remaining() != 0) {
    return Status::error(ErrorCode::kParseError,
                         "trailing bytes after detect request payload");
  }
  return out;
}

std::vector<std::uint8_t> encode_detect_response_payload(
    const util::Result<Verdict>& result, std::uint32_t payload_version) {
  std::vector<std::uint8_t> out;
  net::wire::Writer w(out);
  if (payload_version >= 2) {
    w.put_u32(kDetectPayloadSentinel);
    w.put_u32(kDetectPayloadVersion);
  }
  if (!result.is_ok()) {
    w.put_u32(static_cast<std::uint32_t>(result.status().code()));
    w.put_string(result.status().to_string());
    return out;
  }
  const Verdict& v = result.value();
  w.put_u32(0);  // ErrorCode::kOk
  w.put_u32(static_cast<std::uint32_t>(v.predicted));
  w.put_u32(static_cast<std::uint32_t>(v.batch_size));
  w.put_string(v.model_version);
  w.put_f64_vector(v.logits);
  w.put_f64_vector(v.probabilities);
  w.put_f64(v.queue_ms);
  w.put_f64(v.infer_ms);
  w.put_f64(v.total_ms);
  if (payload_version >= 2) {
    w.put_string(v.class_name);
    w.put_u64(v.schema_digest);
  }
  return out;
}

util::Result<Verdict> decode_detect_response_payload(
    std::span<const std::uint8_t> payload) {
  net::wire::Reader r(payload);
  std::uint32_t version = 1;
  if (has_v2_sentinel(payload)) {
    r.get_u32();  // sentinel
    version = r.get_u32();
    if (!r.ok()) return r.parse_error("detect response payload");
    if (version != kDetectPayloadVersion) {
      return Status::error(ErrorCode::kParseError,
                           "detect response payload version " +
                               std::to_string(version) + " unsupported");
    }
  }
  const std::uint32_t code = r.get_u32();
  if (!r.ok()) return r.parse_error("detect response payload");
  if (code != 0) {
    if (code > static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded)) {
      return Status::error(ErrorCode::kParseError,
                           "detect response carries unknown error code " +
                               std::to_string(code));
    }
    const std::string message = r.get_string();
    if (!r.ok()) return r.parse_error("detect response payload");
    return Status::error(static_cast<ErrorCode>(code), message);
  }
  Verdict v;
  v.predicted = r.get_u32();
  v.batch_size = r.get_u32();
  v.model_version = r.get_string();
  v.logits = r.get_f64_vector();
  v.probabilities = r.get_f64_vector();
  v.queue_ms = r.get_f64();
  v.infer_ms = r.get_f64();
  v.total_ms = r.get_f64();
  if (version >= 2) {
    v.class_name = r.get_string();
    v.schema_digest = r.get_u64();
  }
  if (!r.ok() || r.remaining() != 0) {
    return r.parse_error("detect response payload");
  }
  return v;
}

// --- TransportServer -------------------------------------------------------

namespace {

/// The frame protocol's state of one connection, beside the loop's.
struct FrameConn : net::Connection {
  struct Pending {
    std::uint64_t id = 0;
    std::future<util::Result<Verdict>> fut;
    util::Stopwatch since;  // request receipt -> response enqueued
    obs::TraceContext ctx;  // decoded from the frame header; invalid = none
    std::uint32_t payload_version = 1;  // echoed into the response payload
    std::uint64_t schema_digest = 0;    // client's pin; 0 = none
  };
  std::deque<Pending> inflight;
  std::optional<util::Stopwatch> partial;  // age of an incomplete frame
};

}  // namespace

/// The frame protocol, as the event loop's handler.
struct TransportServer::Impl final : net::EventLoop::Handler {
  DetectionServer& server;
  TransportConfig config;

  // Each count is this server's and, in the "net.*" series, the process's
  // (the registry aggregates every transport; stats() isolates this one).
  // The loop counts the connection-level events.
  obs::Tally frames_read{"net.frames_read_total"};
  obs::Tally frames_written{"net.frames_written_total"};
  obs::Tally quarantined{"net.frames_quarantined_total"};
  obs::Tally shed_requests{"net.requests_shed_total"};
  obs::Tally idle_timeouts{"net.idle_timeouts_total"};
  obs::Tally read_timeouts{"net.read_timeouts_total"};
  obs::Tally requests{"net.requests_total"};
  obs::Tally responses_ok{"net.responses_ok_total"};
  obs::Tally responses_error{"net.responses_error_total"};
  obs::Histogram& request_ms =
      obs::MetricsRegistry::global().histogram("net.request_ms");

  // Last: its thread calls into the members above.
  net::EventLoop loop{"net", *this, config.drain_timeout_ms};

  Impl(DetectionServer& s, const TransportConfig& cfg)
      : server(s), config(cfg) {}

  std::unique_ptr<net::Connection> admit(std::size_t open) override {
    if (open >= config.max_connections) {
      // Admission control for connection storms: accept to drain the
      // backlog, then close immediately — counted, bounded, no hang.
      shed_requests.inc();
      return nullptr;
    }
    return std::make_unique<FrameConn>();
  }

  bool busy(const net::Connection& conn) const override {
    return !static_cast<const FrameConn&>(conn).inflight.empty();
  }

  /// Append the response frame to the connection's write buffer, enforcing
  /// the hard 2x cap: a peer that is not draining responses is closed
  /// rather than buffered for.
  void respond(FrameConn& conn, std::uint64_t id,
               const util::Result<Verdict>& result,
               std::uint32_t payload_version = 1) {
    net::Frame f;
    f.type = net::FrameType::kDetectResponse;
    f.request_id = id;
    f.payload = encode_detect_response_payload(result, payload_version);
    const auto bytes = net::encode_frame(f, config.fault_injection);
    conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
    frames_written.inc();
    (result.is_ok() ? responses_ok : responses_error).inc();
    if (conn.pending() > 2 * config.write_buffer_limit) {
      util::log_warn("net: closing connection over hard write-buffer cap (",
                     conn.pending(), " bytes pending)");
      loop.close(conn);
    }
  }

  void respond_error(FrameConn& conn, std::uint64_t id, Status status) {
    respond(conn, id,
            util::Result<Verdict>(
                std::move(status.with_context("TransportServer"))));
  }

  void shed(FrameConn& conn, std::uint64_t id, const char* why) {
    shed_requests.inc();
    // A shed request never reached the queue; it still consumed error
    // budget from the client's point of view.
    if (config.slo != nullptr) config.slo->record(0.0, /*ok=*/false);
    respond_error(conn, id, Status::error(ErrorCode::kUnavailable, why));
  }

  /// A malformed frame: count it, then either answer-and-continue
  /// (lenient + recoverable) or close the connection (strict, or the
  /// stream cannot be resynchronized).
  void quarantine(FrameConn& conn, std::uint64_t id, const Status& status,
                  bool recoverable) {
    quarantined.inc();
    if (config.slo != nullptr) config.slo->record(0.0, /*ok=*/false);
    util::log_warn("net: quarantined frame: ", status.to_string());
    if (!recoverable || config.strict) return loop.close(conn);
    respond_error(conn, id, status);
  }

  void dispatch_frame(FrameConn& conn, net::Frame&& frame) {
    if (frame.type != net::FrameType::kDetectRequest) {
      quarantine(conn, frame.request_id,
                 Status::error(ErrorCode::kInvalidArgument,
                               std::string("unexpected frame type ") +
                                   net::frame_type_name(frame.type)),
                 /*recoverable=*/true);
      return;
    }
    requests.inc();

    // Per-connection admission control, layered in front of the queue's
    // global admission control: shed instead of buffering unboundedly.
    if (conn.inflight.size() >= config.max_inflight_per_conn) {
      shed(conn, frame.request_id, "connection in-flight limit reached");
      return;
    }
    if (conn.pending() > config.write_buffer_limit) {
      shed(conn, frame.request_id, "connection write buffer full");
      return;
    }

    auto request = decode_detect_request_payload(frame.payload);
    if (!request.is_ok()) {
      respond_error(conn, frame.request_id,
                    Status(request.status()).with_context("detect request"));
      return;
    }

    // 0 budget on the wire = no deadline from the client; inherit the
    // server's default (-1) rather than forcing "none".
    const double deadline_ms =
        frame.deadline_budget_us > 0
            ? static_cast<double>(frame.deadline_budget_us) / 1000.0
            : -1.0;
    FrameConn::Pending p;
    p.id = frame.request_id;
    p.ctx = frame.trace;
    p.payload_version = request.value().version;
    p.schema_digest = request.value().schema_digest;
    // The decoded trace context flows into the queue with the request, so
    // the batch worker's queue-wait/inference spans land under the same
    // trace as the client's send span.
    p.fut = server.submit(std::move(request.value().features), deadline_ms,
                          frame.trace);
    conn.inflight.push_back(std::move(p));
  }

  /// Decode as many frames as have arrived.
  void on_input(net::Connection& nconn) override {
    auto& conn = static_cast<FrameConn&>(nconn);
    std::size_t off = 0;
    while (!conn.dead) {
      auto res = net::decode_frame(
          std::span<const std::uint8_t>(conn.in.data() + off,
                                        conn.in.size() - off),
          config.max_payload_bytes, config.fault_injection);
      if (res.kind == net::DecodeResult::Kind::kNeedMore) break;
      off += res.consumed;
      if (res.kind == net::DecodeResult::Kind::kError) {
        quarantine(conn, res.frame.request_id, res.status, res.recoverable);
        continue;
      }
      frames_read.inc();
      dispatch_frame(conn, std::move(res.frame));
    }
    if (off > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + off);

    // Track how long an incomplete frame has been dribbling in (slow loris).
    if (conn.in.empty()) {
      conn.partial.reset();
    } else if (!conn.partial.has_value()) {
      conn.partial.emplace();
    }
  }

  /// Move completed verdicts from the in-flight set into the write buffer.
  void pump_completions(FrameConn& conn) {
    for (auto it = conn.inflight.begin();
         it != conn.inflight.end() && !conn.dead;) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      auto result = it->fut.get();
      if (result.is_ok() && it->schema_digest != 0 &&
          result.value().schema_digest != it->schema_digest) {
        // The client pinned a schema and the serving checkpoint moved on
        // (or never matched): refuse rather than let the caller misread
        // class ids that mean something else now.
        result = util::Result<Verdict>(Status::error(
            ErrorCode::kFailedPrecondition,
            "schema digest mismatch: request pinned " +
                std::to_string(it->schema_digest) + ", serving " +
                std::to_string(result.value().schema_digest)));
      }
      const double ms = it->since.elapsed_ms();
      request_ms.observe(ms, it->ctx.trace_id);
      if (it->ctx.valid()) {
        // Server-side wall time for the request (receipt -> response
        // enqueued), parented under the client's send span.
        auto& rec = obs::TraceRecorder::global();
        rec.record_interval("net.server_request", it->ctx,
                            rec.now_us() - ms * 1000.0, ms * 1000.0);
      }
      if (config.slo != nullptr) config.slo->record(ms, result.is_ok());
      respond(conn, it->id, result, it->payload_version);
      it = conn.inflight.erase(it);
    }
  }

  /// Completions out, then the slow-loris and idle deadlines (suspended
  /// while a drain flushes the last responses).
  void on_round(net::Connection& nconn) override {
    auto& conn = static_cast<FrameConn&>(nconn);
    pump_completions(conn);
    loop.flush(conn);
    if (conn.dead || loop.draining()) return;
    if (conn.partial.has_value() &&
        conn.partial->elapsed_ms() > config.read_timeout_ms) {
      read_timeouts.inc();
      util::log_warn("net: closing slow-loris connection (partial frame ",
                     conn.partial->elapsed_ms(), " ms old)");
      loop.close(conn);
    } else if (conn.inflight.empty() &&
               conn.active.elapsed_ms() > config.idle_timeout_ms) {
      idle_timeouts.inc();
      loop.close(conn);
    }
  }

  TransportSnapshot snapshot() const {
    const net::EventLoop::Counters& l = loop.counters();
    return {.accepted = l.accepted.value(),
            .closed = l.closed.value(),
            .accept_failures = l.accept_failures.value(),
            .frames_read = frames_read.value(),
            .frames_written = frames_written.value(),
            .bytes_read = l.bytes_read.value(),
            .bytes_written = l.bytes_written.value(),
            .quarantined = quarantined.value(),
            .shed = shed_requests.value(),
            .idle_timeouts = idle_timeouts.value(),
            .read_timeouts = read_timeouts.value(),
            .requests = requests.value(),
            .responses_ok = responses_ok.value(),
            .responses_error = responses_error.value(),
            .active_connections = l.open.load(std::memory_order_relaxed)};
  }
};

TransportServer::TransportServer(DetectionServer& server,
                                 const TransportConfig& config)
    : impl_(std::make_unique<Impl>(server, config)) {}

TransportServer::~TransportServer() { stop(); }

util::Status TransportServer::start() {
  return impl_->loop
      .start(impl_->config.host, impl_->config.port,
             impl_->config.fault_injection)
      .with_context("TransportServer::start");
}

void TransportServer::stop() { impl_->loop.stop(); }

bool TransportServer::running() const { return impl_->loop.running(); }

bool TransportServer::draining() const { return impl_->loop.draining(); }

std::uint16_t TransportServer::port() const { return impl_->loop.port(); }

const TransportConfig& TransportServer::config() const {
  return impl_->config;
}

TransportSnapshot TransportServer::stats() const { return impl_->snapshot(); }

// --- RemoteClient ----------------------------------------------------------

namespace {

/// A budget as a poll timeout: at least 1 ms, and saturated at INT_MAX, so
/// an infinite budget waits in long slices instead of leaving int's range.
int poll_timeout_ms(double budget_ms) {
  return static_cast<int>(
      std::clamp(std::ceil(budget_ms), 1.0,
                 static_cast<double>(std::numeric_limits<int>::max())));
}

}  // namespace

RemoteClient::RemoteClient(const ClientConfig& config)
    : config_(config), jitter_(config.jitter_seed) {}

RemoteClient::~RemoteClient() = default;

ClientStats RemoteClient::stats() const {
  return {.requests = requests_.value(),
          .attempts = attempts_.value(),
          .retries = retries_.value(),
          .reconnects = reconnects_.value(),
          .transport_errors = transport_errors_.value(),
          .last_trace_id = last_trace_id_};
}

void RemoteClient::disconnect() {
  sock_.close();
  rbuf_.clear();
}

util::Status RemoteClient::ensure_connected(double budget_ms) {
  if (sock_.valid()) return Status::ok();
  auto sock =
      net::connect_to(config_.host, config_.port, poll_timeout_ms(budget_ms));
  if (!sock.is_ok()) {
    return Status(sock.status()).with_context("RemoteClient::connect");
  }
  sock_ = std::move(sock).value();
  rbuf_.clear();
  if (attempts_.value() > 0) reconnects_.inc();
  return Status::ok();
}

RemoteClient::Attempt RemoteClient::attempt_once(
    const std::vector<double>& features, std::uint64_t request_id,
    double budget_ms, bool has_deadline, const obs::TraceContext& ctx) {
  attempts_.inc();

  // One send span per wire attempt (retries each get their own), parented
  // under the request's root span. Its context rides the frame header, so
  // every server-side span for this attempt nests under it.
  obs::TraceSpan send_span("client.send", ctx);

  const auto transport_fail = [this](Status st) {
    disconnect();
    transport_errors_.inc();
    return Attempt(util::Result<Verdict>(
                       std::move(st.with_context("RemoteClient"))),
                   /*transport=*/true);
  };

  net::Frame f;
  f.type = net::FrameType::kDetectRequest;
  f.request_id = request_id;
  // The remaining deadline budget rides the header, so the server's queue
  // deadline is exactly what the client has left — not what it started with.
  // A budget past the field's range (an infinite one included) saturates;
  // the server reads that as no deadline.
  if (has_deadline) {
    const double budget_us = budget_ms * 1000.0;
    f.deadline_budget_us = budget_us < 0x1p64
                               ? static_cast<std::uint64_t>(budget_us)
                               : std::numeric_limits<std::uint64_t>::max();
  }
  f.trace = ctx.valid() ? send_span.context() : obs::TraceContext{};
  f.payload = config_.payload_version >= 2
                  ? encode_detect_request_payload(features,
                                                  config_.schema_digest)
                  : encode_detect_request_payload(features);
  const auto bytes = net::encode_frame(f, /*inject_fault=*/false);

  util::Stopwatch sw;
  const auto remaining = [&] { return budget_ms - sw.elapsed_ms(); };

  std::size_t off = 0;
  while (off < bytes.size()) {
    if (remaining() <= 0.0) {
      return transport_fail(Status::error(ErrorCode::kDeadlineExceeded,
                                          "send timed out"));
    }
    auto io = sock_.write_some(bytes.data() + off, bytes.size() - off);
    if (!io.ok()) return transport_fail(std::move(io.status));
    if (io.eof) {
      return transport_fail(
          Status::error(ErrorCode::kUnavailable, "connection reset by peer"));
    }
    off += io.bytes;
    if (io.would_block) {
      auto ev = sock_.poll_one(POLLOUT, poll_timeout_ms(remaining()));
      if (!ev.is_ok()) return transport_fail(Status(ev.status()));
    }
  }

  while (true) {
    // Decode whatever is buffered before waiting for more bytes.
    std::size_t consumed = 0;
    while (true) {
      auto res = net::decode_frame(
          std::span<const std::uint8_t>(rbuf_.data() + consumed,
                                        rbuf_.size() - consumed),
          net::kMaxPayloadBytes, /*inject_fault=*/false);
      if (res.kind == net::DecodeResult::Kind::kNeedMore) break;
      consumed += res.consumed;
      if (res.kind == net::DecodeResult::Kind::kError) {
        // Any malformed response frame means the stream cannot be trusted;
        // drop the connection and let the retry layer rebuild it.
        rbuf_.clear();
        return transport_fail(
            Status(res.status).with_context("response frame"));
      }
      if (res.frame.type != net::FrameType::kDetectResponse ||
          res.frame.request_id != request_id) {
        continue;  // stale response from an abandoned attempt; skip it
      }
      rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);
      auto verdict = decode_detect_response_payload(res.frame.payload);
      if (!verdict.is_ok() &&
          verdict.status().code() == ErrorCode::kParseError) {
        return transport_fail(Status(verdict.status()));
      }
      return Attempt(std::move(verdict), /*transport=*/false);
    }
    if (consumed > 0) rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);

    if (remaining() <= 0.0) {
      return transport_fail(Status::error(ErrorCode::kDeadlineExceeded,
                                          "response timed out"));
    }
    auto ev = sock_.poll_one(POLLIN, poll_timeout_ms(remaining()));
    if (!ev.is_ok()) return transport_fail(Status(ev.status()));
    if (ev.value() == 0) continue;  // timeout slice; remaining() re-checks
    std::uint8_t chunk[16 * 1024];
    auto io = sock_.read_some(chunk, sizeof(chunk));
    if (!io.ok()) return transport_fail(std::move(io.status));
    if (io.eof) {
      return transport_fail(Status::error(ErrorCode::kUnavailable,
                                          "connection closed by server"));
    }
    if (!io.would_block) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + io.bytes);
    }
  }
}

util::Result<Verdict> RemoteClient::detect(const std::vector<double>& features,
                                           double deadline_ms) {
  requests_.inc();
  const bool has_deadline = deadline_ms > 0.0;
  util::Stopwatch overall;
  Status last = Status::error(ErrorCode::kUnavailable, "no attempt made");

  // Sampling decision for this request: every trace_sample_every-th call
  // roots a distributed trace that the send spans (and, over the wire, the
  // server spans) parent under.
  const bool traced =
      config_.trace_sample_every > 0 &&
      (requests_.value() - 1) % config_.trace_sample_every == 0;
  std::optional<obs::TraceSpan> root;
  obs::TraceContext root_ctx;
  if (traced) {
    root.emplace("client.detect", obs::start_trace(/*sampled=*/true));
    root_ctx = root->context();
  }
  last_trace_id_ = root_ctx.trace_id;

  for (std::size_t attempt = 0;; ++attempt) {
    double budget = has_deadline ? deadline_ms - overall.elapsed_ms()
                                 : config_.request_timeout_ms;
    if (has_deadline && budget <= 0.0) {
      return Status::error(ErrorCode::kDeadlineExceeded,
                           "deadline exhausted after " +
                               std::to_string(attempt) + " attempts; last: " +
                               last.to_string())
          .with_context("RemoteClient::detect");
    }

    Attempt a = [&] {
      auto st = ensure_connected(std::min(budget, config_.connect_timeout_ms));
      if (!st.is_ok()) {
        attempts_.inc();
        transport_errors_.inc();
        return Attempt(util::Result<Verdict>(std::move(st)),
                       /*transport=*/true);
      }
      // A fresh id per attempt: a late response to an abandoned attempt can
      // then never be mistaken for the current one.
      return attempt_once(features, next_id_++, budget, has_deadline,
                          root_ctx);
    }();

    if (a.result.is_ok()) return a.result;
    const ErrorCode code = a.result.status().code();
    // Retriable: everything transport-level, the server's transient
    // refusals (kUnavailable: queue full / no model / shed), and
    // kCorruptData (the request was damaged in flight — resend it).
    const bool retriable = a.transport || code == ErrorCode::kUnavailable ||
                           code == ErrorCode::kCorruptData;
    if (!retriable) return a.result;
    last = a.result.status();

    if (attempt >= config_.max_retries) {
      return Status(last).with_context("RemoteClient::detect: retries exhausted");
    }
    double backoff =
        std::min(config_.backoff_initial_ms *
                     std::pow(config_.backoff_multiplier,
                              static_cast<double>(attempt)),
                 config_.backoff_max_ms);
    backoff *= 1.0 + config_.backoff_jitter * (2.0 * jitter_.uniform() - 1.0);
    if (has_deadline) {
      const double rem = deadline_ms - overall.elapsed_ms();
      // Too little budget left to fund the backoff plus a useful attempt.
      if (rem <= backoff + 1.0) {
        return Status::error(ErrorCode::kDeadlineExceeded,
                             "deadline cannot fund another retry; last: " +
                                 last.to_string())
            .with_context("RemoteClient::detect");
      }
    }
    {
      // The backoff gap shows up in the trace as its own span, so a slow
      // traced request is attributable to retries rather than the server.
      obs::TraceSpan backoff_span("client.backoff", root_ctx);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
    retries_.inc();
  }
}

}  // namespace gea::serve
