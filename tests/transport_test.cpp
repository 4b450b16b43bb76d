// End-to-end tests for the remote serving transport: loopback
// client/server verdict fidelity, deadline-budget propagation, retry with
// backoff, per-connection backpressure, slow-loris and idle timeouts, a
// peer's half-close, lenient/strict wire quarantine, graceful drain, and
// all five net.* fault points.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "features/scaler.hpp"
#include "ml/model.hpp"
#include "ml/zoo.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;
using gea::util::ErrorCode;
using gea::util::Rng;

constexpr std::size_t kDim = features::kNumFeatures;

std::vector<double> synthetic_row(Rng& rng) {
  std::vector<double> row(kDim);
  for (auto& v : row) v = rng.uniform(0.0, 50.0);
  return row;
}

features::FeatureVector to_fv(const std::vector<double>& row) {
  features::FeatureVector fv{};
  std::copy(row.begin(), row.end(), fv.begin());
  return fv;
}

/// Random-init paper CNN + fitted scaler written once per test process.
/// ctest runs each test as its own concurrent process, so the directory is
/// keyed by pid — a shared fixed path would be remove_all'd by one process
/// while another is loading from it.
const std::string& checkpoint_dir() {
  static const std::string dir = [] {
    Rng weight_rng(11), dropout_rng(0), data_rng(7);
    auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
    model.init(weight_rng);
    std::vector<features::FeatureVector> rows;
    for (int i = 0; i < 32; ++i) rows.push_back(to_fv(synthetic_row(data_rng)));
    features::FeatureScaler scaler;
    scaler.fit(rows);
    const auto d = (std::filesystem::temp_directory_path() /
                    ("gea_transport_test_" + std::to_string(::getpid())))
                       .string();
    std::filesystem::remove_all(d);
    auto st = serve::Checkpoint::write(d, model, &scaler);
    EXPECT_TRUE(st.is_ok()) << st.to_string();
    return d;
  }();
  return dir;
}

/// Registry + in-process server + transport, wired and started.
struct Rig {
  serve::ModelRegistry registry;
  std::optional<serve::DetectionServer> server;
  std::optional<serve::TransportServer> transport;

  explicit Rig(serve::ServerConfig server_cfg = {},
               serve::TransportConfig transport_cfg = {}) {
    auto st = registry.load("v1", checkpoint_dir());
    EXPECT_TRUE(st.is_ok()) << st.to_string();
    server.emplace(registry, server_cfg);
    transport.emplace(*server, transport_cfg);
    auto ts = transport->start();
    EXPECT_TRUE(ts.is_ok()) << ts.to_string();
  }

  serve::ClientConfig client_config() const {
    serve::ClientConfig cfg;
    cfg.port = transport->port();
    return cfg;
  }
};

bool spin_until(const std::function<bool()>& pred, double timeout_ms = 5000) {
  util::Stopwatch sw;
  while (sw.elapsed_ms() < timeout_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- Raw-socket helpers (tests that speak the protocol by hand) -----------

net::Socket raw_connect(std::uint16_t port) {
  auto sock = net::connect_to("127.0.0.1", port, 2000);
  EXPECT_TRUE(sock.is_ok()) << sock.status().to_string();
  return std::move(sock).value();
}

void send_all(net::Socket& sock, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  util::Stopwatch sw;
  while (off < bytes.size() && sw.elapsed_ms() < 5000) {
    auto io = sock.write_some(bytes.data() + off, bytes.size() - off);
    ASSERT_TRUE(io.ok()) << io.status.to_string();
    ASSERT_FALSE(io.eof);
    off += io.bytes;
    if (io.would_block) (void)sock.poll_one(POLLOUT, 100);
  }
  ASSERT_EQ(off, bytes.size());
}

std::vector<std::uint8_t> make_request_bytes(std::uint64_t id,
                                             const std::vector<double>& row,
                                             std::uint64_t budget_us = 0) {
  net::Frame f;
  f.type = net::FrameType::kDetectRequest;
  f.request_id = id;
  f.deadline_budget_us = budget_us;
  f.payload = serve::encode_detect_request_payload(row);
  return net::encode_frame(f);
}

/// Read one frame off a raw socket (nullopt on timeout/EOF/decode error).
std::optional<net::Frame> read_frame(net::Socket& sock,
                                     std::vector<std::uint8_t>& buf,
                                     double timeout_ms = 5000) {
  util::Stopwatch sw;
  while (sw.elapsed_ms() < timeout_ms) {
    auto res = net::decode_frame({buf.data(), buf.size()});
    if (res.kind == net::DecodeResult::Kind::kFrame) {
      buf.erase(buf.begin(), buf.begin() + res.consumed);
      return std::move(res.frame);
    }
    if (res.kind == net::DecodeResult::Kind::kError) return std::nullopt;
    auto ev = sock.poll_one(POLLIN, 50);
    if (!ev.is_ok() || ev.value() == 0) continue;
    std::uint8_t chunk[4096];
    auto io = sock.read_some(chunk, sizeof(chunk));
    if (!io.ok() || io.eof) return std::nullopt;
    buf.insert(buf.end(), chunk, chunk + io.bytes);
  }
  return std::nullopt;
}

/// True once the peer has closed the connection (read returns EOF).
bool wait_for_eof(net::Socket& sock, double timeout_ms = 5000) {
  util::Stopwatch sw;
  while (sw.elapsed_ms() < timeout_ms) {
    auto ev = sock.poll_one(POLLIN, 50);
    if (!ev.is_ok()) return false;
    if (ev.value() == 0) continue;
    std::uint8_t chunk[4096];
    auto io = sock.read_some(chunk, sizeof(chunk));
    if (io.eof) return true;
    if (!io.ok()) return false;
  }
  return false;
}

/// Reference logits on the legacy per-sample path, for bitwise comparison.
std::vector<double> reference_logits(const std::vector<double>& raw) {
  auto loaded = serve::Checkpoint::load(checkpoint_dir(), "ref");
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto ckpt = std::move(loaded).value();
  auto model = ckpt->clone_model();
  ml::ModelClassifier clf(model, kDim, 2);
  const auto scaled = ckpt->scaler()->transform(to_fv(raw));
  return clf.logits(std::vector<double>(scaled.begin(), scaled.end()));
}

// --- Fidelity --------------------------------------------------------------

TEST(Transport, LoopbackVerdictMatchesInProcessBitwise) {
  Rig rig;
  serve::RemoteClient client(rig.client_config());
  Rng rng(21);
  for (int i = 0; i < 5; ++i) {
    const auto row = synthetic_row(rng);
    auto remote = client.detect(row);
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    auto local = rig.server->detect(row);
    ASSERT_TRUE(local.is_ok()) << local.status().to_string();
    // The wire carries IEEE-754 bit patterns, so remote == local == the
    // offline classifier, bit for bit.
    EXPECT_EQ(remote.value().logits, local.value().logits);
    EXPECT_EQ(remote.value().logits, reference_logits(row));
    EXPECT_EQ(remote.value().predicted, local.value().predicted);
    EXPECT_EQ(remote.value().model_version, "v1");
  }
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(Transport, ConcurrentClientsAllServed) {
  Rig rig;
  constexpr int kClients = 8, kPerClient = 10;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) {
    pool.emplace_back([&, c] {
      serve::RemoteClient client(rig.client_config());
      Rng rng(100 + c);
      for (int i = 0; i < kPerClient; ++i) {
        auto r = client.detect(synthetic_row(rng));
        (r.is_ok() ? ok : failed).fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(failed.load(), 0);
  const auto snap = rig.transport->stats();
  EXPECT_EQ(snap.responses_ok, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(snap.accepted, static_cast<std::uint64_t>(kClients));
}

TEST(Transport, InvalidFeatureWidthIsRejectedNotRetried) {
  Rig rig;
  serve::RemoteClient client(rig.client_config());
  auto r = client.detect(std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(client.stats().retries, 0u);  // hard errors don't burn retries
}

TEST(Transport, NonFiniteFeatureInV2FrameGetsErrorFrame) {
  Rig rig;
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(109);
  auto row = synthetic_row(rng);
  row[3] = std::numeric_limits<double>::quiet_NaN();
  net::Frame f;
  f.type = net::FrameType::kDetectRequest;
  f.request_id = 31;
  f.payload = serve::encode_detect_request_payload(row, /*schema_digest=*/0);
  send_all(sock, net::encode_frame(f));

  std::vector<std::uint8_t> buf;
  auto frame = read_frame(sock, buf);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 31u);
  auto verdict = serve::decode_detect_response_payload(
      {frame->payload.data(), frame->payload.size()});
  ASSERT_FALSE(verdict.is_ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.server->stats().rejected_invalid, 1u);
}

// --- Deadlines and retries -------------------------------------------------

TEST(Transport, DeadlineBudgetPropagatesToServerQueue) {
  Rig rig;
  rig.server->pause();  // hold the queue so the deadline expires inside it
  serve::ClientConfig ccfg = rig.client_config();
  ccfg.max_retries = 0;
  serve::RemoteClient client(ccfg);
  Rng rng(31);
  util::Stopwatch sw;
  auto r = client.detect(synthetic_row(rng), /*deadline_ms=*/100.0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(sw.elapsed_ms(), 2000.0);
  // The server-side deadline is <= 100 ms from submit, and submit happened
  // before the client started waiting — so by now plus this margin it has
  // certainly passed, and the dequeue below must expire the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  rig.server->resume();
  // The wire budget reached the queue: the server expires the request at
  // dequeue rather than spending inference on it.
  ASSERT_TRUE(spin_until([&] { return rig.server->stats().expired >= 1; }));
  EXPECT_EQ(rig.server->stats().completed, 0u);
}

// The largest budget the wire carries, UINT64_MAX us, ends past the server
// clock's range: it can never fire, so the request is served as if it had
// no deadline. A client's infinite deadline saturates to that budget.
TEST(Transport, BudgetBeyondTheClockMeansNoDeadline) {
  Rig rig;
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(113);
  const auto row = synthetic_row(rng);
  send_all(sock, make_request_bytes(
                     41, row, std::numeric_limits<std::uint64_t>::max()));
  std::vector<std::uint8_t> buf;
  auto frame = read_frame(sock, buf);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 41u);
  auto verdict = serve::decode_detect_response_payload(
      {frame->payload.data(), frame->payload.size()});
  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value().logits, reference_logits(row));

  serve::RemoteClient client(rig.client_config());
  auto remote = client.detect(row, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
  EXPECT_EQ(remote.value().logits, verdict.value().logits);
  EXPECT_EQ(rig.server->stats().expired, 0u);
}

TEST(Transport, RetryBackoffHonorsDeadlineBudget) {
  // No server at all: every attempt fails at connect; the retry loop must
  // give up when the budget cannot fund another backoff, not after a fixed
  // retry count.
  serve::ClientConfig cfg;
  cfg.port = 1;  // closed port
  cfg.max_retries = 50;
  cfg.backoff_initial_ms = 20.0;
  cfg.backoff_multiplier = 1.0;
  cfg.backoff_jitter = 0.0;
  serve::RemoteClient client(cfg);
  util::Stopwatch sw;
  auto r = client.detect(std::vector<double>(kDim, 1.0), /*deadline_ms=*/150.0);
  const double elapsed = sw.elapsed_ms();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 1000.0);          // budget, not 50 retries, ended it
  EXPECT_GE(client.stats().attempts, 2u);  // but it did retry
  EXPECT_LT(client.stats().retries, 50u);
}

TEST(Transport, RetriesExhaustWithoutDeadline) {
  serve::ClientConfig cfg;
  cfg.port = 1;
  cfg.max_retries = 2;
  cfg.backoff_initial_ms = 1.0;
  serve::RemoteClient client(cfg);
  auto r = client.detect(std::vector<double>(kDim, 1.0));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(client.stats().attempts, 3u);  // 1 try + 2 retries
  EXPECT_EQ(client.stats().retries, 2u);
}

// --- Fault points ----------------------------------------------------------

TEST(Transport, ConnDropFaultIsRetriedTransparently) {
  Rig rig;
  util::ScopedFault fault(util::faults::kNetConnDrop, /*skip=*/0, /*count=*/1);
  serve::RemoteClient client(rig.client_config());
  Rng rng(41);
  auto r = client.detect(synthetic_row(rng));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_GE(client.stats().reconnects, 1u);
}

TEST(Transport, AcceptFailureLeavesConnectionInBacklog) {
  Rig rig;
  util::ScopedFault fault(util::faults::kNetAcceptFail, /*skip=*/0,
                          /*count=*/1);
  serve::RemoteClient client(rig.client_config());
  Rng rng(43);
  auto r = client.detect(synthetic_row(rng));
  // The accept failure is transient: the pending connection is retried on
  // the next poll round, so the request still succeeds.
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_GE(rig.transport->stats().accept_failures, 1u);
}

TEST(Transport, ReadShortFaultDesyncIsContained) {
  serve::TransportConfig tcfg;
  tcfg.read_timeout_ms = 100.0;  // slow-loris killer also mops up desync
  Rig rig({}, tcfg);
  util::ScopedFault fault(util::faults::kNetReadShort, /*skip=*/0,
                          /*count=*/1);
  serve::RemoteClient client(rig.client_config());
  Rng rng(47);
  auto r = client.detect(synthetic_row(rng));
  // First delivery is truncated and the tail dropped; the server's partial
  // frame times out, the connection dies, and the retry path resends.
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_GE(client.stats().retries, 1u);
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().read_timeouts >= 1; }));
}

TEST(Transport, FrameCorruptFaultQuarantinedAndRetried) {
  Rig rig;
  // Fires once, on the server's decode of the first request.
  util::ScopedFault fault(util::faults::kNetFrameCorrupt, /*skip=*/0,
                          /*count=*/1);
  serve::RemoteClient client(rig.client_config());
  Rng rng(53);
  auto r = client.detect(synthetic_row(rng));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_GE(rig.transport->stats().quarantined, 1u);
  EXPECT_GE(client.stats().retries, 1u);  // kCorruptData echo is retriable
}

TEST(Transport, WriteStallTriggersBackpressureShed) {
  serve::TransportConfig tcfg;
  // Small enough that two pending verdict frames (~114 bytes each) cross it.
  tcfg.write_buffer_limit = 160;
  Rig rig({}, tcfg);
  util::ScopedFault fault(util::faults::kNetWriteStall);

  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(59);
  const auto row = synthetic_row(rng);
  // Two verdicts land in the (stalled) write buffer and push it past the
  // soft cap...
  send_all(sock, make_request_bytes(1, row));
  send_all(sock, make_request_bytes(2, row));
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().responses_ok >= 2; }));
  // ...so subsequent requests are shed as kUnavailable instead of buffering
  // without bound.
  for (std::uint64_t id = 3; id <= 6; ++id) {
    send_all(sock, make_request_bytes(id, row));
  }
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().shed >= 1; }));
  EXPECT_GE(fault.fired(), 1u);
}

// --- Backpressure and timeouts --------------------------------------------

TEST(Transport, InflightLimitShedsAsUnavailable) {
  serve::TransportConfig tcfg;
  tcfg.max_inflight_per_conn = 2;
  Rig rig({}, tcfg);
  rig.server->pause();  // keep the first two requests in flight

  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(61);
  const auto row = synthetic_row(rng);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    send_all(sock, make_request_bytes(id, row));
  }

  // The four over-limit requests are answered immediately with
  // kUnavailable error frames, while the paused pair stays queued.
  std::vector<std::uint8_t> buf;
  std::size_t unavailable = 0;
  for (int i = 0; i < 4; ++i) {
    auto frame = read_frame(sock, buf);
    ASSERT_TRUE(frame.has_value());
    auto verdict = serve::decode_detect_response_payload(
        {frame->payload.data(), frame->payload.size()});
    ASSERT_FALSE(verdict.is_ok());
    EXPECT_EQ(verdict.status().code(), ErrorCode::kUnavailable);
    EXPECT_GE(frame->request_id, 3u);
    ++unavailable;
  }
  EXPECT_EQ(unavailable, 4u);
  EXPECT_EQ(rig.transport->stats().shed, 4u);

  rig.server->resume();
  for (int i = 0; i < 2; ++i) {
    auto frame = read_frame(sock, buf);
    ASSERT_TRUE(frame.has_value());
    auto verdict = serve::decode_detect_response_payload(
        {frame->payload.data(), frame->payload.size()});
    EXPECT_TRUE(verdict.is_ok()) << verdict.status().to_string();
    EXPECT_LE(frame->request_id, 2u);
  }
}

TEST(Transport, SlowLorisPartialFrameIsKilled) {
  serve::TransportConfig tcfg;
  tcfg.read_timeout_ms = 80.0;
  Rig rig({}, tcfg);
  net::Socket sock = raw_connect(rig.transport->port());
  // Half a header, then silence.
  std::vector<std::uint8_t> half(net::kHeaderBytes / 2, 0x47);
  send_all(sock, half);
  EXPECT_TRUE(wait_for_eof(sock));
  // The peer sees EOF the instant the fd closes; the counters land a few
  // instructions later on the loop thread, so poll briefly.
  ASSERT_TRUE(spin_until([&] {
    const auto snap = rig.transport->stats();
    return snap.read_timeouts >= 1 && snap.closed >= 1;
  }));
}

TEST(Transport, IdleConnectionIsReaped) {
  serve::TransportConfig tcfg;
  tcfg.idle_timeout_ms = 80.0;
  Rig rig({}, tcfg);
  net::Socket sock = raw_connect(rig.transport->port());
  EXPECT_TRUE(wait_for_eof(sock));
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().idle_timeouts >= 1; }));
}

// --- Half-close ------------------------------------------------------------

/// Timeouts far past any test's wait, so a close the tests see is the
/// half-close's, never a deadline's.
serve::TransportConfig patient_config() {
  serve::TransportConfig tcfg;
  tcfg.idle_timeout_ms = 60'000.0;
  tcfg.read_timeout_ms = 60'000.0;
  return tcfg;
}

/// Send `frames` pipelined detect requests, then shut down the write side.
void send_then_half_close(net::Socket& sock, std::uint64_t frames) {
  Rng rng(71);
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id = 1; id <= frames; ++id) {
    const auto frame = make_request_bytes(id, synthetic_row(rng));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  send_all(sock, bytes);
  ASSERT_EQ(::shutdown(sock.fd(), SHUT_WR), 0);
}

/// Read `frames` verdicts with distinct ids, then EOF; the server must
/// have closed the connection for the half-close, not for a timeout.
void expect_verdicts_then_eof(Rig& rig, net::Socket& sock,
                              std::uint64_t frames) {
  std::vector<std::uint8_t> buf;
  std::set<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < frames; ++i) {
    auto frame = read_frame(sock, buf);
    ASSERT_TRUE(frame.has_value()) << "response " << i;
    EXPECT_EQ(frame->type, net::FrameType::kDetectResponse);
    auto verdict = serve::decode_detect_response_payload(
        {frame->payload.data(), frame->payload.size()});
    EXPECT_TRUE(verdict.is_ok()) << verdict.status().to_string();
    ids.insert(frame->request_id);
  }
  EXPECT_EQ(ids.size(), frames);
  EXPECT_TRUE(buf.empty());
  EXPECT_TRUE(wait_for_eof(sock));
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().closed >= 1; }));
  const auto snap = rig.transport->stats();
  EXPECT_EQ(snap.requests, frames);
  EXPECT_EQ(snap.responses_ok, frames);
  EXPECT_EQ(snap.idle_timeouts, 0u);
  EXPECT_EQ(snap.read_timeouts, 0u);
}

// The FIN follows the frames at once, so the loop reads it while their
// verdicts are still being computed: every one must still be written.
TEST(Transport, HalfCloseAfterPipelinedFramesGetsEveryVerdict) {
  for (const std::uint64_t frames : {1u, 8u}) {
    SCOPED_TRACE("frames " + std::to_string(frames));
    Rig rig({}, patient_config());
    net::Socket sock = raw_connect(rig.transport->port());
    send_then_half_close(sock, frames);
    expect_verdicts_then_eof(rig, sock, frames);
  }
}

// The verdicts are held in the paused queue when the loop reads the FIN:
// the connection stays open until they are written.
TEST(Transport, HalfCloseWithVerdictsInFlightWaitsForThem) {
  constexpr std::uint64_t kFrames = 6;
  Rig rig({}, patient_config());
  rig.server->pause();
  net::Socket sock = raw_connect(rig.transport->port());
  send_then_half_close(sock, kFrames);
  ASSERT_TRUE(spin_until(
      [&] { return rig.transport->stats().requests == kFrames; }));
  // Give the loop rounds to read the FIN while nothing can complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rig.transport->stats().closed, 0u);
  rig.server->resume();
  expect_verdicts_then_eof(rig, sock, kFrames);
}

// Owed nothing, a half-closed connection closes at once, and so does one
// whose last frame never completed: neither waits for a timeout.
TEST(Transport, HalfCloseWithNothingOwedClosesPromptly) {
  for (const bool partial : {false, true}) {
    SCOPED_TRACE(partial ? "partial frame" : "no bytes");
    Rig rig({}, patient_config());
    net::Socket sock = raw_connect(rig.transport->port());
    if (partial) {
      send_all(sock, std::vector<std::uint8_t>(net::kHeaderBytes / 2, 0x47));
    }
    util::Stopwatch sw;
    ASSERT_EQ(::shutdown(sock.fd(), SHUT_WR), 0);
    EXPECT_TRUE(wait_for_eof(sock, 2000));
    EXPECT_LT(sw.elapsed_ms(), 2000.0);
    ASSERT_TRUE(spin_until([&] { return rig.transport->stats().closed >= 1; }));
    const auto snap = rig.transport->stats();
    EXPECT_EQ(snap.requests, 0u);
    EXPECT_EQ(snap.idle_timeouts, 0u);
    EXPECT_EQ(snap.read_timeouts, 0u);
  }
}

TEST(Transport, ConnectionStormBeyondCapIsShed) {
  serve::TransportConfig tcfg;
  tcfg.max_connections = 2;
  Rig rig({}, tcfg);
  std::vector<net::Socket> socks;
  for (int i = 0; i < 5; ++i) socks.push_back(raw_connect(rig.transport->port()));
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().shed >= 3; }));
  EXPECT_EQ(rig.transport->stats().accepted, 2u);
  // The overflow connections were accepted-then-closed, so their peers see
  // EOF promptly instead of hanging in the backlog.
  std::size_t eofs = 0;
  for (auto& s : socks) {
    if (wait_for_eof(s, 500)) ++eofs;
  }
  EXPECT_GE(eofs, 3u);
}

// --- Wire quarantine: lenient vs strict -----------------------------------

TEST(Transport, LenientChecksumMismatchAnswersErrorAndKeepsConnection) {
  Rig rig;
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(67);
  const auto row = synthetic_row(rng);

  auto corrupted = make_request_bytes(9, row);
  corrupted[net::kHeaderBytes + 4] ^= 0x10;  // flip a payload bit
  send_all(sock, corrupted);

  std::vector<std::uint8_t> buf;
  auto frame = read_frame(sock, buf);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 9u);  // id echoed from the damaged frame
  auto verdict = serve::decode_detect_response_payload(
      {frame->payload.data(), frame->payload.size()});
  ASSERT_FALSE(verdict.is_ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kCorruptData);
  EXPECT_GE(rig.transport->stats().quarantined, 1u);

  // Quarantine is per-frame, not per-connection: a clean frame on the same
  // socket is served normally.
  send_all(sock, make_request_bytes(10, row));
  auto good = read_frame(sock, buf);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->request_id, 10u);
  auto v = serve::decode_detect_response_payload(
      {good->payload.data(), good->payload.size()});
  EXPECT_TRUE(v.is_ok()) << v.status().to_string();
}

TEST(Transport, StrictModeClosesOnChecksumMismatch) {
  serve::TransportConfig tcfg;
  tcfg.strict = true;
  Rig rig({}, tcfg);
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(71);
  auto corrupted = make_request_bytes(1, synthetic_row(rng));
  corrupted[net::kHeaderBytes] ^= 0x01;
  send_all(sock, corrupted);
  EXPECT_TRUE(wait_for_eof(sock));
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().quarantined >= 1; }));
}

TEST(Transport, BadMagicClosesConnectionButNotServer) {
  Rig rig;
  net::Socket sock = raw_connect(rig.transport->port());
  std::vector<std::uint8_t> garbage(64, 0xff);
  send_all(sock, garbage);
  EXPECT_TRUE(wait_for_eof(sock));  // desync is unrecoverable, even lenient
  ASSERT_TRUE(spin_until([&] { return rig.transport->stats().quarantined >= 1; }));

  // The process and the listener survived; a fresh client is served.
  serve::RemoteClient client(rig.client_config());
  Rng rng(73);
  auto r = client.detect(synthetic_row(rng));
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
}

// --- Graceful drain --------------------------------------------------------

TEST(Transport, GracefulDrainFlushesInFlightWithoutDropsOrDoubles) {
  Rig rig;
  rig.server->pause();  // trap requests in flight behind the held queue

  constexpr int kClients = 4;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) {
    pool.emplace_back([&, c] {
      serve::ClientConfig cfg = rig.client_config();
      cfg.max_retries = 0;
      cfg.request_timeout_ms = 10'000.0;
      serve::RemoteClient client(cfg);
      Rng rng(80 + c);
      auto r = client.detect(synthetic_row(rng));
      (r.is_ok() ? ok : failed).fetch_add(1);
    });
  }
  ASSERT_TRUE(spin_until([&] { return rig.server->queue_depth() == kClients; }));

  // Drain while the requests are still pending: stop() must wait for them
  // to complete and flush before closing.
  std::thread stopper([&] { rig.transport->stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rig.server->resume();
  stopper.join();
  for (auto& t : pool) t.join();

  EXPECT_EQ(ok.load(), kClients);   // nothing dropped
  EXPECT_EQ(failed.load(), 0);
  const auto snap = rig.transport->stats();
  EXPECT_EQ(snap.responses_ok, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snap.active_connections, 0u);
  EXPECT_FALSE(rig.transport->running());
  // ...and nothing double-completed: one response frame per request.
  EXPECT_EQ(snap.frames_written, static_cast<std::uint64_t>(kClients));
}

// stop() bounds its drain: a request the paused server never answers holds
// stop() for drain_timeout_ms plus one loop tick, then the connection is
// force-closed and its peer sees EOF. The upper bound's margin absorbs
// scheduling on a loaded or sanitized run.
TEST(Transport, DrainTimeoutBoundsStopOnUnansweredRequest) {
  serve::TransportConfig tcfg;
  tcfg.drain_timeout_ms = 150.0;
  Rig rig({}, tcfg);
  rig.server->pause();
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(97);
  send_all(sock, make_request_bytes(1, synthetic_row(rng)));
  ASSERT_TRUE(spin_until([&] { return rig.server->queue_depth() == 1; }));

  util::Stopwatch sw;
  rig.transport->stop();
  const double stop_ms = sw.elapsed_ms();
  EXPECT_GE(stop_ms, tcfg.drain_timeout_ms);
  EXPECT_LT(stop_ms, tcfg.drain_timeout_ms + 20.0 + 500.0);
  EXPECT_FALSE(rig.transport->running());
  EXPECT_TRUE(wait_for_eof(sock));
  const auto snap = rig.transport->stats();
  EXPECT_EQ(snap.responses_ok + snap.responses_error, 0u);
  EXPECT_EQ(snap.active_connections, 0u);
  rig.server->resume();
}

TEST(Transport, StopIsIdempotentAndRefusesNewConnections) {
  Rig rig;
  const auto port = rig.transport->port();
  rig.transport->stop();
  rig.transport->stop();
  EXPECT_FALSE(rig.transport->running());
  auto sock = net::connect_to("127.0.0.1", port, 200);
  // Either refused outright or accepted by a dead kernel backlog and never
  // served — a client request must fail, not hang.
  if (sock.is_ok()) {
    serve::ClientConfig cfg;
    cfg.port = port;
    cfg.max_retries = 0;
    cfg.request_timeout_ms = 300.0;
    serve::RemoteClient client(cfg);
    auto r = client.detect(std::vector<double>(kDim, 1.0));
    EXPECT_FALSE(r.is_ok());
  }
}

// --- Observability ---------------------------------------------------------

TEST(Transport, CountersMirrorIntoMetricsRegistry) {
  const auto before =
      obs::MetricsRegistry::global().snapshot().counters;
  Rig rig;
  serve::RemoteClient client(rig.client_config());
  Rng rng(97);
  auto r = client.detect(synthetic_row(rng));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  // The event loop counts bytes_written once write() returns, which can be
  // after the client has already read the response; wait (bounded) for
  // that accounting before taking the snapshot.
  for (int i = 0; i < 2000 && rig.transport->stats().bytes_written == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto snap = rig.transport->stats();
  EXPECT_GE(snap.accepted, 1u);
  EXPECT_GE(snap.requests, 1u);
  EXPECT_GE(snap.frames_read, 1u);
  EXPECT_GE(snap.responses_ok, 1u);
  EXPECT_GT(snap.bytes_read, 0u);
  EXPECT_GT(snap.bytes_written, 0u);

  const auto after = obs::MetricsRegistry::global().snapshot();
  const auto count = [&](const std::string& name) {
    const auto it = after.counters.find(name);
    const std::uint64_t now = it == after.counters.end() ? 0 : it->second;
    const auto bit = before.find(name);
    return now - (bit == before.end() ? 0 : bit->second);
  };
  EXPECT_GE(count("net.requests_total"), 1u);
  EXPECT_GE(count("net.connections_accepted_total"), 1u);
  EXPECT_GE(count("net.frames_read_total"), 1u);
  ASSERT_NE(after.histograms.find("net.request_ms"), after.histograms.end());
  EXPECT_GE(after.histograms.at("net.request_ms").count, 1u);
}

// Every TransportSnapshot count, the loop's connection counts included, and
// every ClientStats count is an obs::Tally: over a session with served,
// refused, quarantined and shed traffic, each equals the change in its
// "net.*" or "net.client.*" series.
TEST(Transport, InstanceCountsEqualTheirRegistryDeltas) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  serve::TransportSnapshot t;
  serve::ClientStats c;
  {
    serve::TransportConfig tcfg;
    tcfg.max_connections = 2;
    Rig rig({}, tcfg);
    Rng rng(103);
    {
      serve::RemoteClient client(rig.client_config());
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client.detect(synthetic_row(rng)).is_ok());
      }
      EXPECT_FALSE(client.detect(std::vector<double>(kDim - 1, 1.0)).is_ok());
      // A damaged frame on a second connection: quarantined and answered.
      net::Socket sock = raw_connect(rig.transport->port());
      auto corrupted = make_request_bytes(9, synthetic_row(rng));
      corrupted[net::kHeaderBytes + 4] ^= 0x10;
      send_all(sock, corrupted);
      std::vector<std::uint8_t> buf;
      ASSERT_TRUE(read_frame(sock, buf).has_value());
      // A third connection is over the cap: shed.
      net::Socket extra = raw_connect(rig.transport->port());
      ASSERT_TRUE(spin_until([&] { return rig.transport->stats().shed >= 1; }));
      c = client.stats();
    }
    rig.transport->stop();
    t = rig.transport->stats();
  }
  const auto after = obs::MetricsRegistry::global().snapshot().counters;
  const auto delta = [&](const std::string& name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  EXPECT_EQ(delta("net.connections_accepted_total"), t.accepted);
  EXPECT_EQ(delta("net.connections_closed_total"), t.closed);
  EXPECT_EQ(delta("net.accept_failures_total"), t.accept_failures);
  EXPECT_EQ(delta("net.frames_read_total"), t.frames_read);
  EXPECT_EQ(delta("net.frames_written_total"), t.frames_written);
  EXPECT_EQ(delta("net.bytes_read_total"), t.bytes_read);
  EXPECT_EQ(delta("net.bytes_written_total"), t.bytes_written);
  EXPECT_EQ(delta("net.frames_quarantined_total"), t.quarantined);
  EXPECT_EQ(delta("net.requests_shed_total"), t.shed);
  EXPECT_EQ(delta("net.idle_timeouts_total"), t.idle_timeouts);
  EXPECT_EQ(delta("net.read_timeouts_total"), t.read_timeouts);
  EXPECT_EQ(delta("net.requests_total"), t.requests);
  EXPECT_EQ(delta("net.responses_ok_total"), t.responses_ok);
  EXPECT_EQ(delta("net.responses_error_total"), t.responses_error);
  EXPECT_EQ(t.accepted, 2u);
  EXPECT_EQ(t.closed, t.accepted);
  EXPECT_EQ(t.quarantined, 1u);
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.responses_ok, 3u);
  EXPECT_EQ(t.responses_error, 2u);
  EXPECT_GT(t.bytes_read, 0u);
  EXPECT_GT(t.bytes_written, 0u);

  EXPECT_EQ(delta("net.client.requests_total"), c.requests);
  EXPECT_EQ(delta("net.client.attempts_total"), c.attempts);
  EXPECT_EQ(delta("net.client.retries_total"), c.retries);
  EXPECT_EQ(delta("net.client.reconnects_total"), c.reconnects);
  EXPECT_EQ(delta("net.client.transport_errors_total"), c.transport_errors);
  EXPECT_EQ(c.requests, 4u);
  EXPECT_EQ(c.attempts, 4u);
}

// --- Distributed trace propagation -----------------------------------------

TEST(Transport, SingleTraceIdLinksClientAndServerSpans) {
  Rig rig;
  serve::ClientConfig ccfg = rig.client_config();
  ccfg.trace_sample_every = 1;  // root a trace on every request
  serve::RemoteClient client(ccfg);
  Rng rng(101);
  auto r = client.detect(synthetic_row(rng));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  const std::uint64_t tid = client.stats().last_trace_id;
  ASSERT_NE(tid, 0u);

  // The server-side spans land on the transport loop / batch worker threads
  // a beat after the response frame, so poll the recorder.
  const auto have = [&](const char* name) {
    for (const auto& ev : obs::TraceRecorder::global().trace(tid)) {
      if (ev.name == name) return true;
    }
    return false;
  };
  ASSERT_TRUE(spin_until([&] {
    return have("client.detect") && have("client.send") &&
           have("net.server_request") && have("serve.queue_wait") &&
           have("serve.infer");
  })) << "trace " << tid << " is missing spans";

  // One trace id stitches both processes' views together: every span in the
  // assembled trace carries the client's root id.
  for (const auto& ev : obs::TraceRecorder::global().trace(tid)) {
    EXPECT_EQ(ev.trace_id, tid) << ev.name;
  }
}

TEST(Transport, UntracedClientLeavesNoTraceBehind) {
  Rig rig;
  serve::ClientConfig ccfg = rig.client_config();
  ccfg.trace_sample_every = 0;  // tracing off
  serve::RemoteClient client(ccfg);
  Rng rng(103);
  auto r = client.detect(synthetic_row(rng));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(client.stats().last_trace_id, 0u);
}

TEST(Transport, MalformedTraceContextOverWireIsQuarantined) {
  Rig rig;
  net::Socket sock = raw_connect(rig.transport->port());
  Rng rng(107);
  const auto row = synthetic_row(rng);

  // Scramble the trace block: id 0 under a nonzero word. Lenient mode
  // quarantines the frame, echoes the request id in an error frame, and
  // keeps the connection.
  auto corrupted = make_request_bytes(21, row);
  for (std::size_t i = net::kHeaderPrefixBytes;
       i < net::kHeaderPrefixBytes + 8; ++i) {
    corrupted[i] = 0;
  }
  corrupted[net::kHeaderPrefixBytes + 8] = 0x01;
  send_all(sock, corrupted);

  std::vector<std::uint8_t> buf;
  auto frame = read_frame(sock, buf);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 21u);
  auto verdict = serve::decode_detect_response_payload(
      {frame->payload.data(), frame->payload.size()});
  ASSERT_FALSE(verdict.is_ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_GE(rig.transport->stats().quarantined, 1u);

  // The connection survives the quarantine: a clean traced frame on the
  // same socket is served.
  send_all(sock, make_request_bytes(22, row));
  auto good = read_frame(sock, buf);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->request_id, 22u);
  auto v = serve::decode_detect_response_payload(
      {good->payload.data(), good->payload.size()});
  EXPECT_TRUE(v.is_ok()) << v.status().to_string();
}

}  // namespace
