// Admin plane and SLO monitor tests: deterministic rolling-window verdict
// math (injectable clock), socket-free endpoint routing via
// AdminServer::handle(), real HTTP/1.0 round-trips over a loopback socket,
// and both admin.* fault points (transient accept failure, stalled
// scraper) proving a hostile client is counted and contained.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "features/disk_cache.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"
#include "serve/transport.hpp"
#include "util/faultinject.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;
using serve::AdminConfig;
using serve::AdminHooks;
using serve::AdminServer;
using serve::SloConfig;
using serve::SloMonitor;

bool spin_until(const std::function<bool()>& pred, double timeout_ms = 5000) {
  util::Stopwatch sw;
  while (sw.elapsed_ms() < timeout_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Best-effort blocking send of a raw request string.
void send_str(net::Socket& s, const std::string& req,
              double timeout_ms = 3000) {
  std::size_t off = 0;
  util::Stopwatch sw;
  while (off < req.size() && sw.elapsed_ms() < timeout_ms) {
    auto io = s.write_some(
        reinterpret_cast<const std::uint8_t*>(req.data()) + off,
        req.size() - off);
    if (!io.ok() || io.eof) return;
    off += io.bytes;
    if (io.would_block) (void)s.poll_one(POLLOUT, 50);
  }
}

/// Read until the peer closes (HTTP/1.0 is close-after-response, so EOF
/// delimits the body). Returns what arrived; empty on timeout-with-nothing.
/// `eof`, when given, reports whether the peer closed within the timeout.
std::string recv_until_eof(net::Socket& s, double timeout_ms = 3000,
                           bool* eof = nullptr) {
  std::string resp;
  util::Stopwatch sw;
  while (sw.elapsed_ms() < timeout_ms) {
    auto ev = s.poll_one(POLLIN, 50);
    if (!ev.is_ok()) break;
    if (ev.value() == 0) continue;
    std::uint8_t chunk[4096];
    auto io = s.read_some(chunk, sizeof(chunk));
    if (!io.ok() || io.eof) {
      if (eof != nullptr) *eof = io.eof;
      break;
    }
    resp.append(reinterpret_cast<const char*>(chunk), io.bytes);
  }
  return resp;
}

/// Blocking HTTP/1.0 GET against a loopback admin port.
std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& target,
                                    double timeout_ms = 3000) {
  auto sock = net::connect_to("127.0.0.1", port, timeout_ms);
  if (!sock.is_ok()) return std::nullopt;
  net::Socket s = std::move(sock).value();
  send_str(s, "GET " + target + " HTTP/1.0\r\n\r\n", timeout_ms);
  auto resp = recv_until_eof(s, timeout_ms);
  if (resp.empty()) return std::nullopt;
  return resp;
}

// --- SLO monitor: deterministic window math --------------------------------

SloConfig tight_slo() {
  SloConfig cfg;
  cfg.window_s = 10.0;
  cfg.buckets = 10;
  cfg.p99_target_ms = 250.0;
  cfg.max_error_fraction = 0.10;
  cfg.burn_degrade = 1.0;
  cfg.burn_recover = 0.5;
  cfg.min_requests = 20;
  return cfg;
}

TEST(Slo, IdleMonitorIsHealthy) {
  SloMonitor slo(tight_slo());
  EXPECT_FALSE(slo.degraded(0.0));
  const auto snap = slo.snapshot(0.0);
  EXPECT_EQ(snap.requests, 0u);
  EXPECT_EQ(snap.breaches, 0u);
  EXPECT_DOUBLE_EQ(snap.burn_rate, 0.0);
}

TEST(Slo, HealthyBelowMinRequests) {
  SloMonitor slo(tight_slo());
  // 100% errors, but under the min_requests gate: a barely-warmed window
  // must never flip readiness.
  for (int i = 0; i < 19; ++i) slo.record(1.0, /*ok=*/false, /*now_s=*/1.0);
  EXPECT_FALSE(slo.degraded(1.0));
  EXPECT_EQ(slo.snapshot(1.0).breaches, 0u);
}

TEST(Slo, DegradesWhenBurnRateCrossesThreshold) {
  SloMonitor slo(tight_slo());
  // 100 requests, 20 errors: error fraction 0.20 against a 0.10 budget is
  // burn rate 2.0 — past the degrade threshold.
  for (int i = 0; i < 80; ++i) slo.record(1.0, true, 1.0);
  for (int i = 0; i < 20; ++i) slo.record(1.0, false, 1.0);
  const auto snap = slo.snapshot(1.0);
  EXPECT_TRUE(snap.degraded);
  EXPECT_EQ(snap.requests, 100u);
  EXPECT_EQ(snap.errors, 20u);
  EXPECT_DOUBLE_EQ(snap.error_fraction, 0.20);
  EXPECT_DOUBLE_EQ(snap.burn_rate, 2.0);
  EXPECT_EQ(snap.breaches, 1u);
}

TEST(Slo, HysteresisHoldsUntilRecoverThreshold) {
  SloMonitor slo(tight_slo());
  for (int i = 0; i < 16; ++i) slo.record(1.0, true, 1.0);
  for (int i = 0; i < 4; ++i) slo.record(1.0, false, 1.0);
  ASSERT_TRUE(slo.degraded(1.0));  // 4/20 = 2x budget

  // Dilute to 4/60 ≈ 0.067: burn 0.67 sits between recover (0.5) and
  // degrade (1.0) — the verdict must hold degraded, not flap.
  for (int i = 0; i < 40; ++i) slo.record(1.0, true, 1.5);
  EXPECT_TRUE(slo.degraded(1.5));

  // Dilute further to 4/100 = 0.04: burn 0.4 <= 0.5 — now recover.
  for (int i = 0; i < 40; ++i) slo.record(1.0, true, 2.0);
  EXPECT_FALSE(slo.degraded(2.0));
  // The breach count is monotonic: recovery does not erase history.
  EXPECT_EQ(slo.snapshot(2.0).breaches, 1u);
}

TEST(Slo, LatencyP99BreachDegradesWithoutErrors) {
  SloMonitor slo(tight_slo());
  // Every request succeeds, but the tail blows the 250 ms objective.
  for (int i = 0; i < 50; ++i) slo.record(900.0, true, 1.0);
  const auto snap = slo.snapshot(1.0);
  EXPECT_TRUE(snap.degraded);
  EXPECT_GT(snap.p99_ms, 250.0);
  EXPECT_DOUBLE_EQ(snap.burn_rate, 0.0);

  // A later window of fast requests (the slow one rotated out) recovers.
  for (int i = 0; i < 50; ++i) slo.record(1.0, true, 14.0);
  EXPECT_FALSE(slo.degraded(14.0));
}

TEST(Slo, DrainedWindowAutoRecovers) {
  SloMonitor slo(tight_slo());
  for (int i = 0; i < 50; ++i) slo.record(1.0, false, 1.0);
  ASSERT_TRUE(slo.degraded(1.0));
  // No recovery traffic at all: once every slice has rotated out of the
  // window, there is nothing left to judge and readiness returns.
  EXPECT_TRUE(slo.degraded(5.0));  // still inside the window
  EXPECT_FALSE(slo.degraded(30.0));
  EXPECT_EQ(slo.snapshot(30.0).requests, 0u);
}

TEST(Slo, BreachMirrorsIntoMetricsRegistry) {
  const auto count = [] {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const auto it = snap.counters.find("slo.breach");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto before = count();
  SloMonitor slo(tight_slo());
  for (int i = 0; i < 50; ++i) slo.record(1.0, false, 1.0);
  ASSERT_TRUE(slo.degraded(1.0));
  EXPECT_GE(count(), before + 1);
}

// --- Endpoint routing (socket-free) ----------------------------------------

TEST(Admin, NonGetMethodIs405) {
  AdminServer admin;
  const auto r = admin.handle("POST", "/metrics");
  EXPECT_EQ(r.status, 405);
}

TEST(Admin, UnknownPathIs404ListingEndpoints) {
  AdminServer admin;
  const auto r = admin.handle("GET", "/nope");
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("/metrics"), std::string::npos);
  EXPECT_NE(r.body.find("/tracez"), std::string::npos);
}

TEST(Admin, HealthzIsAlwaysOk) {
  AdminServer admin;
  const auto r = admin.handle("GET", "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
}

TEST(Admin, MetricsRendersPrometheusExposition) {
  obs::MetricsRegistry::global().counter("admin_test.probe_total").inc();
  AdminServer admin;
  const auto r = admin.handle("GET", "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("admin_test_probe_total"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE"), std::string::npos);
}

TEST(Admin, ReadyzWithNoHooksIsReady) {
  AdminServer admin;
  const auto r = admin.handle("GET", "/readyz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("ready\n"), std::string::npos);
}

TEST(Admin, ReadyzFlipsWithSloVerdict) {
  SloConfig cfg = tight_slo();
  SloMonitor slo(cfg);
  AdminHooks hooks;
  hooks.slo = &slo;
  AdminServer admin({}, hooks);

  // handle() reads the monitor on the wall clock, so drive it there too:
  // 50 immediate errors land in the first live slice.
  for (int i = 0; i < 50; ++i) slo.record(1.0, /*ok=*/false);
  const auto degraded = admin.handle("GET", "/readyz");
  EXPECT_EQ(degraded.status, 503);
  EXPECT_NE(degraded.body.find("slo: degraded"), std::string::npos);
  EXPECT_NE(degraded.body.find("not ready"), std::string::npos);

  // Recovery traffic inside the same window flips it back (50 errors over
  // 1550 requests is burn 0.32, under the 0.5 recover threshold).
  for (int i = 0; i < 1500; ++i) slo.record(1.0, /*ok=*/true);
  const auto healthy = admin.handle("GET", "/readyz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("slo: healthy"), std::string::npos);
}

TEST(Admin, TracezServesTextJsonAndLimitQuery) {
  {
    obs::TraceSpan span("admin_test.span", obs::start_trace(true));
  }
  AdminServer admin;
  const auto text = admin.handle("GET", "/tracez");
  EXPECT_EQ(text.status, 200);
  EXPECT_NE(text.content_type.find("text/plain"), std::string::npos);

  const auto json = admin.handle("GET", "/tracez?format=json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("traceEvents"), std::string::npos);

  // ?limit=N is accepted (widened view for exemplar joins); garbage limits
  // fall back to the configured default instead of erroring.
  EXPECT_EQ(admin.handle("GET", "/tracez?limit=4096").status, 200);
  EXPECT_EQ(admin.handle("GET", "/tracez?limit=bogus").status, 200);
}

TEST(Admin, StatuszReportsKernelsAndTraceRing) {
  AdminServer admin;
  const auto r = admin.handle("GET", "/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("kernels:"), std::string::npos);
  EXPECT_NE(r.body.find("trace_ring:"), std::string::npos);
  EXPECT_NE(r.body.find("uptime_s:"), std::string::npos);
}

// --- Real HTTP over loopback -----------------------------------------------

TEST(Admin, ServesHealthzOverRealSocket) {
  AdminServer admin;
  ASSERT_TRUE(admin.start().is_ok());
  ASSERT_TRUE(spin_until([&] { return admin.running(); }));
  const auto resp = http_get(admin.port(), "/healthz");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(resp->find("\r\n\r\nok\n"), std::string::npos);
  EXPECT_GE(admin.stats().requests, 1u);
  admin.stop();
  EXPECT_FALSE(admin.running());
}

TEST(Admin, MalformedRequestLineIs400) {
  AdminServer admin;
  ASSERT_TRUE(admin.start().is_ok());
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "completely wrong\r\n\r\n");
  const std::string resp = recv_until_eof(s);
  EXPECT_EQ(resp.rfind("HTTP/1.0 400", 0), 0u) << resp;
}

TEST(Admin, OversizedRequestIs400) {
  AdminConfig cfg;
  cfg.max_request_bytes = 64;
  AdminServer admin(cfg);
  ASSERT_TRUE(admin.start().is_ok());
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  // No header terminator at all: the request can only end via the size cap.
  send_str(s, std::string(512, 'A'));
  const std::string resp = recv_until_eof(s);
  EXPECT_EQ(resp.rfind("HTTP/1.0 400", 0), 0u) << resp;
  EXPECT_NE(resp.find("request too large"), std::string::npos);
}

// Only the first max_request_bytes may hold the header: one that ends
// within them is served, whatever arrives behind it in the same read.
TEST(Admin, HeaderWithinCapIsServedDespiteTrailingBytes) {
  AdminConfig cfg;
  cfg.max_request_bytes = 64;
  AdminServer admin(cfg);
  ASSERT_TRUE(admin.start().is_ok());
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "GET /healthz HTTP/1.0\r\n\r\n" + std::string(512, 'A'));
  const std::string resp = recv_until_eof(s);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200", 0), 0u) << resp;
}

// A client that half-closes right after its request (shutdown(SHUT_WR))
// still gets the answer, then EOF.
TEST(Admin, RequestThenHalfCloseIsAnswered) {
  AdminServer admin;
  ASSERT_TRUE(admin.start().is_ok());
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "GET /healthz HTTP/1.0\r\n\r\n");
  ASSERT_EQ(::shutdown(s.fd(), SHUT_WR), 0);
  bool eof = false;
  const std::string resp = recv_until_eof(s, 3000, &eof);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200", 0), 0u) << resp;
  EXPECT_TRUE(eof);
  EXPECT_EQ(admin.stats().requests, 1u);
}

// RFC 1945 §8.2: a HEAD response carries the GET headers, Content-Length
// included, and no body.
TEST(Admin, HeadAnswersHeadersWithoutBody) {
  AdminServer admin;
  ASSERT_TRUE(admin.start().is_ok());
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "HEAD /healthz HTTP/1.0\r\n\r\n");
  const std::string resp = recv_until_eof(s);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200", 0), 0u) << resp;
  EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos) << resp;
  const auto header_end = resp.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos) << resp;
  EXPECT_EQ(resp.size(), header_end + 4) << "HEAD carried a body: " << resp;
}

// A request that stalls mid-header is closed at read_timeout_ms, unanswered,
// and counted as a slow client.
TEST(Admin, StalledRequestHeaderIsDisconnectedAndCounted) {
  AdminConfig cfg;
  cfg.read_timeout_ms = 80.0;
  AdminServer admin(cfg);
  ASSERT_TRUE(admin.start().is_ok());
  util::Stopwatch sw;
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "GET /healthz HTTP/1.0\r\n");  // no blank line: header unfinished
  bool eof = false;
  EXPECT_EQ(recv_until_eof(s, 5000, &eof), "");
  EXPECT_TRUE(eof);
  EXPECT_GE(sw.elapsed_ms(), cfg.read_timeout_ms);
  ASSERT_TRUE(spin_until([&] { return admin.stats().slow_clients >= 1; }));
  EXPECT_EQ(admin.stats().requests, 0u);
}

// --- Fault points ----------------------------------------------------------

TEST(Admin, AcceptFailFaultIsCountedAndScrapeRetried) {
  AdminServer admin;
  ASSERT_TRUE(admin.start().is_ok());
  ASSERT_TRUE(spin_until([&] { return admin.running(); }));
  util::ScopedFault fault(util::faults::kAdminAcceptFail, /*skip=*/0,
                          /*count=*/1);
  // The first accept attempt fails; the connection stays in the kernel
  // backlog and the next poll round picks it up, so the scrape still lands.
  const auto resp = http_get(admin.port(), "/healthz");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_GE(admin.stats().accept_failures, 1u);
}

TEST(Admin, SlowClientFaultIsDisconnectedAndCounted) {
  AdminConfig cfg;
  cfg.write_timeout_ms = 80.0;
  AdminServer admin(cfg);
  ASSERT_TRUE(admin.start().is_ok());
  ASSERT_TRUE(spin_until([&] { return admin.running(); }));
  // Every write pretends the scraper accepted nothing; the write deadline
  // must disconnect it rather than hold the buffer forever.
  util::ScopedFault fault(util::faults::kAdminSlowClient);
  auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
  ASSERT_TRUE(sock.is_ok());
  net::Socket s = std::move(sock).value();
  send_str(s, "GET /metrics HTTP/1.0\r\n\r\n");

  bool eof = false;
  util::Stopwatch sw;
  while (sw.elapsed_ms() < 5000 && !eof) {
    auto ev = s.poll_one(POLLIN, 50);
    if (!ev.is_ok()) break;
    if (ev.value() == 0) continue;
    std::uint8_t chunk[1024];
    auto io = s.read_some(chunk, sizeof(chunk));
    if (io.eof) eof = true;
  }
  EXPECT_TRUE(eof);  // closed with the response still pending
  ASSERT_TRUE(spin_until([&] { return admin.stats().slow_clients >= 1; }));
  EXPECT_GE(fault.fired(), 1u);
  // The request itself was processed (counted) before the stall.
  EXPECT_GE(admin.stats().requests, 1u);
  // Disarm and prove the plane still serves clean scrapes afterwards.
  util::FaultInjector::instance().disarm(util::faults::kAdminSlowClient);
  const auto resp = http_get(admin.port(), "/healthz");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->rfind("HTTP/1.0 200", 0), 0u);
}

// Every AdminSnapshot count is an obs::Tally: over a session with served
// scrapes, a failed accept and a stalled client, each equals the change in
// its "admin.*" series, and the admin loop counts its connections under
// the same names the transport's loop uses under "net.*".
TEST(Admin, InstanceCountsEqualTheirRegistryDeltas) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  serve::AdminSnapshot snap;
  {
    AdminConfig cfg;
    cfg.read_timeout_ms = 80.0;
    AdminServer admin(cfg);
    ASSERT_TRUE(admin.start().is_ok());
    ASSERT_TRUE(spin_until([&] { return admin.running(); }));
    {
      util::ScopedFault fault(util::faults::kAdminAcceptFail, /*skip=*/0,
                              /*count=*/1);
      ASSERT_TRUE(http_get(admin.port(), "/healthz").has_value());
    }
    ASSERT_TRUE(http_get(admin.port(), "/metrics").has_value());
    auto sock = net::connect_to("127.0.0.1", admin.port(), 2000);
    ASSERT_TRUE(sock.is_ok());
    net::Socket s = std::move(sock).value();
    send_str(s, "GET /healthz HTTP/1.0\r\n");  // never finished
    ASSERT_TRUE(spin_until([&] { return admin.stats().slow_clients >= 1; }));
    admin.stop();
    snap = admin.stats();
  }
  const auto after = obs::MetricsRegistry::global().snapshot().counters;
  const auto delta = [&](const std::string& name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.accept_failures, 1u);
  EXPECT_EQ(snap.slow_clients, 1u);
  EXPECT_EQ(delta("admin.requests_total"), snap.requests);
  EXPECT_EQ(delta("admin.accept_failures_total"), snap.accept_failures);
  EXPECT_EQ(delta("admin.slow_clients_total"), snap.slow_clients);
  EXPECT_EQ(delta("admin.connections_accepted_total"), 3u);
  EXPECT_EQ(delta("admin.connections_closed_total"), 3u);
  EXPECT_GT(delta("admin.bytes_read_total"), 0u);
  EXPECT_GT(delta("admin.bytes_written_total"), 0u);
}

// The registry series every counting class of the serving plane registers
// on construction: the names they had before they counted through
// obs::Tally, each keeping its meaning, plus exactly the ones DESIGN.md §8
// lists as added with it.
TEST(Admin, ServingPlaneRegistersEverySeries) {
  const std::set<std::string> counters_before = {
      "serve.submitted_total", "serve.accepted_total",
      "serve.rejected_full_total", "serve.rejected_invalid_total",
      "serve.rejected_no_model_total", "serve.expired_total",
      "serve.completed_total", "serve.batches_total",
      "net.frames_read_total", "net.frames_written_total",
      "net.frames_quarantined_total", "net.requests_shed_total",
      "net.idle_timeouts_total", "net.read_timeouts_total",
      "net.requests_total", "net.connections_accepted_total",
      "net.connections_closed_total", "net.accept_failures_total",
      "net.client.attempts_total", "net.client.retries_total",
      "net.client.reconnects_total", "net.client.transport_errors_total",
      "admin.requests_total", "admin.slow_clients_total",
      "admin.accept_failures_total", "features.cache.hits",
      "features.cache.misses", "features.cache.evictions",
      "features.disk.hits", "features.disk.misses",
      "features.disk.flushed_entries", "slo.breach"};
  const std::set<std::string> counters_added = {
      "net.responses_ok_total", "net.responses_error_total",
      "net.bytes_read_total", "net.bytes_written_total",
      "net.client.requests_total", "admin.connections_accepted_total",
      "admin.connections_closed_total", "admin.bytes_read_total",
      "admin.bytes_written_total"};
  const std::set<std::string> gauges = {
      "net.active_connections", "admin.active_connections",
      "features.cache.size", "slo.degraded", "slo.burn_rate"};
  const std::set<std::string> histograms = {
      "serve.batch_size", "serve.queue_ms",  "serve.infer_ms",
      "serve.total_ms",   "serve.featurize_ms", "net.request_ms"};

  serve::ModelRegistry models;
  serve::DetectionServer server(models);
  serve::TransportServer transport(server);
  serve::RemoteClient client(serve::ClientConfig{});
  AdminServer admin;
  SloMonitor slo;
  const auto absent = std::filesystem::temp_directory_path() /
                      ("gea_admin_series_" + std::to_string(::getpid()));
  auto disk = features::DiskFeatureCache::open(absent.string());
  ASSERT_TRUE(disk.is_ok());

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto names = [](const auto& map) {
    std::set<std::string> out;
    for (const auto& [name, value] : map) {
      for (const char* prefix : {"serve.", "net.", "admin.", "features.cache.",
                                 "features.disk.", "slo."}) {
        if (name.rfind(prefix, 0) == 0) out.insert(name);
      }
    }
    return out;
  };
  std::set<std::string> counters = counters_before;
  counters.insert(counters_added.begin(), counters_added.end());
  for (const auto& name : counters_before) {
    EXPECT_EQ(snap.counters.count(name), 1u) << name;
  }
  EXPECT_EQ(names(snap.counters), counters);
  EXPECT_EQ(names(snap.gauges), gauges);
  EXPECT_EQ(names(snap.histograms), histograms);
}

}  // namespace
