// Live admin/introspection plane: a minimal HTTP/1.0 server (std-only, the
// HTTP handler of a net::EventLoop, the loop the transport runs too) that
// exposes the process's observability surface while it serves traffic:
//
//   GET /metrics  Prometheus exposition of the global MetricsRegistry,
//                 histogram buckets carrying exemplar trace ids.
//   GET /healthz  liveness: 200 as long as the process responds at all.
//   GET /readyz   readiness: 200 only when a model is active, the
//                 transport (when attached) is accepting and not draining,
//                 and the SLO monitor (when attached) is not degraded;
//                 otherwise 503 with the reasons in the body.
//   GET /tracez   recent distributed traces, newest first, as text;
//                 ?format=json downloads the ring as Chrome trace JSON.
//   GET /statusz  build info, active kernel config, queue depth/capacity,
//                 uptime.
//   HEAD          any of the above: the GET headers and no body.
//
// The admin plane is deliberately subordinate to the data plane: it runs
// its own event loop on its own thread, every connection is
// close-after-response with bounded request/response buffers and
// timeouts, and its two fault points (admin.accept.fail,
// admin.slow_client) let tests prove a hostile or stalled scraper is
// counted and disconnected without touching serving. Request handling is
// separated from socket I/O: handle() computes a full response from
// (method, target) and is unit-testable without a socket.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.hpp"

namespace gea::serve {

class DetectionServer;
class TransportServer;
class SloMonitor;

struct AdminConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via port() after start().
  std::uint16_t port = 0;
  /// A connection must deliver its full request within this long.
  double read_timeout_ms = 2'000.0;
  /// ...and drain its response within this long after that (slow scrapers
  /// are closed and counted as admin.slow_client).
  double write_timeout_ms = 2'000.0;
  /// Request-header ceiling; longer requests are answered 400 and closed.
  std::size_t max_request_bytes = 8 * 1024;
  /// How many recent traces /tracez renders.
  std::size_t tracez_limit = 16;
  /// Route this server through the admin.* fault points.
  bool fault_injection = true;
};

/// What the endpoints introspect. All optional; a hook left null simply
/// drops its section from /readyz//statusz. Hooked objects must outlive
/// the AdminServer.
struct AdminHooks {
  DetectionServer* server = nullptr;
  TransportServer* transport = nullptr;
  SloMonitor* slo = nullptr;
};

/// Counters for tests (all monotonic).
struct AdminSnapshot {
  std::uint64_t requests = 0;         // HTTP requests answered
  std::uint64_t accept_failures = 0;  // transient accept() failures
  std::uint64_t slow_clients = 0;     // connections closed for stalling
};

class AdminServer {
 public:
  explicit AdminServer(const AdminConfig& config = {}, AdminHooks hooks = {});
  ~AdminServer();  // stop()

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Bind + listen + launch the poll loop. Safe to call once.
  util::Status start();
  /// Close the listener and every connection; joins the loop. Idempotent.
  void stop();

  bool running() const;
  std::uint16_t port() const;
  const AdminConfig& config() const;
  AdminSnapshot stats() const;

  /// One computed HTTP response, socket-free.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Route (method, target) to an endpoint and render its body. `target`
  /// may carry a query string ("/tracez?format=json"). Unit-testable and
  /// used verbatim by the socket path.
  Response handle(const std::string& method, const std::string& target);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gea::serve
