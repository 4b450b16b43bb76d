#include "serve/admin.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <vector>

#include "kernels/config.hpp"
#include "net/event_loop.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"
#include "serve/transport.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gea::serve {

namespace {

const char* status_text(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
  }
  return "Internal Server Error";
}

/// Serialize a Response as a full HTTP/1.0 close-after-response message.
/// A HEAD response carries the GET headers, Content-Length included, and no
/// body (RFC 1945 §8.2).
std::vector<std::uint8_t> render_http(const AdminServer::Response& r,
                                      bool head) {
  std::ostringstream os;
  os << "HTTP/1.0 " << r.status << " " << status_text(r.status) << "\r\n"
     << "Content-Type: " << r.content_type << "\r\n"
     << "Content-Length: " << r.body.size() << "\r\n"
     << "Connection: close\r\n\r\n";
  if (!head) os << r.body;
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// One admin connection: read the request, answer once, flush, close.
struct HttpConn : net::Connection {
  util::Stopwatch age;  // from accept, then from the response
};

}  // namespace

/// HTTP/1.0 request parsing and close-after-response, as the event loop's
/// handler.
struct AdminServer::Impl final : net::EventLoop::Handler {
  AdminServer& self;
  AdminConfig config;
  AdminHooks hooks;

  obs::Tally requests{"admin.requests_total"};
  obs::Tally slow_clients{"admin.slow_clients_total"};

  util::Stopwatch uptime;
  // Last: its thread calls into the members above. stop() closes at once.
  net::EventLoop loop{"admin", *this, /*drain_timeout_ms=*/0.0};

  Impl(AdminServer& s, const AdminConfig& cfg, AdminHooks h)
      : self(s), config(cfg), hooks(h) {}

  std::unique_ptr<net::Connection> admit(std::size_t) override {
    return std::make_unique<HttpConn>();
  }

  bool accept_fault() override {
    // Synthesized transient accept failure: the pending scrape stays in the
    // backlog and the next poll round retries it.
    return config.fault_injection &&
           util::fault(util::faults::kAdminAcceptFail);
  }

  void on_input(net::Connection& conn) override {
    // Only the first max_request_bytes may hold the header.
    const std::string_view head(
        reinterpret_cast<const char*>(conn.in.data()),
        std::min(conn.in.size(), config.max_request_bytes));
    if (head.find("\r\n\r\n") == std::string_view::npos &&
        head.find("\n\n") == std::string_view::npos) {
      if (conn.in.size() <= config.max_request_bytes) return;  // still arriving
      return respond(conn, {.status = 400, .body = "request too large\n"});
    }
    // Request line: METHOD SP TARGET [SP VERSION]. Anything unparseable is
    // a 400; the admin plane never guesses.
    std::istringstream line(std::string(head.substr(0, head.find('\n'))));
    std::string method, target;
    line >> method >> target;
    if (method.empty() || target.empty() || target[0] != '/') {
      return respond(conn, {.status = 400, .body = "malformed request line\n"});
    }
    respond(conn, self.handle(method, target), /*head=*/method == "HEAD");
  }

  void respond(net::Connection& conn, const Response& r, bool head = false) {
    conn.reading = false;
    conn.out = render_http(r, head);
    requests.inc();
    static_cast<HttpConn&>(conn).age.reset();  // write deadline starts now
  }

  /// Flush, close after the response, and close a client that stalls past
  /// its read or write deadline.
  void on_round(net::Connection& nconn) override {
    auto& conn = static_cast<HttpConn&>(nconn);
    // Synthesized stalled scraper: pretend it accepted nothing this round;
    // the write deadline below disconnects it.
    if (conn.pending() > 0 &&
        !(config.fault_injection &&
          util::fault(util::faults::kAdminSlowClient))) {
      loop.flush(conn);
      if (conn.pending() == 0) return loop.close(conn);  // after the response
    }
    if (conn.dead) return;
    const double limit =
        conn.reading ? config.read_timeout_ms : config.write_timeout_ms;
    if (conn.age.elapsed_ms() > limit) {
      slow_clients.inc();
      util::log_warn("admin: closing slow client (",
                     conn.reading ? "request stalled" : "response stalled",
                     " after ", conn.age.elapsed_ms(), " ms)");
      loop.close(conn);
    }
  }
};

AdminServer::AdminServer(const AdminConfig& config, AdminHooks hooks)
    : impl_(std::make_unique<Impl>(*this, config, hooks)) {}

AdminServer::~AdminServer() { stop(); }

util::Status AdminServer::start() {
  // admin.* fault points only: the net.* points stay off this plane.
  return impl_->loop
      .start(impl_->config.host, impl_->config.port, /*fault_injection=*/false)
      .with_context("AdminServer::start");
}

void AdminServer::stop() { impl_->loop.stop(); }

bool AdminServer::running() const { return impl_->loop.running(); }

std::uint16_t AdminServer::port() const { return impl_->loop.port(); }

const AdminConfig& AdminServer::config() const { return impl_->config; }

AdminSnapshot AdminServer::stats() const {
  return {.requests = impl_->requests.value(),
          .accept_failures = impl_->loop.counters().accept_failures.value(),
          .slow_clients = impl_->slow_clients.value()};
}

AdminServer::Response AdminServer::handle(const std::string& method,
                                          const std::string& target) {
  if (method != "GET" && method != "HEAD") {
    return Response{405, "text/plain; charset=utf-8",
                    "only GET is supported\n"};
  }
  const auto qpos = target.find('?');
  const std::string path = target.substr(0, qpos);
  const std::string query =
      qpos == std::string::npos ? std::string() : target.substr(qpos + 1);

  if (path == "/metrics") {
    return Response{
        200, "text/plain; version=0.0.4; charset=utf-8",
        obs::to_prometheus(obs::MetricsRegistry::global().snapshot())};
  }
  if (path == "/healthz") {
    return Response{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (path == "/readyz") {
    // Readiness is the conjunction of every attached subsystem's view:
    // model activated, transport accepting (not draining), SLO healthy.
    std::ostringstream body;
    bool ready = true;
    auto& hooks = impl_->hooks;
    if (hooks.server != nullptr) {
      const bool has_model = hooks.server->registry().active() != nullptr;
      if (!has_model) ready = false;
      body << "model: " << (has_model ? "active" : "none") << " (generation "
           << hooks.server->registry().generation() << ")\n";
      body << "queue: " << hooks.server->queue_depth() << "/"
           << hooks.server->config().queue_capacity << "\n";
    }
    if (hooks.transport != nullptr) {
      if (hooks.transport->draining()) {
        ready = false;
        body << "transport: draining\n";
      } else if (!hooks.transport->running()) {
        ready = false;
        body << "transport: stopped\n";
      } else {
        body << "transport: accepting (port " << hooks.transport->port()
             << ")\n";
      }
    }
    if (hooks.slo != nullptr) {
      const SloSnapshot slo = hooks.slo->snapshot();
      if (slo.degraded) ready = false;
      body << "slo: " << (slo.degraded ? "degraded" : "healthy")
           << " (burn_rate " << slo.burn_rate << ", p99 " << slo.p99_ms
           << " ms, " << slo.errors << "/" << slo.requests
           << " errors in window, " << slo.breaches << " breaches)\n";
    }
    body << (ready ? "ready\n" : "not ready\n");
    return Response{ready ? 200 : 503, "text/plain; charset=utf-8",
                    body.str()};
  }
  if (path == "/tracez") {
    if (query == "format=json") {
      return Response{200, "application/json",
                      obs::chrome_trace_json(obs::TraceRecorder::global())};
    }
    // ?limit=N widens the view up to everything still in the ring (a scrape
    // joining exemplar ids against /tracez wants more than the default).
    std::size_t limit = impl_->config.tracez_limit;
    if (const std::string key = "limit="; query.rfind(key, 0) == 0) {
      const long parsed = std::atol(query.c_str() + key.size());
      if (parsed > 0) limit = static_cast<std::size_t>(parsed);
    }
    return Response{200, "text/plain; charset=utf-8",
                    obs::tracez_text(obs::TraceRecorder::global(), limit)};
  }
  if (path == "/statusz") {
    std::ostringstream body;
    body << "gea detection server admin plane\n";
#if defined(__VERSION__)
    body << "compiler: " << __VERSION__ << "\n";
#endif
    body << "uptime_s: " << impl_->uptime.elapsed_ms() / 1000.0 << "\n";
    body << "kernels: " << kernels::active_config_summary() << "\n";
    auto& hooks = impl_->hooks;
    if (hooks.server != nullptr) {
      const auto stats = hooks.server->stats();
      body << "serve: " << stats.completed << " completed, "
           << stats.queue_depth << " queued, " << stats.batches
           << " batches\n";
    }
    if (hooks.transport != nullptr) {
      const auto t = hooks.transport->stats();
      body << "transport: " << t.requests << " requests, "
           << t.active_connections << " active connections, " << t.quarantined
           << " quarantined, " << t.shed << " shed\n";
    }
    const auto& rec = obs::TraceRecorder::global();
    body << "trace_ring: " << rec.events().size() << "/" << rec.capacity()
         << " spans, " << rec.dropped() << " dropped\n";
    return Response{200, "text/plain; charset=utf-8", body.str()};
  }
  return Response{404, "text/plain; charset=utf-8",
                  "unknown endpoint " + path +
                      " (try /metrics /healthz /readyz /tracez /statusz)\n"};
}

}  // namespace gea::serve
