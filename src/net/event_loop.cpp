#include "net/event_loop.hpp"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/log.hpp"

namespace gea::net {

namespace {

// Handlers notice completed work by polling for it, so the poll timeout
// doubles as its latency bound: tight while work is outstanding, relaxed
// when the loop is only watching fds.
constexpr int kBusyTickMs = 1;
constexpr int kIdleTickMs = 20;
constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::size_t kReadCapPerRound = 256 * 1024;  // fairness across fds
constexpr std::size_t kCompactAfter = 64 * 1024;

}  // namespace

EventLoop::Counters::Counters(const std::string& name)
    : accepted(name + ".connections_accepted_total"),
      closed(name + ".connections_closed_total"),
      accept_failures(name + ".accept_failures_total"),
      bytes_read(name + ".bytes_read_total"),
      bytes_written(name + ".bytes_written_total"),
      active_connections(
          obs::MetricsRegistry::global().gauge(name + ".active_connections")) {}

EventLoop::EventLoop(std::string name, Handler& handler,
                     double drain_timeout_ms)
    : name_(std::move(name)),
      handler_(handler),
      drain_timeout_ms_(drain_timeout_ms),
      counters_(name_) {}

EventLoop::~EventLoop() { stop(); }

util::Status EventLoop::start(const std::string& host, std::uint16_t port,
                              bool fault_injection) {
  if (started_.exchange(true)) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "already started");
  }
  auto st = listener_.listen(host, port);
  if (!st.is_ok()) {
    started_.store(false);
    return st;
  }
  listener_.set_fault_injection(fault_injection);
  host_.submit([this] { run(); });
  return util::Status::ok();
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  host_.wait_idle();
}

void EventLoop::close(Connection& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.sock.close();
  counters_.closed.inc();
}

void EventLoop::flush(Connection& conn) {
  while (!conn.dead && conn.pending() > 0) {
    auto io = conn.sock.write_some(conn.out.data() + conn.out_off,
                                   conn.pending());
    if (io.would_block) break;
    if (io.eof || !io.ok()) {
      close(conn);
      return;
    }
    conn.out_off += io.bytes;
    counters_.bytes_written.inc(io.bytes);
    conn.active.reset();
  }
  if (conn.pending() == 0 || conn.out_off > kCompactAfter) {
    conn.out.erase(conn.out.begin(), conn.out.begin() + conn.out_off);
    conn.out_off = 0;
  }
}

void EventLoop::read(Connection& conn) {
  std::uint8_t chunk[kReadChunk];
  std::size_t round = 0;
  while (round < kReadCapPerRound) {
    auto io = conn.sock.read_some(chunk, sizeof(chunk));
    if (!io.ok()) {
      util::log_warn(name_, ": read error: ", io.status.to_string());
      close(conn);
      return;
    }
    if (io.eof) {
      // A half-close: no more input, but the bytes of this round still
      // reach the handler, and run() closes once the replies are out.
      conn.reading = false;
      conn.peer_closed = true;
      break;
    }
    if (io.would_block) break;
    conn.in.insert(conn.in.end(), chunk, chunk + io.bytes);
    round += io.bytes;
    counters_.bytes_read.inc(io.bytes);
    conn.active.reset();
    if (io.bytes < sizeof(chunk)) break;  // likely drained
  }
  handler_.on_input(conn);
}

void EventLoop::accept_ready() {
  while (true) {
    const bool fault = handler_.accept_fault();
    auto res = fault ? ListenSocket::AcceptResult{} : listener_.accept_one();
    if (fault || !res.status.is_ok()) {
      // The pending connection stays queued; the next round retries it.
      counters_.accept_failures.inc();
      return;
    }
    if (res.would_block) return;
    auto conn = handler_.admit(conns_.size());
    if (conn == nullptr) continue;  // refused: res.socket closes here
    conn->sock = std::move(res.socket);
    conns_.push_back(std::move(conn));
    counters_.accepted.inc();
  }
}

void EventLoop::reap() {
  std::erase_if(conns_, [](const auto& conn) { return conn->dead; });
  counters_.open.store(conns_.size(), std::memory_order_relaxed);
  counters_.active_connections.set(static_cast<double>(conns_.size()));
}

void EventLoop::run() {
  running_.store(true, std::memory_order_release);
  bool draining = false;
  util::Stopwatch drain_sw;
  std::vector<struct pollfd> pfds;
  std::vector<Connection*> pfd_conns;  // parallel to pfds; null = listener

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      // Stop accepting first; busy connections finish and flush, then
      // everything closes.
      draining = true;
      draining_.store(true, std::memory_order_release);
      drain_sw.reset();
      listener_.close();
    }
    pfds.clear();
    pfd_conns.clear();
    if (listener_.valid()) {
      pfds.push_back({listener_.fd(), POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    bool busy = false, output = false;
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      busy = busy || handler_.busy(*conn);
      short events = conn->pending() > 0 ? POLLOUT : 0;
      if (!draining && conn->reading) events |= POLLIN;  // drains only flush
      output = output || events != 0;
      if (events == 0) continue;  // busy only: on_round polls its work
      pfds.push_back({conn->sock.fd(), events, 0});
      pfd_conns.push_back(conn.get());
    }
    if (draining && ((!busy && !output) ||
                     drain_sw.elapsed_ms() > drain_timeout_ms_)) {
      break;
    }

    int rc;
    do {
      rc = ::poll(pfds.data(), pfds.size(),
                  busy || draining ? kBusyTickMs : kIdleTickMs);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      util::log_error(name_, ": poll failed: ", std::strerror(errno));
      break;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfd_conns[i] == nullptr) {
        accept_ready();
        continue;
      }
      Connection& conn = *pfd_conns[i];
      if (conn.dead) continue;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        close(conn);
      } else if ((pfds[i].revents & (POLLIN | POLLHUP)) && conn.reading) {
        read(conn);
      }
    }
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      handler_.on_round(*conn);
      if (conn->peer_closed && !conn->dead && !handler_.busy(*conn) &&
          conn->pending() == 0) {
        close(*conn);  // the peer half-closed and is owed nothing more
      }
    }
    reap();
  }

  for (auto& conn : conns_) close(*conn);
  reap();
  listener_.close();
  running_.store(false, std::memory_order_release);
}

}  // namespace gea::net
