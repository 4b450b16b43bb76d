// The one poll()-multiplexed event loop behind every TCP server here: the
// detection transport and the admin plane are its two protocol handlers.
// The loop owns the listener, the connection table, one ::poll round per
// tick (1 ms while a handler has work in flight or a drain runs, 20 ms
// otherwise), 16 KiB reads under a 256 KiB cap per connection per round,
// buffered writes, close and reap, stop() with an optional bounded drain,
// and the one thread it runs on. A peer that half-closes (EOF on read)
// still gets what it asked for: the bytes read with the EOF reach the
// handler, and the connection closes once the handler has nothing in
// flight for it and its output is flushed. A Handler supplies the
// protocol: its per-connection state (derived from Connection), what
// arriving bytes mean, and what each round does. Every Handler call runs
// on that thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::net {

/// One accepted connection. A Handler derives its protocol state from it.
struct Connection {
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  virtual ~Connection() = default;

  Socket sock;
  std::vector<std::uint8_t> in;   // received, not yet consumed
  std::vector<std::uint8_t> out;  // queued, not yet flushed
  std::size_t out_off = 0;        // flushed prefix of `out`
  util::Stopwatch active;         // reset whenever bytes move either way
  bool reading = true;            // polled and read for input while set
  bool peer_closed = false;       // EOF read: closes once idle and flushed
  bool dead = false;

  std::size_t pending() const { return out.size() - out_off; }
};

class EventLoop {
 public:
  /// The protocol half of a server.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// State for a just-accepted socket, or nullptr to refuse it (the
    /// socket closes at once). `open` counts the live connections.
    virtual std::unique_ptr<Connection> admit(std::size_t open) = 0;
    /// New bytes were appended to conn.in.
    virtual void on_input(Connection& conn) = 0;
    /// Once per round for every live connection, after input: queue
    /// output and flush() it, and close() what outlived a deadline.
    virtual void on_round(Connection& conn) = 0;
    /// True while conn has work in flight: the loop ticks at 1 ms, and a
    /// drain waits for it.
    virtual bool busy(const Connection&) const { return false; }
    /// Checked before each accept attempt; true fails the attempt as a
    /// transient failure and leaves the connection in the backlog.
    virtual bool accept_fault() { return false; }
  };

  /// Connection counters, readable from any thread, each mirrored into
  /// the loop's "<name>.*" registry series: <name>.connections_accepted_total,
  /// .connections_closed_total, .accept_failures_total, .bytes_read_total,
  /// .bytes_written_total, and the gauge .active_connections for open, the
  /// live connections at the last reap (the rest are monotonic).
  struct Counters {
    explicit Counters(const std::string& name);
    obs::Tally accepted, closed, accept_failures, bytes_read, bytes_written;
    std::atomic<std::size_t> open{0};
    obs::Gauge& active_connections;
  };

  /// `name` prefixes the loop's log lines and its registry series. stop()
  /// lets busy connections finish and flush for up to `drain_timeout_ms`
  /// (0 = close at once).
  EventLoop(std::string name, Handler& handler, double drain_timeout_ms);
  ~EventLoop();  // stop()

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Bind + listen, then run the loop on its thread. Fails (without
  /// crashing) when the address is unusable; safe to call once.
  /// `fault_injection` arms the net.* fault points on the listener and on
  /// every accepted socket.
  util::Status start(const std::string& host, std::uint16_t port,
                     bool fault_injection);
  /// Close the listener, drain as configured, close every connection and
  /// join the loop. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True from the round that notices stop() until the loop exits.
  bool draining() const {
    return draining_.load(std::memory_order_acquire) && running();
  }
  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return listener_.port(); }
  const Counters& counters() const { return counters_; }

  /// Loop thread only: write as much of conn.out as the socket takes; a
  /// write error closes the connection.
  void flush(Connection& conn);
  /// Loop thread only: close the socket now; the round's reap drops it.
  void close(Connection& conn);

 private:
  void run();
  void accept_ready();
  void read(Connection& conn);
  void reap();

  const std::string name_;
  Handler& handler_;
  const double drain_timeout_ms_;
  ListenSocket listener_;
  std::vector<std::unique_ptr<Connection>> conns_;  // loop thread only
  Counters counters_;
  std::atomic<bool> started_{false}, stop_requested_{false},
      running_{false}, draining_{false};

  // Declared last: its thread runs run(), which reads every member above,
  // and the pool joins it before they are destroyed.
  util::ThreadPool host_{1};
};

}  // namespace gea::net
