// Thin RAII layer over POSIX TCP sockets, non-blocking by default, with
// the wire-path fault points threaded through the syscall wrappers.
//
// Design rules:
//  - No exceptions, no blocking surprises: every operation reports through
//    IoResult / util::Status and EAGAIN is a first-class outcome, because
//    net::EventLoop multiplexes many connections over poll().
//  - EINTR is retried internally; SIGPIPE is suppressed (MSG_NOSIGNAL) so a
//    peer that vanished mid-write surfaces as an error, not a dead process.
//  - Fault injection is opt-in per socket (set_fault_injection): the
//    transport's event loop arms it on the listener and on accepted
//    connections, while the admin plane and clients keep clean sockets —
//    that is what makes counted fault plans deterministic in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace gea::net {

/// Outcome of one read/write attempt on a non-blocking socket.
struct IoResult {
  std::size_t bytes = 0;     // transferred this call (0 is valid)
  bool would_block = false;  // EAGAIN/EWOULDBLOCK: retry after poll
  bool eof = false;          // orderly shutdown (read) / peer gone (write)
  util::Status status;       // non-OK on a real socket error
  bool ok() const { return status.is_ok(); }
};

/// Move-only owner of one socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Route this socket's syscalls through the net.* fault points.
  void set_fault_injection(bool enabled) { inject_ = enabled; }
  bool fault_injection() const { return inject_; }

  util::Status set_nonblocking();

  /// recv() wrapper. Fault points (injection enabled only):
  ///  - net.conn.drop: synthesizes a peer reset (reported as eof);
  ///  - net.read.short: keeps only half of what arrived, dropping the tail
  ///    (at least 1 byte is kept), desynchronizing the frame stream.
  IoResult read_some(std::uint8_t* buf, std::size_t len);

  /// send() wrapper (MSG_NOSIGNAL). Fault point (injection enabled only):
  ///  - net.write.stall: pretends the kernel accepted zero bytes, reported
  ///    as would_block so the caller's bounded write buffer absorbs it.
  IoResult write_some(const std::uint8_t* buf, std::size_t len);

  /// Single-fd poll with a millisecond timeout (<0 = wait forever).
  /// Returns the revents mask (0 on timeout); POLLIN/POLLOUT per `events`.
  util::Result<short> poll_one(short events, int timeout_ms);

 private:
  int fd_ = -1;
  bool inject_ = false;
};

/// Listening IPv4 socket bound to `host:port` (port 0 = ephemeral; the
/// bound port is readable afterwards via port()). Non-blocking, SO_REUSEADDR.
class ListenSocket {
 public:
  util::Status listen(const std::string& host, std::uint16_t port,
                      int backlog = 64);
  std::uint16_t port() const { return port_; }
  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  void close() { sock_.close(); }

  void set_fault_injection(bool enabled) { sock_.set_fault_injection(enabled); }

  /// One accept() attempt. Outcomes:
  ///  - a valid, non-blocking Socket (fault injection inherited);
  ///  - invalid Socket + would_block=true: backlog empty, poll again;
  ///  - invalid Socket + error Status: transient accept failure (counted by
  ///    the caller; the listener itself stays healthy).
  /// Fault point net.accept.fail (injection enabled only) synthesizes the
  /// transient-failure outcome while leaving the pending connection queued,
  /// so the next poll round retries it.
  struct AcceptResult {
    Socket socket;
    bool would_block = false;
    util::Status status;
  };
  AcceptResult accept_one();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Non-blocking connect to `host:port`, waiting up to `timeout_ms` for the
/// handshake. The returned socket is non-blocking and clean (no fault
/// injection) — clients are the peer under test's victims, not its chaos.
util::Result<Socket> connect_to(const std::string& host, std::uint16_t port,
                                int timeout_ms);

}  // namespace gea::net
