// POSIX TCP primitives for the loopback transport: an owning file
// descriptor and the few socket operations the bus needs (listen, connect,
// non-blocking mode, Nagle off). Everything binds to 127.0.0.1 only — the
// transport exists to run many RAPTEE nodes and service clients on one
// machine, not to expose an unauthenticated port to a network.
//
// Error reporting: constructor-style helpers throw NetError (with errno
// text); per-call I/O helpers return counts/optionals so the event loop can
// treat EAGAIN and peer resets as ordinary control flow.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace raptee::net {

/// Thrown on unrecoverable socket-setup failures (bind, listen, fcntl...).
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Owning file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral port).
/// Returns the listening socket (non-blocking, SO_REUSEADDR) and the bound
/// port. Throws NetError on failure.
[[nodiscard]] std::pair<Fd, std::uint16_t> listen_loopback(std::uint16_t port,
                                                           int backlog = 128);

/// Starts a non-blocking connect to 127.0.0.1:`port`. Returns the socket;
/// `*in_progress` reports whether the connect is still pending (EINPROGRESS
/// — wait for writability, then check connect_result). Throws NetError only
/// on socket-creation failure; a refused connection surfaces through
/// connect_result so callers can retry with backoff.
[[nodiscard]] Fd connect_loopback(std::uint16_t port, bool* in_progress);

/// Resolves a pending non-blocking connect: 0 on success, else the errno.
[[nodiscard]] int connect_result(int fd);

/// Accepts one pending connection (non-blocking); nullopt on EAGAIN.
/// Accepted sockets are returned non-blocking with TCP_NODELAY set.
[[nodiscard]] std::optional<Fd> accept_connection(int listen_fd);

/// Sets O_NONBLOCK; throws NetError on failure.
void set_nonblocking(int fd);
/// Disables Nagle (request/response latency matters more than packet
/// coalescing on loopback); best effort.
void set_nodelay(int fd);

/// read(2) wrapper: >0 bytes read, 0 on orderly EOF, -1 on EAGAIN,
/// -2 on a hard error (connection must be torn down).
[[nodiscard]] long read_some(int fd, std::uint8_t* buf, std::size_t cap);
/// send(2) wrapper with the same convention (-1 EAGAIN, -2 hard error,
/// including EPIPE once the peer has closed: it never raises SIGPIPE).
/// On a descriptor that is not a socket (a pipe) it calls write(2).
[[nodiscard]] long write_some(int fd, const std::uint8_t* buf, std::size_t len);

}  // namespace raptee::net
