#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace raptee::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::pair<Fd, std::uint16_t> listen_loopback(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind(127.0.0.1)");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  set_nonblocking(fd.get());
  return {std::move(fd), ntohs(addr.sin_port)};
}

Fd connect_loopback(std::uint16_t port, bool* in_progress) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  const sockaddr_in addr = loopback_addr(port);
  const int rc =
      ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  *in_progress = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !*in_progress) {
    // Refused/unreachable right away (loopback commonly fails synchronously
    // with ECONNREFUSED): hand back the errno through connect_result by
    // closing here and signalling with an invalid fd.
    return Fd();
  }
  return fd;
}

int connect_result(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

std::optional<Fd> accept_connection(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return std::nullopt;
    // ECONNABORTED and friends: the would-be connection is already gone;
    // treat like "nothing to accept".
    return std::nullopt;
  }
  Fd owned(fd);
  set_nonblocking(fd);
  set_nodelay(fd);
  return owned;
}

long read_some(int fd, std::uint8_t* buf, std::size_t cap) {
  while (true) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) return n;
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

long write_some(int fd, const std::uint8_t* buf, std::size_t len) {
  while (true) {
    // MSG_NOSIGNAL: a write racing the peer's close fails with EPIPE
    // instead of raising SIGPIPE, which would kill the process. Pipes (the
    // event loop's wake pipe) are not sockets and take write(2).
    ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, buf, len);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

}  // namespace raptee::net
