#include "net/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace probgraph::net {

namespace {

// system_category().message() instead of strerror(): same text, but
// thread-safe (strerror writes a shared static buffer, and sockets fail
// on session threads concurrently).
[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::system_category().message(errno));
}

// MSG_NOSIGNAL suppresses SIGPIPE per send on Linux/BSD; where it does not
// exist the caller must ignore SIGPIPE process-wide (Server's run path and
// pgtool client both do, so either guard is sufficient).
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

// The serve protocol is write-write-read: a pipelined burst answers in one
// write per reply with no request bytes flowing back in between, and
// Nagle holding the second small segment until the peer's delayed ACK
// turns a microsecond reply into a ~40ms stall. Sessions are interactive
// RPC — disable Nagle on both ends. Best effort: a non-TCP fd (e.g. a test
// socketpair) just ignores it.
void set_nodelay(int fd) noexcept {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

long Socket::read_some(void* buf, std::size_t n) noexcept {
  if (fd_ < 0) return 0;
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, n, 0);
    if (got >= 0) return static_cast<long>(got);
    if (errno == EINTR) continue;
    return -1;
  }
}

bool Socket::write_all(const void* buf, std::size_t n) noexcept {
  if (fd_ < 0) return false;
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, kSendFlags);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

void Socket::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  sock_ = Socket(fd);

  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    fail_errno("setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    fail_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, backlog) != 0) fail_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

Socket TcpListener::accept() noexcept {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return Socket{};
  }
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + host + ": " + ::gai_strerror(rc));
  }

  int last_errno = 0;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      set_nodelay(fd);
      return Socket(fd);
    }
    last_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(res);
  errno = last_errno;
  fail_errno("connect to " + host + ":" + service);
}

}  // namespace probgraph::net
