#include "common/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace stampede::common {

namespace {

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("socket: bad IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

void SocketFd::reset() noexcept {
  if (fd_ >= 0) {
    // POSIX leaves the fd state unspecified after close() fails with
    // EINTR; on Linux the descriptor is gone either way, so retrying
    // would race a concurrent open. One close is correct here.
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

bool set_tcp_nodelay(int fd, bool enabled) {
  const int value = enabled ? 1 : 0;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, sizeof(value)) ==
         0;
}

bool set_reuseaddr(int fd, bool enabled) {
  const int value = enabled ? 1 : 0;
  return ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &value, sizeof(value)) ==
         0;
}

SocketFd listen_tcp(const std::string& host, int port, int backlog,
                    int* bound_port) {
  SocketFd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw std::runtime_error("socket() failed");
  (void)set_reuseaddr(fd.get());
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw std::runtime_error("bind(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len);
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  if (::listen(fd.get(), backlog) < 0) {
    throw std::runtime_error("listen() failed");
  }
  return fd;
}

SocketFd accept_nonblocking(int listen_fd, int* fatal_errno) {
  if (fatal_errno != nullptr) *fatal_errno = 0;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SocketFd client{fd};
      (void)set_tcp_nodelay(client.get());
      return client;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // EAGAIN means the backlog is drained; anything else (EMFILE,
    // ENFILE, ENOMEM, ...) leaves the pending connection in place — the
    // fd stays level-triggered-readable, so a caller that cannot tell
    // the two apart retries in a tight spin. Surface the errno.
    if (errno != EAGAIN && errno != EWOULDBLOCK && fatal_errno != nullptr) {
      *fatal_errno = errno;
    }
    return SocketFd{};
  }
}

SocketFd connect_tcp(const std::string& host, int port) {
  sockaddr_in addr;
  try {
    addr = make_addr(host, port);
  } catch (const std::exception&) {
    return SocketFd{};
  }
  SocketFd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) return SocketFd{};
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) {
      // The connect continues in the background; wait for writability
      // and read the result instead of calling connect() again (a
      // second connect on an in-progress socket yields EALREADY).
      pollfd pfd{fd.get(), POLLOUT, 0};
      while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 &&
          soerr == 0) {
        break;
      }
      return SocketFd{};
    }
    return SocketFd{};
  }
  (void)set_tcp_nodelay(fd.get());
  return fd;
}

bool send_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A blocking caller handed us a non-blocking fd (or SO_SNDTIMEO
      // fired): park on writability rather than spin.
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, -1);
      if (ready < 0 && errno != EINTR) return false;
      continue;
    }
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

RecvStatus recv_some(int fd, void* buf, std::size_t size, int timeout_ms,
                     std::size_t* received) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return RecvStatus::kTimeout;
  if (ready < 0) return errno == EINTR ? RecvStatus::kTimeout
                                       : RecvStatus::kError;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, size, 0);
    if (n > 0) {
      if (received != nullptr) *received = static_cast<std::size_t>(n);
      return RecvStatus::kData;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kTimeout;
    return RecvStatus::kError;
  }
}

std::ptrdiff_t send_some(int fd, const void* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

RecvStatus recv_nonblocking(int fd, void* buf, std::size_t size,
                            std::size_t* received) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, size, MSG_DONTWAIT);
    if (n > 0) {
      if (received != nullptr) *received = static_cast<std::size_t>(n);
      return RecvStatus::kData;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kTimeout;
    return RecvStatus::kError;
  }
}

}  // namespace stampede::common
