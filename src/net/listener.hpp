#pragma once
// net::Listener — the one accept path of every server in the tree
// (HttpServer, BusServer, cluster::ShardHost; DESIGN.md §12).
//
// Binds at construction, so the port is known before serving starts;
// after start() the listen fd is watched on an EventLoop and each
// readable event drains the backlog, handing every accepted socket to
// the owner on the loop thread. EMFILE-class failures leave the pending
// connection queued and the level-triggered fd readable, so instead of
// retrying in a hot spin the listener drops its watch for 100 ms.

#include <functional>
#include <string>

#include "common/socket.hpp"
#include "net/event_loop.hpp"

namespace stampede::net {

class Listener {
 public:
  /// Receives each accepted socket (TCP_NODELAY, blocking mode).
  using AcceptHandler = std::function<void(common::SocketFd)>;

  /// Binds `host`:`port` (0 = ephemeral); throws std::runtime_error.
  Listener(const std::string& host, int port, int backlog);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Begins accepting on `loop` (any thread). Call at most once.
  void start(EventLoop& loop, AcceptHandler on_accept);
  /// Unwatches and closes the fd, so connects are refused. Idempotent.
  /// From a foreign thread it waits for the loop, so call it before
  /// stopping the loop.
  void stop();

  [[nodiscard]] int port() const noexcept { return port_; }

 private:
  void watch();
  void accept_ready();
  void pause();

  int port_ = 0;  ///< Declared first: fd_'s initializer writes it.
  common::SocketFd fd_;
  EventLoop* loop_ = nullptr;  ///< Set by start(), cleared by stop().
  AcceptHandler on_accept_;
  EventLoop::TimerId pause_timer_ = 0;
};

}  // namespace stampede::net
