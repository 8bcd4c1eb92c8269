#pragma once
// net::Connection — one TCP peer owned by one EventLoop (DESIGN.md §12).
//
// The connection owns both directions of buffering:
//
//   Inbound: a growing read buffer with consumed-prefix compaction. Each
//   readable event drains the socket (bounded rounds so one chatty peer
//   cannot starve the loop), then hands the unconsumed span to the
//   caller's DataHandler, which returns how many bytes it swallowed —
//   partial frames simply stay buffered for the next event.
//
//   Outbound: a double buffer. Producers (consumer pumps, handler
//   replies) append into `pending_` under a mutex; the loop thread swaps
//   the whole pending batch into `front_` and writes it with as few
//   send() calls as the socket accepts — that swap IS the write
//   coalescing (many frames, one syscall). When the kernel buffer fills,
//   the loop arms EPOLLOUT and resumes on writability.
//
// Backpressure: send() from a non-loop thread blocks while the pending
// buffer is at capacity, which stalls the consumer pump, which leaves
// messages parked in the broker — the bounded chain the slow-consumer
// tests pin. The loop thread itself NEVER blocks: its sends (control
// replies, heartbeats) append unconditionally, since a blocked loop
// would deadlock the very flush that frees space.
//
// Thread model: everything except send()/close() must run on the loop
// thread. Lifetime is shared_ptr-managed; the fd-watch closure holds one
// reference, so a connection stays alive through its own teardown
// callback.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/socket.hpp"

namespace stampede::telemetry {
class Counter;
}

namespace stampede::net {

class EventLoop;

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  struct Options {
    /// Bytes of pending outbound data before cross-thread send() blocks.
    std::size_t outbound_capacity = 1 << 20;
    /// recv() chunk size per read attempt.
    std::size_t read_chunk = 64 * 1024;
    /// Optional byte accounting (callers own the series; null = off).
    telemetry::Counter* bytes_in = nullptr;
    telemetry::Counter* bytes_out = nullptr;
  };

  /// Receives the unconsumed inbound span; returns bytes consumed.
  /// Leftovers are re-presented (prepended) on the next readable event.
  using DataHandler = std::function<std::size_t(std::string_view)>;
  /// Fires exactly once, on the loop thread, when the connection dies
  /// (peer EOF, socket error, or close()).
  using CloseHandler = std::function<void()>;

  Connection(EventLoop& loop, common::SocketFd fd, Options options);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop (loop thread only). Switches the fd to
  /// non-blocking and arms readability. `received` (bytes a blocking
  /// handshake read past its reply) reaches on_data before it returns.
  void start(DataHandler on_data, CloseHandler on_close,
             std::string received = {});

  /// Queues `bytes` for transmission. Thread-safe. From a non-loop
  /// thread, blocks while the outbound buffer is at capacity (the
  /// backpressure bound); from the loop thread, appends and flushes
  /// immediately without blocking. Returns false once closed.
  bool send(std::string_view bytes);

  /// Tears the connection down. Thread-safe, idempotent; unblocks any
  /// senders parked in send().
  void close();

  /// Closes once everything queued so far has reached the kernel
  /// (HTTP "write response, then hang up"). Thread-safe: non-loop
  /// callers are deferred onto the loop.
  void close_after_flush();

  /// True once teardown ran (loop thread only — racy elsewhere).
  [[nodiscard]] bool closed() const noexcept { return closed_loop_; }

 private:
  void handle_events(std::uint32_t mask);
  void handle_readable();
  /// Hands the unconsumed inbound bytes to on_data_.
  void deliver();
  void flush_on_loop();
  void do_close();

  EventLoop& loop_;
  common::SocketFd fd_;
  Options options_;

  DataHandler on_data_;
  CloseHandler on_close_;

  // Loop-thread-only state.
  std::string inbuf_;
  std::size_t in_off_ = 0;        ///< Consumed prefix of inbuf_.
  std::string front_;             ///< Outbound bytes being written.
  std::size_t front_off_ = 0;
  bool writable_armed_ = false;
  bool close_after_flush_ = false;
  bool closed_loop_ = false;

  // Shared outbound state.
  std::mutex out_mutex_;
  std::condition_variable out_cv_;
  std::string pending_;           ///< Appended by producers, swapped by loop.
  std::size_t pending_chunks_ = 0;
  bool flush_scheduled_ = false;
  bool closed_ = false;
};

}  // namespace stampede::net
