#pragma once
// net::BusServer — puts a bus::Broker on the TCP wire (DESIGN.md
// "Network substrate" + §12 "Event-driven network core"; the
// RabbitMQ-broker-on-the-network role of paper §IV-C, Fig. 1).
//
// Connections are multiplexed over N EventLoop workers (epoll reactors)
// instead of thread-per-connection: a net::Listener on the first worker
// assigns each accepted socket round-robin to a worker, and ALL protocol
// state for a connection lives on its worker thread. Beside the workers
// and one reaper, the only threads are consumer pumps — one per
// CONSUME'd queue — because the broker's basic_get blocks; a pump drains
// the broker in batches into the connection's bounded outbound buffer.
//
// Backpressure: Connection::send from a pump blocks while the outbound
// buffer is at its byte capacity, so a slow consumer stalls its own
// pump — the broker keeps the messages, the client's TCP window fills,
// and memory stays bounded; nothing is dropped.
//
// Batching: on connections that negotiated kFeatureBatch the pump packs
// its drain into one kDeliverBatch frame and clients pack publish
// bursts into kPublishBatch / acks into kAckBatch — many BP events per
// TCP segment. v1 peers (no feature bit) get singular frames, still
// coalesced into single writes by the Connection double buffer.
//
// Failure: when a connection dies (EOF, socket error, idle past the
// timeout) a reaper thread joins its pumps and nack-requeues every
// delivery handed to it and not yet acked, so the broker's redelivery /
// dead-letter machinery takes over exactly as if an in-process consumer
// had crashed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bus/broker.hpp"
#include "common/concurrent_queue.hpp"
#include "common/socket.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/listener.hpp"

namespace stampede::net {

class Connection;

struct BusServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read back with port().
  /// EventLoop workers connections are spread across.
  std::size_t workers = 1;
  /// Outbound BYTES buffered per connection before the consumer pumps
  /// block (the backpressure bound).
  std::size_t outbound_capacity = 1 << 20;
  /// Most deliveries a pump packs into one kDeliverBatch frame.
  std::size_t deliver_batch_max = 64;
  /// A heartbeat frame is sent when the outbound side is idle this long.
  int heartbeat_interval_ms = 5000;
  /// A peer with no inbound traffic (not even heartbeats) for this long
  /// is dropped and its in-flight deliveries nacked. 0 = never.
  int idle_timeout_ms = 30000;
};

class BusServer {
 public:
  /// Binds immediately (throws std::runtime_error on failure); serving
  /// starts with start().
  BusServer(bus::Broker& broker, BusServerOptions options = {});
  ~BusServer();

  BusServer(const BusServer&) = delete;
  BusServer& operator=(const BusServer&) = delete;

  void start();
  /// Drops every connection (nacking in-flight deliveries), then stops
  /// the workers and joins all threads. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] int port() const noexcept { return listener_.port(); }
  [[nodiscard]] std::size_t active_connections() const;

 private:
  struct ServerConn;

  void attach(const std::shared_ptr<ServerConn>& sconn);
  /// Consumes complete frames out of `data`; returns bytes eaten.
  std::size_t on_data(const std::shared_ptr<ServerConn>& sconn,
                      std::string_view data);
  /// Dispatches one inbound frame (worker thread). False = protocol
  /// violation; the connection is flushed and dropped.
  bool handle_frame(const std::shared_ptr<ServerConn>& sconn,
                    const Frame& frame);
  void handle_get(const std::shared_ptr<ServerConn>& sconn,
                  std::uint32_t channel, const std::string& queue,
                  std::int64_t deadline_ms);
  void start_consumer_pump(const std::shared_ptr<ServerConn>& sconn,
                           const std::string& queue);
  /// Heartbeat/idle sweep, one periodic timer per worker.
  void sweep_worker(EventLoop& loop);
  /// Reaper-thread half of teardown: joins the connection's pumps and
  /// nacks its in-flight deliveries back onto the broker.
  void reap(const std::shared_ptr<ServerConn>& sconn);

  bus::Broker* broker_;
  BusServerOptions options_;
  Listener listener_;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::jthread reaper_;
  common::ConcurrentQueue<std::shared_ptr<ServerConn>> reap_queue_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> conn_seq_{0};
  std::size_t next_loop_ = 0;  ///< loops_[0]-thread-only round robin.

  mutable std::mutex conns_mutex_;
  std::condition_variable conns_cv_;
  std::unordered_map<const ServerConn*, std::shared_ptr<ServerConn>> conns_;
};

}  // namespace stampede::net
