#include "net/bus_server.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "net/connection.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::net {

namespace {

using Clock = std::chrono::steady_clock;

struct ServerTelemetry {
  telemetry::Gauge& active =
      telemetry::registry().gauge("stampede_net_connections_active");
  telemetry::Counter& total =
      telemetry::registry().counter("stampede_net_connections_total");
  telemetry::Counter& bytes_in =
      telemetry::registry().counter("stampede_net_bytes_in_total");
  telemetry::Counter& bytes_out =
      telemetry::registry().counter("stampede_net_bytes_out_total");
  telemetry::Counter& heartbeats =
      telemetry::registry().counter("stampede_net_heartbeats_sent_total");
  telemetry::Counter& idle_drops =
      telemetry::registry().counter("stampede_net_idle_drops_total");
  telemetry::Counter& disconnect_nacked = telemetry::registry().counter(
      "stampede_net_disconnect_nacked_total");
  telemetry::Counter& protocol_errors =
      telemetry::registry().counter("stampede_net_protocol_errors_total");
  /// Frames decoded per reactor read pass — the batching win in one
  /// number (1.0 ≈ no coalescing; higher = fewer syscalls per frame).
  telemetry::Histogram& frames_per_syscall = telemetry::registry().histogram(
      "stampede_net_frames_per_syscall", {1.0, 2.0, 12});
};

ServerTelemetry& server_telemetry() {
  static ServerTelemetry instance;
  return instance;
}

/// Worker-thread retry granularity for timed GETs (the reactor never
/// blocks in the broker; it re-polls on a timer).
constexpr int kGetSliceMs = 20;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct BusServer::ServerConn {
  ServerConn(EventLoop& owner, common::SocketFd fd, std::uint64_t id,
             const BusServerOptions& options)
      : loop(&owner), tag("net-" + std::to_string(id)) {
    Connection::Options copts;
    copts.outbound_capacity = options.outbound_capacity;
    copts.bytes_in = &server_telemetry().bytes_in;
    copts.bytes_out = &server_telemetry().bytes_out;
    conn = std::make_shared<Connection>(owner, std::move(fd), copts);
  }

  EventLoop* loop;
  std::shared_ptr<Connection> conn;
  std::string tag;  ///< Broker consumer tag for everything on this conn.

  // Worker-thread-only protocol state.
  bool hello_done = false;
  bool dying = false;  ///< Fatal frame seen; drain input, flush, close.

  /// Features negotiated at handshake (client ∩ kSupportedFeatures).
  /// Written once on the worker thread before any pump exists; atomic
  /// because consumer pumps read it concurrently afterwards.
  std::atomic<std::uint32_t> features{0};
  std::atomic<std::int64_t> last_inbound_ms{now_ms()};
  std::atomic<std::int64_t> last_outbound_ms{now_ms()};

  // Deliveries pushed to this client and not yet acked/nacked by it;
  // nack-requeued en masse by the reaper when the connection dies.
  std::mutex outstanding_mutex;
  std::set<std::pair<std::string, std::uint64_t>> outstanding;
  std::set<std::string> consuming;  ///< Queues with a running pump.
  std::vector<std::jthread> pumps;

  [[nodiscard]] bool has_feature(std::uint32_t bit) const noexcept {
    return (features.load(std::memory_order_relaxed) & bit) != 0;
  }
  [[nodiscard]] bool wire_trace() const noexcept {
    return has_feature(kFeatureTrace);
  }

  /// All outbound traffic funnels through here so the heartbeat sweep
  /// sees send-side idleness.
  bool send(std::string_view bytes) {
    last_outbound_ms.store(now_ms(), std::memory_order_relaxed);
    return conn->send(bytes);
  }
};

BusServer::BusServer(bus::Broker& broker, BusServerOptions options)
    : broker_(&broker),
      options_(std::move(options)),
      listener_(options_.host, options_.port, /*backlog=*/512) {
  options_.workers = std::max<std::size_t>(options_.workers, 1);
  options_.deliver_batch_max =
      std::max<std::size_t>(options_.deliver_batch_max, 1);
}

BusServer::~BusServer() { stop(); }

void BusServer::start() {
  if (running_.exchange(true)) return;
  loops_.clear();
  for (std::size_t i = 0; i < options_.workers; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    auto* loop = loops_.back().get();
    loop->start();
    loop->defer([this, loop] { sweep_worker(*loop); });
  }
  reaper_ = std::jthread([this] {
    while (auto sconn = reap_queue_.pop()) reap(*sconn);
  });
  listener_.start(*loops_.front(), [this](common::SocketFd fd) {
    // Round-robin worker assignment; the accepting loop never touches
    // the socket again.
    auto* loop = loops_[next_loop_++ % loops_.size()].get();
    attach(std::make_shared<ServerConn>(
        *loop, std::move(fd), conn_seq_.fetch_add(1) + 1, options_));
  });
}

void BusServer::stop() {
  listener_.stop();
  // Close every connection; the workers run each teardown (nack handoff
  // to the reaper included) and the registry drains.
  {
    std::unique_lock lock{conns_mutex_};
    for (const auto& [_, sconn] : conns_) sconn->conn->close();
    conns_cv_.wait(lock, [this] { return conns_.empty(); });
  }
  if (reaper_.joinable()) {
    reap_queue_.close();  // pop() drains, then returns nullopt.
    reaper_.join();
  }
  for (const auto& loop : loops_) loop->stop();
  loops_.clear();
  running_.store(false);
}

std::size_t BusServer::active_connections() const {
  const std::scoped_lock lock{conns_mutex_};
  return conns_.size();
}

void BusServer::attach(const std::shared_ptr<ServerConn>& sconn) {
  auto& tele = server_telemetry();
  tele.total.inc();
  {
    const std::scoped_lock lock{conns_mutex_};
    conns_[sconn.get()] = sconn;
    tele.active.set(static_cast<std::int64_t>(conns_.size()));
  }
  sconn->loop->defer([this, sconn] {
    sconn->conn->start(
        [this, sconn](std::string_view data) { return on_data(sconn, data); },
        [this, sconn] {
          auto& tele = server_telemetry();
          // Hand to the reaper BEFORE leaving the registry: stop() treats
          // an empty registry as "every teardown is visible to the reaper"
          // and then closes the queue — a push after that close is dropped
          // and the connection's pumps would never be joined.
          reap_queue_.push(sconn);
          {
            const std::scoped_lock lock{conns_mutex_};
            conns_.erase(sconn.get());
            tele.active.set(static_cast<std::int64_t>(conns_.size()));
          }
          conns_cv_.notify_all();
        });
  });
}

std::size_t BusServer::on_data(const std::shared_ptr<ServerConn>& sconn,
                               std::string_view data) {
  auto& tele = server_telemetry();
  if (sconn->dying) return data.size();  // Flushing a fatal error; drain.
  sconn->last_inbound_ms.store(now_ms(), std::memory_order_relaxed);
  std::size_t eaten = 0;
  std::size_t frames = 0;
  while (!sconn->conn->closed()) {
    Frame frame;
    std::size_t consumed = 0;
    const auto status =
        decode_frame(data.substr(eaten), consumed, frame);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      tele.protocol_errors.inc();
      sconn->dying = true;
      sconn->conn->close();
      return data.size();
    }
    eaten += consumed;
    ++frames;
    if (!handle_frame(sconn, frame)) {
      // Protocol violation: the error reply is queued; flush it, then
      // hang up. Input past this point is ignored.
      sconn->dying = true;
      sconn->conn->close_after_flush();
      eaten = data.size();
      break;
    }
  }
  if (frames > 0) tele.frames_per_syscall.observe(static_cast<double>(frames));
  return eaten;
}

bool BusServer::handle_frame(const std::shared_ptr<ServerConn>& sconn,
                             const Frame& frame) {
  auto& tele = server_telemetry();
  if (!sconn->hello_done) {
    std::uint16_t version = 0;
    std::uint32_t requested = 0;
    if (frame.type != FrameType::kHello ||
        !parse_hello(frame, &version, &requested)) {
      tele.protocol_errors.inc();
      sconn->send(encode_error(frame.channel, "expected hello"));
      return false;
    }
    if (version != kProtocolVersion) {
      sconn->send(encode_error(
          frame.channel, "protocol version mismatch: server " +
                             std::to_string(kProtocolVersion) + ", client " +
                             std::to_string(version)));
      return false;
    }
    const std::uint32_t granted = requested & kSupportedFeatures;
    sconn->features.store(granted, std::memory_order_relaxed);
    sconn->hello_done = true;
    sconn->send(encode_hello_ok(frame.channel, granted));
    return true;
  }

  // Request/reply ops answer on the request's channel; broker errors
  // travel back as kError instead of killing the connection.
  const auto reply_guarded = [&](auto&& operation) {
    try {
      operation();
      sconn->send(encode_ok(frame.channel));
    } catch (const std::exception& e) {
      sconn->send(encode_error(frame.channel, e.what()));
    }
    return true;
  };

  switch (frame.type) {
    case FrameType::kHeartbeat:
      return true;  // last_inbound_ms already refreshed the idle clock.

    case FrameType::kDeclareExchange: {
      std::string name;
      bus::ExchangeType type{};
      if (!parse_declare_exchange(frame, &name, &type)) break;
      return reply_guarded([&] { broker_->declare_exchange(name, type); });
    }

    case FrameType::kDeclareQueue: {
      std::string name;
      bus::QueueOptions options;
      if (!parse_declare_queue(frame, &name, &options)) break;
      return reply_guarded([&] { broker_->declare_queue(name, options); });
    }

    case FrameType::kBind: {
      std::string queue, exchange, key;
      if (!parse_bind(frame, &queue, &exchange, &key)) break;
      return reply_guarded([&] { broker_->bind(queue, exchange, key); });
    }

    case FrameType::kPublish: {
      std::string exchange;
      bus::Message message;
      if (!parse_publish(frame, &exchange, &message, sconn->wire_trace())) {
        break;
      }
      try {
        broker_->publish(exchange, std::move(message));
      } catch (const std::exception& e) {
        // Fire-and-forget op: report asynchronously, keep the session.
        sconn->send(encode_error(frame.channel, e.what()));
      }
      return true;
    }

    case FrameType::kPublishBatch: {
      std::vector<WirePublish> entries;
      if (!parse_publish_batch(frame, &entries, sconn->wire_trace())) break;
      for (auto& entry : entries) {
        try {
          broker_->publish(entry.exchange, std::move(entry.message));
        } catch (const std::exception& e) {
          sconn->send(encode_error(frame.channel, e.what()));
        }
      }
      return true;
    }

    case FrameType::kConsume: {
      std::string queue;
      if (!parse_consume(frame, &queue)) break;
      if (!broker_->has_queue(queue)) {
        sconn->send(encode_error(
            frame.channel, "consume: unknown queue '" + queue + "'"));
        return true;
      }
      bool fresh = false;
      {
        const std::scoped_lock lock{sconn->outstanding_mutex};
        fresh = sconn->consuming.insert(queue).second;
      }
      if (fresh) start_consumer_pump(sconn, queue);
      sconn->send(encode_ok(frame.channel));
      return true;
    }

    case FrameType::kGet: {
      std::string queue;
      std::uint32_t timeout_ms = 0;
      if (!parse_get(frame, &queue, &timeout_ms)) break;
      handle_get(sconn, frame.channel, queue, now_ms() + timeout_ms);
      return true;
    }

    case FrameType::kAck: {
      std::string queue;
      std::uint64_t tag = 0;
      if (!parse_ack(frame, &queue, &tag)) break;
      {
        const std::scoped_lock lock{sconn->outstanding_mutex};
        sconn->outstanding.erase({queue, tag});
      }
      broker_->ack(queue, tag);
      return true;
    }

    case FrameType::kAckBatch: {
      std::vector<WireAck> acks;
      if (!parse_ack_batch(frame, &acks)) break;
      {
        const std::scoped_lock lock{sconn->outstanding_mutex};
        for (const auto& ack : acks) {
          sconn->outstanding.erase({ack.queue, ack.delivery_tag});
        }
      }
      for (const auto& ack : acks) broker_->ack(ack.queue, ack.delivery_tag);
      return true;
    }

    case FrameType::kNack: {
      std::string queue;
      std::uint64_t tag = 0;
      bool requeue = false;
      if (!parse_nack(frame, &queue, &tag, &requeue)) break;
      {
        const std::scoped_lock lock{sconn->outstanding_mutex};
        sconn->outstanding.erase({queue, tag});
      }
      broker_->nack(queue, tag, requeue);
      return true;
    }

    case FrameType::kQueueStats: {
      std::string queue;
      if (!parse_queue_stats(frame, &queue)) break;
      try {
        sconn->send(
            encode_queue_stats_ok(frame.channel, broker_->queue_stats(queue)));
      } catch (const std::exception& e) {
        sconn->send(encode_error(frame.channel, e.what()));
      }
      return true;
    }

    default:
      break;  // Server-to-client-only or malformed frame.
  }
  tele.protocol_errors.inc();
  sconn->send(encode_error(
      frame.channel, "malformed " + std::string{frame_type_name(frame.type)} +
                         " frame"));
  return false;
}

void BusServer::handle_get(const std::shared_ptr<ServerConn>& sconn,
                           std::uint32_t channel, const std::string& queue,
                           std::int64_t deadline_ms) {
  // Worker thread. Try immediately; an empty queue with time left parks
  // a retry timer instead of blocking the loop. All outcomes are
  // sequenced with do_close on the worker, so a delivery registered
  // here is always visible to the reaper's nack sweep.
  if (sconn->conn->closed()) return;
  auto delivery = broker_->basic_get(queue, sconn->tag, 0);
  if (delivery) {
    {
      const std::scoped_lock lock{sconn->outstanding_mutex};
      sconn->outstanding.emplace(queue, delivery->delivery_tag);
    }
    sconn->send(
        encode_deliver(channel, queue, *delivery, sconn->wire_trace()));
    return;
  }
  const std::int64_t remaining = deadline_ms - now_ms();
  if (remaining <= 0) {
    sconn->send(encode_empty(channel));
    return;
  }
  sconn->loop->schedule(
      std::chrono::milliseconds(std::min<std::int64_t>(remaining,
                                                       kGetSliceMs)),
      [this, sconn, channel, queue, deadline_ms] {
        handle_get(sconn, channel, queue, deadline_ms);
      });
}

void BusServer::start_consumer_pump(const std::shared_ptr<ServerConn>& sconn,
                                    const std::string& queue) {
  sconn->pumps.emplace_back([this, sconn, queue](std::stop_token pstop) {
    const bool batching = sconn->has_feature(kFeatureBatch);
    const bool trace = sconn->wire_trace();
    while (!pstop.stop_requested()) {
      auto first = broker_->basic_get(queue, sconn->tag, 50);
      if (!first) continue;
      // Greedy drain: whatever the broker has ready (bounded) travels
      // in one send — one batch frame when negotiated, concatenated
      // singular frames otherwise; either way one TCP segment's worth.
      std::vector<bus::Delivery> batch;
      batch.push_back(std::move(*first));
      while (batch.size() < options_.deliver_batch_max) {
        auto more = broker_->basic_get(queue, sconn->tag, 0);
        if (!more) break;
        batch.push_back(std::move(*more));
      }
      {
        const std::scoped_lock lock{sconn->outstanding_mutex};
        for (const auto& delivery : batch) {
          sconn->outstanding.emplace(queue, delivery.delivery_tag);
        }
      }
      std::string bytes;
      if (batching && batch.size() > 1) {
        bytes = encode_deliver_batch(0, queue, batch, trace);
      } else {
        for (const auto& delivery : batch) {
          bytes += encode_deliver(0, queue, delivery, trace);
        }
      }
      // Blocking send: a slow client stalls this pump at the outbound
      // byte cap (bounded memory); returns false only when the
      // connection is unwinding, in which case the reaper nacks the
      // deliveries we just registered.
      if (!sconn->send(bytes)) break;
    }
  });
}

void BusServer::sweep_worker(EventLoop& loop) {
  const int horizon =
      options_.idle_timeout_ms > 0
          ? std::min(options_.heartbeat_interval_ms, options_.idle_timeout_ms)
          : options_.heartbeat_interval_ms;
  const auto period = std::chrono::milliseconds(
      std::max(10, horizon / 4));
  loop.schedule_every(period, [this, &loop] {
    auto& tele = server_telemetry();
    std::vector<std::shared_ptr<ServerConn>> mine;
    {
      const std::scoped_lock lock{conns_mutex_};
      for (const auto& [_, sconn] : conns_) {
        if (sconn->loop == &loop) mine.push_back(sconn);
      }
    }
    const std::int64_t now = now_ms();
    for (const auto& sconn : mine) {
      if (sconn->conn->closed()) continue;
      if (options_.idle_timeout_ms > 0 &&
          now - sconn->last_inbound_ms.load(std::memory_order_relaxed) >
              options_.idle_timeout_ms) {
        tele.idle_drops.inc();
        sconn->conn->close();
        continue;
      }
      if (now - sconn->last_outbound_ms.load(std::memory_order_relaxed) >=
          options_.heartbeat_interval_ms) {
        tele.heartbeats.inc();
        sconn->send(encode_heartbeat());
      }
    }
  });
}

void BusServer::reap(const std::shared_ptr<ServerConn>& sconn) {
  // The connection is closed: pumps parked in send() have already been
  // released with false; pumps parked in basic_get wake within a slice.
  for (auto& pump : sconn->pumps) pump.request_stop();
  for (auto& pump : sconn->pumps) {
    if (pump.joinable()) pump.join();
  }
  sconn->pumps.clear();
  // Everything delivered to this client and never resolved goes back to
  // the broker as a failed delivery — redelivery counting and the
  // dead-letter policy apply exactly as for an in-process consumer.
  std::set<std::pair<std::string, std::uint64_t>> outstanding;
  {
    const std::scoped_lock lock{sconn->outstanding_mutex};
    outstanding.swap(sconn->outstanding);
  }
  for (const auto& [queue, tag] : outstanding) {
    broker_->nack(queue, tag, /*requeue=*/true);
    server_telemetry().disconnect_nacked.inc();
  }
}

}  // namespace stampede::net
