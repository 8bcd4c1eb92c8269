#include "net/bus_client.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <utility>

#include "common/errors.hpp"
#include "net/dial.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::net {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct ClientTelemetry {
  telemetry::Counter& connects =
      telemetry::registry().counter("stampede_net_client_connects_total");
  telemetry::Counter& reconnect_attempts = telemetry::registry().counter(
      "stampede_net_client_reconnect_attempts_total");
  telemetry::Counter& stale_acks =
      telemetry::registry().counter("stampede_net_stale_acks_total");
  telemetry::Counter& async_errors = telemetry::registry().counter(
      "stampede_net_client_async_errors_total");
  telemetry::Counter& publish_batches = telemetry::registry().counter(
      "stampede_net_client_publish_batches_total");
  telemetry::Counter& ack_batches = telemetry::registry().counter(
      "stampede_net_client_ack_batches_total");
  telemetry::Histogram& request_rtt = telemetry::registry().histogram(
      "stampede_net_request_rtt_seconds",
      telemetry::HistogramOptions{1e-6, 4.0, 16});
};

ClientTelemetry& client_telemetry() {
  static ClientTelemetry instance;
  return instance;
}

/// Wire delivery tags fit 48 bits; the top 16 carry the connection
/// epoch so acks can be matched to the connection they came in on.
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << 48) - 1;
constexpr int kEpochShift = 48;

}  // namespace

BusClient::BusClient(BusClientOptions options) : options_(std::move(options)) {
  io_ = std::jthread([this](std::stop_token stop) { io_loop(stop); });
}

BusClient::~BusClient() { close(); }

bool BusClient::wait_connected(int timeout_ms) {
  std::unique_lock lock{state_mutex_};
  state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] {
    return connected_.load(std::memory_order_acquire) ||
           closed_.load(std::memory_order_acquire);
  });
  return connected_.load(std::memory_order_acquire);
}

void BusClient::close() {
  if (closed_.load(std::memory_order_acquire)) return;
  flush_acks();  // Best effort; unflushed acks just redeliver.
  if (closed_.exchange(true)) return;
  io_.request_stop();
  {
    const std::scoped_lock lock{write_mutex_};
    if (write_fd_ >= 0) ::shutdown(write_fd_, SHUT_RDWR);
  }
  {
    const std::scoped_lock lock{state_mutex_};
    for (auto& [queue, buffer] : buffers_) buffer->close();
  }
  state_cv_.notify_all();
  publish_cv_.notify_all();  // Batched publishers check closed_ and bail.
  if (io_.joinable()) io_.join();
}

// -- IO thread --------------------------------------------------------------

void BusClient::io_loop(const std::stop_token& stop) {
  // Seeded per client from the OS so processes do not share a sequence.
  common::Rng jitter{std::random_device{}()};
  int backoff_ms = options_.reconnect_initial_ms;
  while (!stop.stop_requested()) {
    std::string carry;
    auto fd = establish(stop, carry);
    if (!fd.valid()) {
      client_telemetry().reconnect_attempts.inc();
      // Sliced sleep so stop() does not wait out the whole backoff.
      const auto deadline =
          Clock::now() +
          next_backoff(backoff_ms, options_.reconnect_max_ms, jitter);
      while (Clock::now() < deadline && !stop.stop_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    backoff_ms = options_.reconnect_initial_ms;
    read_stream(fd, carry, stop);
    mark_disconnected();
  }
  mark_disconnected();
}

common::SocketFd BusClient::establish(const std::stop_token& stop,
                                      std::string& carry) {
  auto fd = common::connect_tcp(options_.host, options_.port);
  if (!fd.valid()) return {};

  const std::uint32_t wanted =
      (options_.enable_trace ? kFeatureTrace : 0u) |
      (options_.enable_batch ? kFeatureBatch : 0u);
  const bool want_features =
      wanted != 0 && !hello_legacy_.load(std::memory_order_relaxed);
  Frame frame;
  if (!exchange_hello(fd.get(), next_channel(), want_features ? wanted : 0u,
                      options_.request_timeout_ms, carry, &frame, stop)) {
    return {};
  }
  if (frame.type != FrameType::kHelloOk) {
    // A v1 server refuses the feature-extended HELLO with kError before
    // ever reaching version negotiation. Fall back to the plain
    // handshake (no optional features) from the next attempt on.
    if (frame.type == FrameType::kError && want_features) {
      hello_legacy_.store(true, std::memory_order_relaxed);
    }
    return {};
  }
  std::uint16_t version = 0;
  std::uint32_t granted = 0;
  if (!parse_hello_ok(frame, &version, &granted)) return {};
  if (!want_features) granted = 0;
  wire_trace_.store(options_.enable_trace && (granted & kFeatureTrace) != 0,
                    std::memory_order_relaxed);
  wire_batch_.store(options_.enable_batch && (granted & kFeatureBatch) != 0,
                    std::memory_order_relaxed);

  epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    const std::scoped_lock lock{write_mutex_};
    write_fd_ = fd.get();
  }

  // Replay topology + consumes fire-and-forget: each op already
  // succeeded on a previous connection (or is about to get a reply via
  // the normal dispatch path); redeclares are idempotent broker-side.
  {
    const std::scoped_lock lock{topology_mutex_};
    bool sent_ok = true;
    for (const auto& op : topology_) {
      std::string bytes;
      switch (op.kind) {
        case TopologyOp::Kind::kExchange:
          bytes = encode_declare_exchange(next_channel(), op.a,
                                          op.exchange_type);
          break;
        case TopologyOp::Kind::kQueue:
          bytes = encode_declare_queue(next_channel(), op.a, op.queue_options);
          break;
        case TopologyOp::Kind::kBind:
          bytes = encode_bind(next_channel(), op.a, op.b, op.c);
          break;
      }
      if (!common::send_all(fd.get(), bytes.data(), bytes.size())) {
        sent_ok = false;
        break;
      }
    }
    for (const auto& queue : consumed_) {
      if (!sent_ok) break;
      const auto bytes = encode_consume(next_channel(), queue);
      if (!common::send_all(fd.get(), bytes.data(), bytes.size())) {
        sent_ok = false;
      }
    }
    if (!sent_ok) {
      const std::scoped_lock wlock{write_mutex_};
      write_fd_ = -1;
      return {};
    }
  }

  client_telemetry().connects.inc();
  connected_.store(true, std::memory_order_release);
  state_cv_.notify_all();
  return fd;
}

void BusClient::read_stream(common::SocketFd& fd, std::string& carry,
                            const std::stop_token& stop) {
  std::int64_t last_heartbeat = now_ms();
  char chunk[16 * 1024];
  while (!stop.stop_requested()) {
    // Drain any frames already buffered (handshake leftovers included).
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      const auto status = decode_frame(carry, consumed, frame);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError) return;
      carry.erase(0, consumed);
      dispatch(frame);
    }
    std::size_t received = 0;
    const auto status =
        common::recv_some(fd.get(), chunk, sizeof(chunk), 100, &received);
    if (status == common::RecvStatus::kClosed ||
        status == common::RecvStatus::kError) {
      return;
    }
    if (status == common::RecvStatus::kData) {
      carry.append(chunk, received);
    }
    // Acks accumulated since the last pass ride out now, so coalescing
    // adds at most one read-timeout slice of latency.
    flush_acks();
    const auto now = now_ms();
    if (now - last_heartbeat >= options_.heartbeat_interval_ms) {
      last_heartbeat = now;
      (void)send_now(encode_heartbeat());
    }
  }
}

void BusClient::dispatch(const Frame& frame) {
  if (frame.type == FrameType::kHeartbeat) return;

  if (frame.channel != 0) {
    std::shared_ptr<PendingReply> slot;
    {
      const std::scoped_lock lock{state_mutex_};
      auto it = pending_.find(frame.channel);
      if (it != pending_.end()) {
        slot = it->second;
        pending_.erase(it);
      }
    }
    if (slot) {
      const std::scoped_lock lock{slot->mutex};
      slot->reply = frame;
      slot->cv.notify_all();
    }
    // No waiter: a reply to a fire-and-forget replay op; drop it.
    return;
  }

  if (frame.type == FrameType::kError) {
    client_telemetry().async_errors.inc();
    return;
  }

  if (frame.type == FrameType::kDeliverBatch) {
    std::vector<WireDelivery> batch;
    if (!parse_deliver_batch(frame, &batch,
                             wire_trace_.load(std::memory_order_relaxed))) {
      return;
    }
    for (auto& delivery : batch) enqueue_delivery(std::move(delivery));
    return;
  }
  if (frame.type != FrameType::kDeliver) return;

  WireDelivery delivery;
  if (!parse_deliver(frame, &delivery,
                     wire_trace_.load(std::memory_order_relaxed))) {
    return;
  }
  enqueue_delivery(std::move(delivery));
}

void BusClient::enqueue_delivery(WireDelivery delivery) {
  // Stamp the tag with the connection it arrived on (see class doc).
  delivery.delivery_tag =
      (epoch_.load(std::memory_order_acquire) << kEpochShift) |
      (delivery.delivery_tag & kTagMask);
  auto buffer = buffer_for(delivery.queue);
  // Blocking push: a full prefetch buffer parks the IO thread, which is
  // exactly the client half of the backpressure chain.
  (void)buffer->push(std::move(delivery));
}

void BusClient::mark_disconnected() {
  {
    const std::scoped_lock lock{write_mutex_};
    write_fd_ = -1;
  }
  connected_.store(false, std::memory_order_release);
  fail_pending();
  state_cv_.notify_all();
}

void BusClient::fail_pending() {
  std::map<std::uint32_t, std::shared_ptr<PendingReply>> orphans;
  {
    const std::scoped_lock lock{state_mutex_};
    orphans.swap(pending_);
  }
  for (auto& [channel, slot] : orphans) {
    const std::scoped_lock lock{slot->mutex};
    slot->failed = true;
    slot->cv.notify_all();
  }
}

// -- send paths -------------------------------------------------------------

bool BusClient::send_now(const std::string& bytes) {
  const std::scoped_lock lock{write_mutex_};
  if (write_fd_ < 0) return false;
  if (!common::send_all(write_fd_, bytes.data(), bytes.size())) {
    // Wake the IO thread's read so the reconnect loop takes over.
    ::shutdown(write_fd_, SHUT_RDWR);
    write_fd_ = -1;
    return false;
  }
  return true;
}

void BusClient::send_blocking(const std::string& bytes) {
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) {
      throw common::BusError("BusClient closed");
    }
    if (connected_.load(std::memory_order_acquire) && send_now(bytes)) return;
    std::unique_lock lock{state_mutex_};
    state_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
      return connected_.load(std::memory_order_acquire) ||
             closed_.load(std::memory_order_acquire);
    });
  }
}

Frame BusClient::request(std::uint32_t channel, const std::string& bytes) {
  auto& tele = client_telemetry();
  // Buffered acks go first on the same stream, so a queue_stats reply
  // always reflects every ack issued before the call (callers poll
  // stats exactly this way).
  flush_acks();
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) {
      throw common::BusError("BusClient closed");
    }
    auto slot = std::make_shared<PendingReply>();
    {
      const std::scoped_lock lock{state_mutex_};
      pending_[channel] = slot;
    }
    const auto started = Clock::now();
    if (!connected_.load(std::memory_order_acquire) || !send_now(bytes)) {
      {
        const std::scoped_lock lock{state_mutex_};
        pending_.erase(channel);
      }
      std::unique_lock lock{state_mutex_};
      state_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
        return connected_.load(std::memory_order_acquire) ||
               closed_.load(std::memory_order_acquire);
      });
      continue;
    }
    std::unique_lock lock{slot->mutex};
    const bool got = slot->cv.wait_for(
        lock, std::chrono::milliseconds(options_.request_timeout_ms),
        [&] { return slot->reply.has_value() || slot->failed; });
    if (!got || slot->failed) {
      // Timeout or connection loss mid-exchange: unregister and retry
      // on the next connection (ops are idempotent broker-side).
      const std::scoped_lock slock{state_mutex_};
      pending_.erase(channel);
      continue;
    }
    tele.request_rtt.observe(
        std::chrono::duration<double>(Clock::now() - started).count());
    Frame reply = std::move(*slot->reply);
    if (reply.type == FrameType::kError) {
      PayloadReader reader{reply.payload};
      auto reason = reader.str();
      throw common::BusError(reader.ok() ? reason : "bus error");
    }
    return reply;
  }
}

// -- bus::IBus --------------------------------------------------------------

void BusClient::declare_exchange(const std::string& name,
                                 bus::ExchangeType type) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kExchange;
    op.a = name;
    op.exchange_type = type;
    topology_.push_back(std::move(op));
  }
  const auto channel = next_channel();
  (void)request(channel, encode_declare_exchange(channel, name, type));
}

void BusClient::declare_queue(const std::string& name,
                              bus::QueueOptions options) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kQueue;
    op.a = name;
    op.queue_options = options;
    topology_.push_back(std::move(op));
  }
  const auto channel = next_channel();
  (void)request(channel, encode_declare_queue(channel, name, options));
}

void BusClient::bind(const std::string& queue, const std::string& exchange,
                     const std::string& binding_key) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kBind;
    op.a = queue;
    op.b = exchange;
    op.c = binding_key;
    topology_.push_back(std::move(op));
  }
  const auto channel = next_channel();
  (void)request(channel, encode_bind(channel, queue, exchange, binding_key));
}

std::size_t BusClient::publish(const std::string& exchange,
                               bus::Message message) {
  if (wire_batch_.load(std::memory_order_relaxed)) {
    publish_batched(exchange, std::move(message));
    return 1;
  }
  // Without the negotiated TRACE field the context still travels as the
  // `traceparent` header BpPublisher set (headers always cross the wire).
  send_blocking(encode_publish(0, exchange, message,
                               wire_trace_.load(std::memory_order_relaxed)));
  return 1;
}

void BusClient::publish_batched(const std::string& exchange,
                                bus::Message message) {
  std::uint64_t my_gen = 0;
  {
    std::unique_lock lock{publish_mutex_};
    publish_pending_.push_back(WirePublish{exchange, std::move(message)});
    my_gen = ++publish_append_gen_;
    if (publish_flusher_active_) {
      // A flusher is already writing; it will pick this entry up on its
      // next drain. Wait for our generation so publish() still means
      // "written to the socket" when it returns.
      publish_cv_.wait(lock, [&] {
        return publish_flushed_gen_ >= my_gen ||
               closed_.load(std::memory_order_acquire);
      });
      if (publish_flushed_gen_ < my_gen) {
        throw common::BusError("BusClient closed");
      }
      return;
    }
    publish_flusher_active_ = true;
  }
  // Appender-becomes-flusher: drain every entry that accumulates while
  // we hold the socket — a lone publisher writes singular frames with
  // zero added latency; concurrent publishers group-commit into
  // kPublishBatch (many BP events per TCP segment).
  for (;;) {
    std::vector<WirePublish> batch;
    std::uint64_t flushed_gen = 0;
    {
      const std::scoped_lock lock{publish_mutex_};
      if (publish_pending_.empty()) {
        publish_flusher_active_ = false;
        break;
      }
      batch.swap(publish_pending_);
      flushed_gen = publish_append_gen_;
    }
    const bool trace = wire_trace_.load(std::memory_order_relaxed);
    std::string bytes;
    if (batch.size() == 1) {
      bytes = encode_publish(0, batch.front().exchange, batch.front().message,
                             trace);
    } else {
      bytes = encode_publish_batch(0, batch, trace);
      client_telemetry().publish_batches.inc();
    }
    try {
      send_blocking(bytes);
    } catch (...) {
      // Closed mid-flush: release the flusher role and wake waiters
      // (they observe closed_ and throw for themselves).
      {
        const std::scoped_lock lock{publish_mutex_};
        publish_flusher_active_ = false;
      }
      publish_cv_.notify_all();
      throw;
    }
    {
      const std::scoped_lock lock{publish_mutex_};
      publish_flushed_gen_ =
          std::max(publish_flushed_gen_, flushed_gen);
    }
    publish_cv_.notify_all();
  }
}

std::optional<bus::Delivery> BusClient::basic_get(
    const std::string& queue, const std::string& /*consumer_tag*/,
    int timeout_ms) {
  bool fresh = false;
  {
    const std::scoped_lock lock{topology_mutex_};
    if (std::find(consumed_.begin(), consumed_.end(), queue) ==
        consumed_.end()) {
      consumed_.push_back(queue);
      fresh = true;
    }
  }
  auto buffer = buffer_for(queue);
  if (fresh && connected_.load(std::memory_order_acquire)) {
    // Fire-and-forget: the reply is dropped by dispatch, and every
    // reconnect re-sends the CONSUME from `consumed_` anyway.
    (void)send_now(encode_consume(next_channel(), queue));
  }
  auto wire = timeout_ms <= 0
                  ? buffer->try_pop()
                  : buffer->pop_for(std::chrono::milliseconds(timeout_ms));
  if (!wire) return std::nullopt;
  return bus::Delivery::make(wire->delivery_tag, std::move(wire->consumer_tag),
                             std::move(wire->exchange), wire->redelivered,
                             std::move(wire->message));
}

bool BusClient::ack(const std::string& queue, std::uint64_t delivery_tag) {
  if ((delivery_tag >> kEpochShift) !=
      epoch_.load(std::memory_order_acquire)) {
    // The connection this delivery arrived on is gone; the server
    // already nack-requeued it, so acking now could hit a reused tag.
    client_telemetry().stale_acks.inc();
    return false;
  }
  if (wire_batch_.load(std::memory_order_relaxed)) {
    // Coalesce: tags park (epoch-stamped) until the next flush point —
    // the IO loop's pass, a request/reply op, or the eager cap here.
    bool eager = false;
    {
      const std::scoped_lock lock{ack_mutex_};
      ack_pending_.push_back(WireAck{queue, delivery_tag});
      eager = ack_pending_.size() >= options_.ack_batch_max;
    }
    if (eager) flush_acks();
    return true;
  }
  return send_now(encode_ack(0, queue, delivery_tag & kTagMask));
}

void BusClient::flush_acks() {
  std::vector<WireAck> batch;
  {
    const std::scoped_lock lock{ack_mutex_};
    if (ack_pending_.empty()) return;
    batch.swap(ack_pending_);
  }
  // Re-check epochs at flush time: a reconnect between append and flush
  // makes a tag stale (the broker already nack-requeued its delivery).
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  std::vector<WireAck> live;
  live.reserve(batch.size());
  for (auto& ack : batch) {
    if ((ack.delivery_tag >> kEpochShift) != epoch) {
      client_telemetry().stale_acks.inc();
      continue;
    }
    ack.delivery_tag &= kTagMask;
    live.push_back(std::move(ack));
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    (void)send_now(encode_ack(0, live.front().queue,
                              live.front().delivery_tag));
    return;
  }
  client_telemetry().ack_batches.inc();
  (void)send_now(encode_ack_batch(0, live));
}

bool BusClient::nack(const std::string& queue, std::uint64_t delivery_tag,
                     bool requeue) {
  if ((delivery_tag >> kEpochShift) !=
      epoch_.load(std::memory_order_acquire)) {
    client_telemetry().stale_acks.inc();
    return false;
  }
  return send_now(encode_nack(0, queue, delivery_tag & kTagMask, requeue));
}

bus::QueueStats BusClient::queue_stats(const std::string& queue) const {
  auto* self = const_cast<BusClient*>(this);
  const auto channel = self->next_channel();
  const auto reply =
      self->request(channel, encode_queue_stats(channel, queue));
  bus::QueueStats stats;
  if (reply.type != FrameType::kQueueStatsOk ||
      !parse_queue_stats_ok(reply, &stats)) {
    throw common::BusError("queue_stats: malformed reply");
  }
  return stats;
}

std::shared_ptr<BusClient::Buffer> BusClient::buffer_for(
    const std::string& queue) {
  const std::scoped_lock lock{state_mutex_};
  auto it = buffers_.find(queue);
  if (it != buffers_.end()) return it->second;
  auto buffer = std::make_shared<Buffer>(options_.prefetch);
  buffers_.emplace(queue, buffer);
  return buffer;
}

}  // namespace stampede::net
