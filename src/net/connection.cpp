#include "net/connection.hpp"

#include <algorithm>
#include <utility>

#include "net/event_loop.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::net {

namespace {

struct ConnTelemetry {
  telemetry::Counter& coalesced =
      telemetry::registry().counter("stampede_net_coalesced_writes_total");
  telemetry::Counter& backpressure_stalls = telemetry::registry().counter(
      "stampede_net_backpressure_stalls_total");
};

ConnTelemetry& conn_telemetry() {
  static ConnTelemetry instance;
  return instance;
}

}  // namespace

Connection::Connection(EventLoop& loop, common::SocketFd fd, Options options)
    : loop_(loop), fd_(std::move(fd)), options_(options) {}

Connection::~Connection() = default;

void Connection::start(DataHandler on_data, CloseHandler on_close,
                       std::string received) {
  on_data_ = std::move(on_data);
  on_close_ = std::move(on_close);
  (void)common::set_nonblocking(fd_.get());
  auto self = shared_from_this();
  if (!loop_.watch(fd_.get(), EventLoop::kReadable,
                   [self](std::uint32_t mask) { self->handle_events(mask); })) {
    // epoll registration failed (fd-limit pressure): no events will ever
    // arrive, so tear down — deferred so the caller finishes wiring its
    // connection bookkeeping before on_close fires.
    loop_.defer([self] { self->do_close(); });
    return;
  }
  inbuf_ = std::move(received);
  deliver();
}

void Connection::handle_events(std::uint32_t mask) {
  // The shared_from_this copy in the watch closure keeps *this alive
  // even if a handler closes the connection mid-event.
  const auto self = shared_from_this();
  if (closed_loop_) return;
  if ((mask & EventLoop::kReadable) != 0) handle_readable();
  if (closed_loop_) return;
  if ((mask & EventLoop::kWritable) != 0) flush_on_loop();
}

void Connection::handle_readable() {
  bool peer_gone = false;
  // recv() lands in a scratch buffer shared by every connection on this
  // loop thread: it stays hot in cache across thousands of connections,
  // and inbuf_ only ever holds bytes that actually arrived (resizing
  // inbuf_ by read_chunk per event would zero-fill 64 KiB each time and
  // pin that much memory per idle connection).
  static thread_local std::string scratch;
  if (scratch.size() < options_.read_chunk) scratch.resize(options_.read_chunk);
  // Bounded drain: a firehose peer yields back to the loop after a few
  // chunks so its neighbours stay serviced (epoll is level-triggered;
  // leftovers re-fire immediately).
  for (int round = 0; round < 8; ++round) {
    std::size_t got = 0;
    const auto status = common::recv_nonblocking(
        fd_.get(), scratch.data(), options_.read_chunk, &got);
    if (status == common::RecvStatus::kData) {
      inbuf_.append(scratch.data(), got);
      if (options_.bytes_in != nullptr) options_.bytes_in->inc(got);
      if (got < options_.read_chunk) break;  // Socket drained.
      continue;
    }
    if (status == common::RecvStatus::kTimeout) break;  // Would block.
    peer_gone = true;  // kClosed or kError.
    break;
  }

  deliver();
  if (peer_gone) do_close();
}

void Connection::deliver() {
  if (inbuf_.size() <= in_off_ || !on_data_) return;
  const std::string_view unconsumed = std::string_view(inbuf_).substr(in_off_);
  const std::size_t consumed = on_data_(unconsumed);
  if (closed_loop_) return;  // Handler closed us.
  in_off_ += std::min(consumed, unconsumed.size());
  // Compact once the dead prefix dominates; keeps torn frames cheap
  // without shifting bytes on every event.
  if (in_off_ == inbuf_.size()) {
    inbuf_.clear();
    in_off_ = 0;
  } else if (in_off_ > 4096 && in_off_ >= inbuf_.size() / 2) {
    inbuf_.erase(0, in_off_);
    in_off_ = 0;
  }
}

bool Connection::send(std::string_view bytes) {
  bool schedule = false;
  {
    std::unique_lock lock{out_mutex_};
    if (!loop_.in_loop_thread() &&
        pending_.size() >= options_.outbound_capacity && !closed_) {
      // Backpressure: park the producer until the loop drains pending_
      // (or the connection dies). The loop thread must never wait here —
      // it is the drain.
      conn_telemetry().backpressure_stalls.inc();
      out_cv_.wait(lock, [&] {
        return closed_ || pending_.size() < options_.outbound_capacity;
      });
    }
    if (closed_) return false;
    pending_.append(bytes);
    ++pending_chunks_;
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    if (loop_.in_loop_thread()) {
      flush_on_loop();
    } else {
      // One post serves every append that lands before it runs — this is
      // where cross-thread writes coalesce into single syscalls.
      loop_.defer([self = shared_from_this()] { self->flush_on_loop(); });
    }
  }
  return true;
}

void Connection::flush_on_loop() {
  if (closed_loop_) return;
  for (;;) {
    if (front_off_ == front_.size()) {
      front_.clear();
      front_off_ = 0;
      std::size_t chunks = 0;
      {
        std::unique_lock lock{out_mutex_};
        if (pending_.empty()) {
          flush_scheduled_ = false;
          if (writable_armed_) {
            writable_armed_ = false;
            loop_.rearm(fd_.get(), EventLoop::kReadable);
          }
          if (close_after_flush_) {
            lock.unlock();
            do_close();
          }
          return;
        }
        front_.swap(pending_);
        chunks = std::exchange(pending_chunks_, 0);
      }
      out_cv_.notify_all();
      if (chunks > 1) conn_telemetry().coalesced.inc();
    }
    const auto sent = common::send_some(
        fd_.get(), front_.data() + front_off_, front_.size() - front_off_);
    if (sent < 0) {
      do_close();
      return;
    }
    if (sent > 0 && options_.bytes_out != nullptr) {
      options_.bytes_out->inc(static_cast<std::uint64_t>(sent));
    }
    front_off_ += static_cast<std::size_t>(sent);
    if (front_off_ < front_.size()) {
      // Kernel buffer full: resume on writability. If the interest
      // change is rejected the writable event will never come and the
      // remaining bytes can never drain — close instead of hanging.
      if (!writable_armed_) {
        writable_armed_ = true;
        if (!loop_.rearm(fd_.get(),
                         EventLoop::kReadable | EventLoop::kWritable)) {
          do_close();
          return;
        }
      }
      return;
    }
  }
}

void Connection::close() {
  if (loop_.in_loop_thread()) {
    do_close();
    return;
  }
  loop_.defer([self = shared_from_this()] { self->do_close(); });
}

void Connection::close_after_flush() {
  if (!loop_.in_loop_thread()) {
    // close_after_flush_ and front_ are loop-thread state; hop over.
    loop_.defer([self = shared_from_this()] { self->close_after_flush(); });
    return;
  }
  if (closed_loop_) return;
  close_after_flush_ = true;
  bool drained = false;
  {
    const std::scoped_lock lock{out_mutex_};
    drained = pending_.empty() && front_off_ == front_.size();
  }
  if (drained) do_close();
}

void Connection::do_close() {
  if (closed_loop_) return;
  closed_loop_ = true;
  {
    const std::scoped_lock lock{out_mutex_};
    closed_ = true;
  }
  out_cv_.notify_all();
  loop_.unwatch(fd_.get());
  fd_.reset();
  if (on_data_) {
    // do_close legitimately runs from INSIDE on_data_ (handlers close on
    // protocol errors), so the closure's operator() may be on the stack
    // right now — destroying or moving it here is UB. Defer the release:
    // run_tasks() executes only after the dispatch stack unwinds, and
    // closed_loop_ guarantees no further invocations meanwhile.
    loop_.defer([self = shared_from_this()] { self->on_data_ = nullptr; });
  }
  if (on_close_) {
    // Move-out first: the callback may drop the last external reference.
    const CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler();
  }
}

}  // namespace stampede::net
