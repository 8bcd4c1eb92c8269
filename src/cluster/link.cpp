#include "cluster/link.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "net/connection.hpp"
#include "net/dial.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::cluster {
namespace {

telemetry::Counter& connect_retries_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_cluster_connect_retries_total");
  return counter;
}

}  // namespace

struct Link::State {
  FrameHandler on_unsolicited;
  DownHandler on_down;
  std::atomic<bool> down{false};

  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::uint32_t next_channel = 1;
  /// In-flight request() calls by channel; filled when the reply lands.
  std::map<std::uint32_t, std::optional<net::Frame>> pending;

  /// Loop thread: dispatches every complete frame; returns bytes eaten.
  std::size_t on_data(net::Connection& conn, std::string_view data) {
    std::size_t eaten = 0;
    for (;;) {
      std::size_t consumed = 0;
      net::Frame frame;
      const auto status =
          net::decode_frame(data.substr(eaten), consumed, frame);
      if (status == net::DecodeStatus::kNeedMore) return eaten;
      if (status == net::DecodeStatus::kError) {
        conn.close();  // on_close marks the link down.
        return data.size();
      }
      eaten += consumed;
      if (frame.channel != 0) {
        const std::scoped_lock lock{pending_mutex};
        const auto it = pending.find(frame.channel);
        if (it != pending.end()) {
          it->second = std::move(frame);
          pending_cv.notify_all();
        }
      } else if (frame.type != net::FrameType::kHeartbeat && on_unsolicited) {
        on_unsolicited(frame);
      }
    }
  }

  /// Under the pending lock, so no request() sleeps through the wakeup.
  void set_down() {
    {
      const std::scoped_lock lock{pending_mutex};
      down.store(true);
    }
    pending_cv.notify_all();
  }
};

Link::Link(net::EventLoop& loop, HostAddr addr, Options options)
    : loop_(loop),
      addr_(std::move(addr)),
      options_(options),
      state_(std::make_shared<State>()) {
  common::Rng jitter{options_.jitter_seed != 0 ? options_.jitter_seed
                                               : std::random_device{}()};
  int backoff_ms = options_.backoff_ms;
  common::SocketFd fd;
  for (int attempt = 1;; ++attempt) {
    fd = common::connect_tcp(addr_.host, addr_.port);
    if (fd.valid()) break;
    if (attempt >= options_.connect_attempts) {
      throw ClusterError{"cluster: cannot reach " + addr_.to_string() +
                         " after " + std::to_string(attempt) + " attempts"};
    }
    connect_retries_counter().inc();
    std::this_thread::sleep_for(
        net::next_backoff(backoff_ms, options_.max_backoff_ms, jitter));
  }

  // Cluster frames only exist where both sides advertised
  // kFeatureCluster. Bytes past HELLO_OK stay in carry_ for the loop.
  net::Frame reply;
  if (!net::exchange_hello(fd.get(), 1, net::kSupportedFeatures,
                           options_.request_timeout_ms, carry_, &reply)) {
    throw ClusterError{"cluster: no handshake reply from " +
                       addr_.to_string()};
  }
  std::uint16_t version = 0;
  std::uint32_t features = 0;
  if (reply.type != net::FrameType::kHelloOk ||
      !net::parse_hello_ok(reply, &version, &features) ||
      (features & net::kFeatureCluster) == 0) {
    throw ClusterError{"cluster: peer " + addr_.to_string() +
                       " does not speak the cluster protocol"};
  }
  conn_ = std::make_shared<net::Connection>(loop_, std::move(fd),
                                            net::Connection::Options{});
}

Link::~Link() { close(); }

void Link::start(FrameHandler on_unsolicited, DownHandler on_down) {
  state_->on_unsolicited = std::move(on_unsolicited);
  state_->on_down = std::move(on_down);
  loop_.post([conn = conn_, state = state_,
              carry = std::move(carry_)]() mutable {
    net::Connection* raw = conn.get();
    conn->start(
        [state, raw](std::string_view data) {
          return state->on_data(*raw, data);
        },
        [state] {  // Runs exactly once: on_down fires once.
          state->set_down();
          if (state->on_down) state->on_down();
        },
        std::move(carry));
  });
}

bool Link::send(std::string_view bytes) {
  if (state_->down.load()) return false;
  if (!conn_->send(bytes)) {
    state_->set_down();
    return false;
  }
  return true;
}

std::uint32_t Link::next_channel() {
  const std::scoped_lock lock{state_->pending_mutex};
  // Channel 0 is reserved for unsolicited frames; skip it on wrap.
  if (++state_->next_channel == 0) ++state_->next_channel;
  return state_->next_channel;
}

net::Frame Link::request(std::uint32_t channel, std::string_view bytes) {
  State& s = *state_;
  {
    const std::scoped_lock lock{s.pending_mutex};
    s.pending.emplace(channel, std::nullopt);
  }
  if (!send(bytes)) {
    const std::scoped_lock lock{s.pending_mutex};
    s.pending.erase(channel);
    throw ClusterError{"cluster: " + addr_.to_string() + " is down"};
  }
  std::unique_lock lock{s.pending_mutex};
  (void)s.pending_cv.wait_for(
      lock, std::chrono::milliseconds(options_.request_timeout_ms),
      [&] { return s.pending[channel].has_value() || s.down.load(); });
  std::optional<net::Frame> reply = std::move(s.pending[channel]);
  s.pending.erase(channel);
  lock.unlock();
  if (!reply) {
    throw ClusterError{"cluster: request to " + addr_.to_string() +
                       (s.down.load() ? " failed (link down)" : " timed out")};
  }
  if (reply->type == net::FrameType::kError) {
    net::PayloadReader reader{reply->payload};
    throw ClusterError{"cluster: " + addr_.to_string() +
                       " rejected request: " + reader.str()};
  }
  return std::move(*reply);
}

bool Link::alive() const noexcept { return !state_->down.load(); }

void Link::close() {
  state_->set_down();
  conn_->close();
}

}  // namespace stampede::cluster
