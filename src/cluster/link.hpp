#pragma once
// cluster::Link — one outbound cluster connection (router→shard-host,
// primary→follower), living exactly as long as the TCP connection.
//
// Connecting blocks with bounded, jittered retries (net::next_backoff,
// as BusClient reconnects) — but unlike the bus client a Link does NOT
// reconnect: cluster peers hold routed state (in-flight applies,
// replication offsets), so a dead link is surfaced via on_down and the
// owner decides (fail over, resync, or give up). Exhausting the
// attempts throws ClusterError instead of hanging.
//
// After start() the socket is a net::Connection on the owner's
// EventLoop. Nonzero channels complete pending request() calls (which
// may overlap; replies correlate by channel); channel-0 frames go to
// the owner's handler; heartbeats are swallowed. That handler and
// on_down run on the loop thread; request() blocks until the loop
// delivers the reply, so never call it on the loop thread. Owners close
// their links before stopping the loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/shard_map.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace stampede::net {
class Connection;
}

namespace stampede::cluster {

struct LinkOptions {
  int connect_attempts = 5;
  int backoff_ms = 50;        ///< First retry delay; doubles per attempt.
  int max_backoff_ms = 2000;
  int request_timeout_ms = 30000;
  std::uint64_t jitter_seed = 0;  ///< 0 = seed from std::random_device.
};

class Link {
 public:
  using Options = LinkOptions;

  /// Channel-0 frames (unsolicited pushes), on the loop thread.
  using FrameHandler = std::function<void(const net::Frame&)>;
  /// Fires exactly once, on the loop thread, when the peer goes away or
  /// the link is closed.
  using DownHandler = std::function<void()>;

  /// Connects (bounded retries) and runs the HELLO handshake requiring
  /// kFeatureCluster. Throws ClusterError on exhaustion or a peer that
  /// lacks the feature. `loop` runs the link and must outlive it.
  Link(net::EventLoop& loop, HostAddr addr, Options options = {});
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Hands the socket to the loop. Call once, before request()/send().
  void start(FrameHandler on_unsolicited, DownHandler on_down);

  /// Fire-and-forget frame (already encoded). False once the link died.
  bool send(std::string_view bytes);

  /// Allocates a fresh nonzero channel for a request frame.
  [[nodiscard]] std::uint32_t next_channel();

  /// Sends `bytes` (a frame carrying `channel`) and blocks for the
  /// reply on that channel. Throws ClusterError on timeout, link death,
  /// or a kError reply (whose reason is included).
  [[nodiscard]] net::Frame request(std::uint32_t channel,
                                   std::string_view bytes);

  [[nodiscard]] bool alive() const noexcept;
  [[nodiscard]] const HostAddr& addr() const noexcept { return addr_; }

  /// Tears the connection down (idempotent; wakes request() waiters).
  void close();

 private:
  /// What the loop-side callbacks touch, shared with them so a Link may
  /// be destroyed while its close is still queued on the loop.
  struct State;

  net::EventLoop& loop_;
  HostAddr addr_;
  Options options_;
  std::string carry_;  ///< Bytes read past HELLO_OK.
  std::shared_ptr<net::Connection> conn_;  ///< Registered by start().
  std::shared_ptr<State> state_;
};

}  // namespace stampede::cluster
