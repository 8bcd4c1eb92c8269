#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/hash.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::cluster {
namespace {

using namespace std::chrono_literals;

struct RouterTelemetry {
  telemetry::Counter& events_routed =
      telemetry::registry().counter("stampede_cluster_events_routed_total");
  telemetry::Counter& apply_batches =
      telemetry::registry().counter("stampede_cluster_apply_batches_total");
  telemetry::Counter& acks =
      telemetry::registry().counter("stampede_cluster_acks_total");
  telemetry::Counter& remote_queries =
      telemetry::registry().counter("stampede_cluster_remote_queries_total");
  telemetry::Counter& failovers =
      telemetry::registry().counter("stampede_cluster_failovers_total");
  telemetry::Gauge& inflight =
      telemetry::registry().gauge("stampede_cluster_inflight");
};

RouterTelemetry& router_telemetry() {
  static RouterTelemetry tele;
  return tele;
}

}  // namespace

Router::Router(ShardMap map, RouterOptions options)
    : map_(std::move(map)), options_(options) {
  loop_.start();
  peers_.reserve(map_.placements().size());
  try {
    for (const Placement& placement : map_.placements()) {
      auto peer = std::make_unique<Peer>();
      peer->placement = placement;
      peer->link = connect(placement.primary);
      peers_.push_back(std::move(peer));
    }
  } catch (...) {
    close_links();
    throw;
  }
}

Router::~Router() { close_links(); }

void Router::close_links() {
  for (auto& peer : peers_) {
    if (peer->link) peer->link->close();
  }
  // Stopping the loop runs the queued closes and their down handlers
  // while inflight_cv_ (destroyed before peers_) is still alive.
  loop_.stop();
}

std::unique_ptr<Link> Router::connect(const HostAddr& addr) {
  auto link = std::make_unique<Link>(loop_, addr, options_.link);
  link->start(
      [this](const net::Frame& frame) {
        if (frame.type == net::FrameType::kClusterAck) on_ack_frame(frame);
      },
      [this] {
        // Wake blocked producers/drainers; they drive the failover.
        inflight_cv_.notify_all();
      });
  return link;
}

void Router::on_ack_frame(const net::Frame& frame) {
  std::vector<std::uint64_t> tags;
  if (!parse_cluster_ack(frame, &tags)) return;
  std::vector<std::uint64_t> bus_tags;
  {
    const std::scoped_lock lock{inflight_mutex_};
    for (const std::uint64_t tag : tags) {
      const auto it = inflight_.find(tag);
      if (it == inflight_.end()) continue;  // Duplicate ack after failover.
      if (it->second.bus_tag != 0) bus_tags.push_back(it->second.bus_tag);
      inflight_.erase(it);
    }
    router_telemetry().inflight.set(
        static_cast<std::int64_t>(inflight_.size()));
  }
  router_telemetry().acks.inc(tags.size());
  inflight_cv_.notify_all();
  if (!bus_tags.empty()) {
    std::function<void(std::uint64_t)> cb;
    {
      const std::scoped_lock lock{ack_cb_mutex_};
      cb = ack_cb_;
    }
    if (cb) {
      for (const std::uint64_t bus_tag : bus_tags) cb(bus_tag);
    }
  }
}

void Router::set_ack_callback(std::function<void(std::uint64_t)> cb) {
  const std::scoped_lock lock{ack_cb_mutex_};
  ack_cb_ = std::move(cb);
}

bool Router::process(const nl::LogRecord& record,
                     const telemetry::TraceStamps* trace, bool redelivered,
                     std::uint64_t ack_tag) {
  (void)trace;  // Cross-process stage latencies are the hosts' own.
  if (finished_) return false;
  const std::size_t shard = route_map_.route(
      record, [this](std::string_view key) {
        return static_cast<std::size_t>(common::fnv1a64(key) %
                                        map_.total_shards());
      });

  // In-flight window: block while full, driving failover if a dead
  // host is what keeps the window from draining.
  for (;;) {
    {
      std::unique_lock lock{inflight_mutex_};
      if (inflight_.size() < options_.max_inflight) break;
      inflight_cv_.wait_for(lock, 200ms);
      if (inflight_.size() < options_.max_inflight) break;
    }
    for (auto& peer : peers_) ensure_alive(*peer);
  }

  std::uint64_t tag = 0;
  {
    const std::scoped_lock lock{inflight_mutex_};
    tag = next_tag_++;
    inflight_.emplace(tag, InFlight{record, redelivered, shard, ack_tag});
    router_telemetry().inflight.set(
        static_cast<std::int64_t>(inflight_.size()));
  }
  bool full = false;
  {
    const std::scoped_lock lock{batches_mutex_};
    auto& batch = batches_[shard];
    batch.push_back(ApplyItem{record, redelivered, tag});
    full = batch.size() >= options_.apply_batch_max;
  }
  router_telemetry().events_routed.inc();
  if (full) flush_shard(shard);
  return true;
}

void Router::flush_shard(std::size_t shard) {
  // Liveness check BEFORE taking the batch out: if this drives a
  // failover, do_failover replays the still-pending items from the
  // in-flight map with redelivered=true (and clears the batch), so the
  // hosts' archive probes dedup them. Swapping first would double-send
  // the batch — once via the replay, once here without the redelivered
  // mark.
  Peer& peer = *peers_[map_.placement_of(shard)];
  ensure_alive(peer);
  std::vector<ApplyItem> batch;
  {
    const std::scoped_lock lock{batches_mutex_};
    auto& pending = batches_[shard];
    if (pending.empty()) return;
    batch.swap(pending);
  }
  if (!peer.link->send(encode_cluster_apply(
          0, static_cast<std::uint32_t>(shard), batch))) {
    // Link died under us. Every item is registered in-flight, so the
    // failover replay re-sends them; nothing to salvage here.
    ensure_alive(peer);
    return;
  }
  router_telemetry().apply_batches.inc();
}

void Router::flush_hint() {
  if (finished_) return;
  for (std::size_t shard = 0; shard < map_.total_shards(); ++shard) {
    flush_shard(shard);
  }
  send_flush_hints();
}

void Router::send_flush_hints() {
  const std::vector<ApplyItem> empty;
  for (std::size_t shard = 0; shard < map_.total_shards(); ++shard) {
    Peer& peer = *peers_[map_.placement_of(shard)];
    if (peer.link) {
      (void)peer.link->send(
          encode_cluster_apply(0, static_cast<std::uint32_t>(shard), empty));
    }
  }
}

void Router::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t shard = 0; shard < map_.total_shards(); ++shard) {
    flush_shard(shard);
  }
  send_flush_hints();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  auto next_hint = std::chrono::steady_clock::now() + 500ms;
  for (;;) {
    {
      std::unique_lock lock{inflight_mutex_};
      if (inflight_.empty()) return;
      inflight_cv_.wait_for(lock, 100ms);
      if (inflight_.empty()) return;
    }
    for (auto& peer : peers_) ensure_alive(*peer);
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_hint) {
      // Re-nudge: a freshly promoted follower has its own batch state.
      send_flush_hints();
      next_hint = now + 500ms;
    }
    if (now >= deadline) {
      std::size_t left = 0;
      {
        const std::scoped_lock lock{inflight_mutex_};
        left = inflight_.size();
      }
      throw ClusterError{"cluster: drain timed out with " +
                         std::to_string(left) + " events in flight"};
    }
  }
}

void Router::ensure_alive(Peer& peer) {
  if (peer.link && peer.link->alive()) return;
  do_failover(peer);
}

void Router::do_failover(Peer& peer) {
  const std::scoped_lock lock{peer.failover_mutex};
  if (peer.link && peer.link->alive()) return;  // Raced; already recovered.
  if (peer.failed_over || !peer.placement.follower) {
    throw ClusterError{"cluster: placement " +
                       (peer.failed_over && peer.placement.follower
                            ? peer.placement.follower->to_string()
                            : peer.placement.primary.to_string()) +
                       " lost with no failover path"};
  }

  auto link = connect(*peer.placement.follower);

  // Promote: the follower recovers the replicated WALs (tolerating a
  // torn trailing record) and starts serving these shards.
  std::vector<std::uint32_t> shards;
  shards.reserve(peer.placement.shards.size());
  for (const std::size_t shard : peer.placement.shards) {
    shards.push_back(static_cast<std::uint32_t>(shard));
  }
  const std::uint32_t channel = link->next_channel();
  const net::Frame reply =
      link->request(channel, encode_cluster_promote(channel, shards));
  std::vector<PromoteResult> results;
  if (reply.type != net::FrameType::kOk ||
      !parse_cluster_promote_ok(reply, &results)) {
    throw ClusterError{"cluster: promote of " +
                       peer.placement.follower->to_string() + " failed"};
  }

  peer.link = std::move(link);
  peer.failed_over = true;
  router_telemetry().failovers.inc();

  // Replay every un-acked event for these shards in original dispatch
  // order (std::map iterates in wire-tag order) with redelivered=true;
  // the loaders' archive probe dedups anything the dead primary had
  // already committed and replicated. Unsent batch remnants are
  // dropped — their events are in the in-flight map too.
  {
    const std::scoped_lock batches_lock{batches_mutex_};
    for (const std::size_t shard : peer.placement.shards) {
      batches_[shard].clear();
    }
  }
  std::map<std::size_t, std::vector<ApplyItem>> replay;
  {
    const std::scoped_lock inflight_lock{inflight_mutex_};
    for (auto& [tag, entry] : inflight_) {
      if (map_.placement_of(entry.shard) != map_.placement_of(
              peer.placement.shards.front())) {
        continue;
      }
      entry.redelivered = true;
      replay[entry.shard].push_back(ApplyItem{entry.record, true, tag});
    }
  }
  for (auto& [shard, items] : replay) {
    for (std::size_t start = 0; start < items.size();
         start += options_.apply_batch_max) {
      const std::size_t count =
          std::min(options_.apply_batch_max, items.size() - start);
      const std::vector<ApplyItem> chunk{
          items.begin() + static_cast<std::ptrdiff_t>(start),
          items.begin() + static_cast<std::ptrdiff_t>(start + count)};
      if (!peer.link->send(encode_cluster_apply(
              0, static_cast<std::uint32_t>(shard), chunk))) {
        throw ClusterError{"cluster: replay to promoted follower " +
                           peer.placement.follower->to_string() + " failed"};
      }
      router_telemetry().apply_batches.inc();
    }
  }
  (void)peer.link->send(encode_cluster_apply(
      0, static_cast<std::uint32_t>(peer.placement.shards.front()),
      std::vector<ApplyItem>{}));
}

net::Frame Router::request_on(
    std::size_t shard,
    const std::function<std::string(std::uint32_t channel)>& build) {
  Peer& peer = *peers_[map_.placement_of(shard)];
  for (int attempt = 0;; ++attempt) {
    ensure_alive(peer);
    const std::uint32_t channel = peer.link->next_channel();
    try {
      return peer.link->request(channel, build(channel));
    } catch (const ClusterError&) {
      // Retry exactly once, and only when the link itself died (the
      // failover path); a live link rejecting the request is final.
      if (attempt > 0 || peer.link->alive()) throw;
    }
  }
}

std::size_t Router::RemoteBackend::shard_count() const {
  return router_->map_.total_shards();
}

db::ResultSet Router::RemoteBackend::execute_on(
    std::size_t shard, const db::Select& select) const {
  router_telemetry().remote_queries.inc();
  const net::Frame reply = router_->request_on(shard, [&](std::uint32_t ch) {
    return encode_cluster_query(ch, static_cast<std::uint32_t>(shard), select);
  });
  db::ResultSet rs;
  if (reply.type != net::FrameType::kClusterResult ||
      !parse_cluster_result(reply, &rs)) {
    throw ClusterError{"cluster: malformed query result for shard " +
                       std::to_string(shard)};
  }
  return rs;
}

std::vector<std::uint64_t> Router::RemoteBackend::table_versions(
    const std::vector<std::string>& names) const {
  std::vector<std::uint64_t> all;
  all.reserve(names.size() * router_->map_.total_shards());
  for (std::size_t shard = 0; shard < router_->map_.total_shards(); ++shard) {
    const net::Frame reply =
        router_->request_on(shard, [&](std::uint32_t ch) {
          return encode_cluster_versions(
              ch, static_cast<std::uint32_t>(shard), names);
        });
    std::vector<std::uint64_t> versions;
    if (reply.type != net::FrameType::kClusterVersionsOk ||
        !parse_cluster_versions_ok(reply, &versions)) {
      throw ClusterError{"cluster: malformed version stamp for shard " +
                         std::to_string(shard)};
    }
    all.insert(all.end(), versions.begin(), versions.end());
  }
  return all;
}

HostShardStats Router::remote_stats(std::size_t shard) {
  const net::Frame reply = request_on(shard, [&](std::uint32_t ch) {
    return encode_cluster_stats(ch, static_cast<std::uint32_t>(shard));
  });
  HostShardStats stats;
  if (reply.type != net::FrameType::kClusterStatsOk ||
      !parse_cluster_stats_ok(reply, &stats)) {
    throw ClusterError{"cluster: malformed stats for shard " +
                       std::to_string(shard)};
  }
  return stats;
}

std::vector<Router::PlacementStatus> Router::status() const {
  std::vector<PlacementStatus> out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) {
    const std::scoped_lock lock{peer->failover_mutex};
    PlacementStatus status;
    status.shards = peer->placement.shards;
    status.failed_over = peer->failed_over;
    status.addr = peer->failed_over && peer->placement.follower
                      ? *peer->placement.follower
                      : peer->placement.primary;
    status.connected = peer->link && peer->link->alive();
    out.push_back(std::move(status));
  }
  return out;
}

bool Router::all_connected() const {
  for (const auto& peer : peers_) {
    const std::scoped_lock lock{peer->failover_mutex};
    if (!peer->link || !peer->link->alive()) return false;
  }
  return true;
}

std::size_t Router::inflight() const {
  const std::scoped_lock lock{inflight_mutex_};
  return inflight_.size();
}

}  // namespace stampede::cluster
