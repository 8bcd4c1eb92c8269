#include "cluster/shard_host.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "db/sharded_database.hpp"
#include "orm/stampede_tables.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::cluster {
namespace {

using namespace std::chrono_literals;

struct HostTelemetry {
  telemetry::Counter& apply_frames =
      telemetry::registry().counter("stampede_cluster_host_apply_frames_total");
  telemetry::Counter& queries =
      telemetry::registry().counter("stampede_cluster_host_queries_total");
  telemetry::Counter& promotions =
      telemetry::registry().counter("stampede_cluster_host_promotions_total");
  telemetry::Counter& replication_bytes = telemetry::registry().counter(
      "stampede_cluster_replication_bytes_total");
  telemetry::Counter& replication_stalls = telemetry::registry().counter(
      "stampede_cluster_replication_stalls_total");
};

HostTelemetry& host_telemetry() {
  static HostTelemetry tele;
  return tele;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

ShardHost::ShardHost(ShardHostOptions options)
    : options_(std::move(options)) {}

ShardHost::~ShardHost() {
  if (abandoned_.load()) return;  // kill() already tore everything down.
  stop();
}

void ShardHost::open_shard(std::size_t index) {
  auto hosted = std::make_unique<Hosted>();
  hosted->index = index;
  const std::string path = db::ShardedDatabase::shard_wal_path(
      options_.wal_base, index, options_.total_shards);
  hosted->db = std::make_unique<db::Database>(path);
  // Strided PKs: ids allocated here interleave exactly like shard
  // `index` of a local N-shard archive — byte-identical WALs depend
  // on it, and shard_index_for_id() stays the owner inverse.
  hosted->db->set_pk_allocation(static_cast<std::int64_t>(index),
                                static_cast<std::int64_t>(
                                    options_.total_shards));
  orm::create_stampede_tables(*hosted->db);
  hosted->recovered_ops = hosted->db->recover();
  if (hosted->db->row_count("schema_info") == 0) {
    hosted->db->insert("schema_info",
                       {{"version", db::Value{orm::kSchemaVersion}}});
  }
  hosted->wal_offset.store(file_size_or_zero(path));
  hosted->loader =
      std::make_unique<loader::StampedeLoader>(*hosted->db, options_.loader);
  Hosted* h = hosted.get();
  hosted->loader->set_ack_callback([h](std::uint64_t tag) {
    // Fires on the lane thread (inside process/flush); flushed to the
    // origin connection by flush_acks() right after.
    h->pending_acks.push_back(tag);
  });
  const std::scoped_lock lock{hosted_mutex_};
  hosted_.emplace(index, std::move(hosted));
}

void ShardHost::start() {
  if (running_.exchange(true)) return;
  listener_.emplace(options_.host, options_.port, 64);
  for (const std::size_t index : options_.shards) open_shard(index);
  loop_.start();  // The replication link runs on it.
  start_replication();
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) {
      Hosted* h = hosted.get();
      h->lane = std::thread([this, h] { run_lane(*h); });
    }
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.query_threads);
       ++i) {
    pool_.emplace_back([this] { pool_worker(); });
  }
  start_compactor();
  listener_->start(loop_, [this](common::SocketFd fd) {
    auto hconn = std::make_shared<HostConn>();
    hconn->conn = std::make_shared<net::Connection>(
        loop_, std::move(fd), net::Connection::Options{});
    {
      const std::scoped_lock lock{conns_mutex_};
      conns_[hconn.get()] = hconn;
    }
    hconn->conn->start(
        [this, hconn](std::string_view data) { return on_data(hconn, data); },
        [this, hconn] {
          const std::scoped_lock lock{conns_mutex_};
          conns_.erase(hconn.get());
        });
  });
}

void ShardHost::start_compactor() {
  if (options_.compact_interval_ms == 0) return;
  std::vector<db::StorageShard*> shards;
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) shards.push_back(hosted->db.get());
  }
  if (shards.empty()) return;
  db::CompactorOptions copts;
  copts.seal = options_.seal;
  copts.interval_ms = options_.compact_interval_ms;
  const std::scoped_lock lock{compactor_mutex_};
  compactor_.reset();  // Join the old sweep before re-targeting shards.
  compactor_ = std::make_unique<db::Compactor>(std::move(shards), copts);
}

void ShardHost::start_replication() {
  if (!options_.follower_addr) return;
  repl_link_ = std::make_unique<Link>(loop_, *options_.follower_addr);
  repl_link_->start(
      [this](const net::Frame& frame) {
        if (frame.type != net::FrameType::kClusterReplicateAck) return;
        std::uint32_t shard = 0;
        std::uint64_t offset = 0;
        if (!parse_cluster_replicate_ack(frame, &shard, &offset)) return;
        const std::scoped_lock lock{hosted_mutex_};
        const auto it = hosted_.find(shard);
        if (it == hosted_.end()) return;
        Hosted& h = *it->second;
        {
          const std::scoped_lock repl_lock{h.repl_mutex};
          if (offset > h.follower_acked.load()) h.follower_acked.store(offset);
        }
        h.repl_cv.notify_all();
      },
      [this] {
        repl_down_.store(true);
        // Wake every lane parked on a replication ack; they stop
        // gating (and count stalls) once the link is gone.
        const std::scoped_lock lock{hosted_mutex_};
        for (auto& [index, hosted] : hosted_) hosted->repl_cv.notify_all();
      });

  // Bootstrap: ship each shard's whole WAL from offset 0 (the follower
  // truncates and resyncs), then install the sink so every commit's
  // bytes stream incrementally. No writes can interleave here — lanes
  // and the listener have not started yet, so hosted_ cannot change and
  // is read without hosted_mutex_: a send may wait for the loop to drain
  // the link, and the loop takes that mutex to apply replication acks.
  for (auto& [index, hosted] : hosted_) {
    const std::string path = db::ShardedDatabase::shard_wal_path(
        options_.wal_base, index, options_.total_shards);
    std::string content;
    if (std::ifstream in{path, std::ios::binary}; in) {
      content.assign(std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{});
    }
    if (!repl_link_->send(encode_cluster_replicate(
            static_cast<std::uint32_t>(index), 0, content))) {
      throw ClusterError{"cluster: replication bootstrap to " +
                         options_.follower_addr->to_string() + " failed"};
    }
    host_telemetry().replication_bytes.inc(content.size());
    Hosted* h = hosted.get();
    const auto shard_u32 = static_cast<std::uint32_t>(index);
    hosted->db->set_wal_sink([this, h, shard_u32](std::string_view bytes) {
      // Under the shard's exclusive lock: offsets are assigned in
      // exactly file order, and sends are serialized with commits.
      const std::uint64_t offset = h->wal_offset.fetch_add(bytes.size());
      if (repl_down_.load()) return;
      if (!repl_link_->send(
              encode_cluster_replicate(shard_u32, offset, bytes))) {
        repl_down_.store(true);
        return;
      }
      host_telemetry().replication_bytes.inc(bytes.size());
    });
  }
}

void ShardHost::run_lane(Hosted& hosted) {
  auto lane_poll = std::chrono::milliseconds(50);
  if (options_.loader.flush_deadline_ms != 0) {
    lane_poll = std::chrono::milliseconds(std::clamp<std::size_t>(
        options_.loader.flush_deadline_ms / 2, 1, 100));
  }
  for (;;) {
    auto item = hosted.queue.pop_for(lane_poll);
    if (abandoned_.load()) return;  // Crash simulation: no final flush.
    if (!item) {
      if (hosted.queue.closed() && hosted.queue.size() == 0) break;
      {
        const std::scoped_lock lock{hosted.loader_mutex};
        hosted.loader->maybe_deadline_flush();
      }
      flush_acks(hosted);
      continue;
    }
    {
      const std::scoped_lock lock{hosted.loader_mutex};
      if (item->flush_marker) {
        if (hosted.queue.size() == 0) hosted.loader->idle_flush();
      } else {
        hosted.loader->process(item->apply.record, nullptr,
                               item->apply.redelivered, item->apply.ack_tag);
        hosted.loader->maybe_deadline_flush();
      }
    }
    flush_acks(hosted);
  }
  {
    const std::scoped_lock lock{hosted.loader_mutex};
    hosted.loader->finish();
  }
  flush_acks(hosted);
}

void ShardHost::flush_acks(Hosted& hosted) {
  if (hosted.pending_acks.empty()) return;
  // Semi-synchronous gate: an ack leaves this host only once the
  // follower has made the WAL bytes of the releasing commit durable.
  // A dead replication link stops gating (availability over the extra
  // copy); a slow one is bounded by the timeout and counted.
  if (repl_link_ && !repl_down_.load()) {
    const std::uint64_t target = hosted.wal_offset.load();
    std::unique_lock lock{hosted.repl_mutex};
    const bool acked = hosted.repl_cv.wait_for(
        lock, std::chrono::milliseconds(options_.replication_ack_timeout_ms),
        [&] {
          return hosted.follower_acked.load() >= target || repl_down_.load() ||
                 abandoned_.load();
        });
    if (!acked || (hosted.follower_acked.load() < target && !repl_down_.load()
                   && !abandoned_.load())) {
      host_telemetry().replication_stalls.inc();
    }
  }
  std::shared_ptr<net::Connection> origin;
  {
    const std::scoped_lock lock{hosted.origin_mutex};
    origin = hosted.origin.lock();
  }
  if (!origin) return;  // Keep tags until a router is attached again.
  if (origin->send(encode_cluster_ack(hosted.pending_acks))) {
    hosted.pending_acks.clear();
  }
}

std::size_t ShardHost::on_data(const std::shared_ptr<HostConn>& hconn,
                               std::string_view data) {
  if (hconn->dying) return data.size();
  std::size_t eaten = 0;
  while (!hconn->conn->closed()) {
    net::Frame frame;
    std::size_t consumed = 0;
    const auto status = net::decode_frame(data.substr(eaten), consumed, frame);
    if (status == net::DecodeStatus::kNeedMore) break;
    if (status == net::DecodeStatus::kError) {
      hconn->dying = true;
      hconn->conn->close();
      return data.size();
    }
    eaten += consumed;
    if (!handle_frame(hconn, frame)) {
      hconn->dying = true;
      hconn->conn->close_after_flush();
      eaten = data.size();
      break;
    }
  }
  return eaten;
}

bool ShardHost::handle_frame(const std::shared_ptr<HostConn>& hconn,
                             const net::Frame& frame) {
  using net::FrameType;
  if (!hconn->hello_done) {
    std::uint16_t version = 0;
    std::uint32_t requested = 0;
    if (frame.type != FrameType::kHello ||
        !net::parse_hello(frame, &version, &requested) ||
        version != net::kProtocolVersion) {
      hconn->conn->send(net::encode_error(frame.channel, "expected hello"));
      return false;
    }
    hconn->hello_done = true;
    hconn->conn->send(net::encode_hello_ok(
        frame.channel, requested & net::kSupportedFeatures));
    return true;
  }
  switch (frame.type) {
    case FrameType::kHeartbeat:
      return true;
    case FrameType::kClusterApply:
      handle_apply(hconn, frame);
      return true;
    case FrameType::kClusterQuery: {
      std::uint32_t shard = 0;
      auto select = std::make_shared<db::Select>(std::string{});
      if (!parse_cluster_query(frame, &shard, select.get())) {
        hconn->conn->send(net::encode_error(frame.channel, "bad query"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn->conn, frame.channel, shard);
      if (hosted == nullptr) return true;
      auto conn = hconn->conn;
      const std::uint32_t channel = frame.channel;
      pool_jobs_.push([hosted, select, conn, channel] {
        host_telemetry().queries.inc();
        try {
          const db::ResultSet rs = hosted->db->execute(*select);
          conn->send(encode_cluster_result(channel, rs));
        } catch (const std::exception& e) {
          conn->send(net::encode_error(channel, e.what()));
        }
      });
      return true;
    }
    case FrameType::kClusterVersions: {
      std::uint32_t shard = 0;
      auto tables = std::make_shared<std::vector<std::string>>();
      if (!parse_cluster_versions(frame, &shard, tables.get())) {
        hconn->conn->send(net::encode_error(frame.channel, "bad versions"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn->conn, frame.channel, shard);
      if (hosted == nullptr) return true;
      auto conn = hconn->conn;
      const std::uint32_t channel = frame.channel;
      pool_jobs_.push([hosted, tables, conn, channel] {
        try {
          conn->send(encode_cluster_versions_ok(
              channel, hosted->db->table_versions(*tables)));
        } catch (const std::exception& e) {
          conn->send(net::encode_error(channel, e.what()));
        }
      });
      return true;
    }
    case FrameType::kClusterStats: {
      std::uint32_t shard = 0;
      if (!parse_cluster_stats(frame, &shard)) {
        hconn->conn->send(net::encode_error(frame.channel, "bad stats"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn->conn, frame.channel, shard);
      if (hosted == nullptr) return true;
      auto conn = hconn->conn;
      const std::uint32_t channel = frame.channel;
      pool_jobs_.push([hosted, conn, channel] {
        HostShardStats stats;
        {
          const std::scoped_lock lock{hosted->loader_mutex};
          stats.loader = hosted->loader->stats();
        }
        stats.wal_truncated = hosted->db->wal_truncated_records();
        conn->send(encode_cluster_stats_ok(channel, stats));
      });
      return true;
    }
    case FrameType::kClusterReplicate:
      handle_replicate(hconn, frame);
      return true;
    case FrameType::kClusterPromote:
      handle_promote(hconn, frame);
      return true;
    default:
      hconn->conn->send(
          net::encode_error(frame.channel, "unexpected frame type"));
      return false;
  }
}

ShardHost::Hosted* ShardHost::find_hosted(net::Connection& conn,
                                          std::uint32_t channel,
                                          std::uint32_t shard) {
  {
    const std::scoped_lock lock{hosted_mutex_};
    const auto it = hosted_.find(shard);
    if (it != hosted_.end()) return it->second.get();
  }
  conn.send(net::encode_error(
      channel, "shard " + std::to_string(shard) + " not hosted"));
  return nullptr;
}

void ShardHost::handle_apply(const std::shared_ptr<HostConn>& hconn,
                             const net::Frame& frame) {
  std::uint32_t shard = 0;
  std::vector<ApplyItem> items;
  if (!parse_cluster_apply(frame, &shard, &items)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad apply"));
    return;
  }
  Hosted* hosted = find_hosted(*hconn->conn, frame.channel, shard);
  if (hosted == nullptr) return;
  host_telemetry().apply_frames.inc();
  {
    const std::scoped_lock lock{hosted->origin_mutex};
    hosted->origin = hconn->conn;
  }
  if (items.empty()) {
    LaneItem marker;
    marker.flush_marker = true;
    hosted->queue.try_push(std::move(marker));
    return;
  }
  for (auto& item : items) {
    LaneItem lane_item;
    lane_item.apply = std::move(item);
    hosted->queue.push(std::move(lane_item));
  }
}

void ShardHost::handle_replicate(const std::shared_ptr<HostConn>& hconn,
                                 const net::Frame& frame) {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::string bytes;
  if (!parse_cluster_replicate(frame, &shard, &offset, &bytes)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad replicate"));
    return;
  }
  const std::scoped_lock lock{replicas_mutex_};
  Replica& replica = replicas_[shard];
  if (replica.path.empty()) {
    replica.path = db::ShardedDatabase::shard_wal_path(
        options_.wal_base, shard, options_.total_shards);
  }
  if (offset == 0) {
    // Resync from scratch (the primary's bootstrap on link connect).
    if (replica.out.is_open()) replica.out.close();
    replica.out.open(replica.path, std::ios::binary | std::ios::trunc);
    replica.size = 0;
  } else if (!replica.out.is_open()) {
    replica.size = file_size_or_zero(replica.path);
    replica.out.open(replica.path, std::ios::binary | std::ios::app);
  }
  if (offset <= replica.size) {
    // Skip the prefix we already hold (idempotent overlap), append the
    // rest. A gap (offset > size) cannot be filled — ack what we have
    // and let the primary's stream continue; v1 never reorders.
    const std::uint64_t skip = replica.size - offset;
    if (skip < bytes.size()) {
      replica.out.write(bytes.data() + skip,
                        static_cast<std::streamsize>(bytes.size() - skip));
      replica.out.flush();
      replica.size += bytes.size() - skip;
    }
  }
  hconn->conn->send(encode_cluster_replicate_ack(shard, replica.size));
}

void ShardHost::handle_promote(const std::shared_ptr<HostConn>& hconn,
                               const net::Frame& frame) {
  std::vector<std::uint32_t> shards;
  if (!parse_cluster_promote(frame, &shards)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad promote"));
    return;
  }
  auto conn = hconn->conn;
  const std::uint32_t channel = frame.channel;
  pool_jobs_.push([this, shards, conn, channel] {
    try {
      std::vector<PromoteResult> results;
      for (const std::uint32_t shard : shards) {
        {
          // Stop appending replicated bytes; the file is now an archive.
          const std::scoped_lock lock{replicas_mutex_};
          const auto it = replicas_.find(shard);
          if (it != replicas_.end() && it->second.out.is_open()) {
            it->second.out.close();
          }
        }
        // Opens + recovers the replicated WAL: a torn trailing record
        // (primary died mid-append) is tolerated and counted, exactly
        // like a local restart; anything torn mid-file throws and the
        // promotion is refused.
        open_shard(shard);
        Hosted* hosted = nullptr;
        {
          const std::scoped_lock lock{hosted_mutex_};
          hosted = hosted_.at(shard).get();
        }
        hosted->lane = std::thread([this, hosted] { run_lane(*hosted); });
        PromoteResult result;
        result.shard = shard;
        result.recovered_ops = hosted->recovered_ops;
        result.truncated_records = hosted->db->wal_truncated_records();
        results.push_back(result);
      }
      promoted_.store(true);
      start_compactor();  // The promoted shards now take live writes.
      host_telemetry().promotions.inc();
      conn->send(encode_cluster_promote_ok(channel, results));
    } catch (const std::exception& e) {
      conn->send(net::encode_error(channel, e.what()));
    }
  });
}

void ShardHost::pool_worker() {
  while (auto job = pool_jobs_.pop()) {
    (*job)();
  }
}

void ShardHost::stop() {
  const bool was_running = running_.exchange(false);
  {
    // Stop sweeping before the shards it targets start tearing down.
    const std::scoped_lock lock{compactor_mutex_};
    compactor_.reset();
  }
  // Refuse new connects from here on: a stopped (or killed) host must
  // look gone to its peers, not complete handshakes nobody serves.
  if (listener_) listener_->stop();
  {
    // Close connections first: a lane blocked in an ack send unblocks.
    const std::scoped_lock lock{conns_mutex_};
    for (auto& [ptr, hconn] : conns_) hconn->conn->close();
  }
  if (repl_link_) repl_link_->close();
  std::vector<Hosted*> lanes;
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) {
      hosted->queue.close();
      lanes.push_back(hosted.get());
    }
  }
  for (Hosted* hosted : lanes) {
    if (hosted->lane.joinable()) hosted->lane.join();
  }
  pool_jobs_.close();
  for (auto& worker : pool_) {
    if (worker.joinable()) worker.join();
  }
  pool_.clear();
  if (was_running) loop_.stop();
}

void ShardHost::kill() {
  abandoned_.store(true);
  stop();
  // Simulate the crash: the loaders' buffered-but-uncommitted batches
  // must NOT flush, so their destructors never run. The leak is
  // deliberate and test-only.
  const std::scoped_lock lock{hosted_mutex_};
  for (auto& [index, hosted] : hosted_) {
    hosted->loader.release();  // NOLINT(bugprone-unused-return-value)
  }
}

}  // namespace stampede::cluster
