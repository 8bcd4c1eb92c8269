// pipeline_bench — the publish→visible benchmark (perfbench/README.md).
//
// Runs, inside one process, the deployment `nl_load_cli --listen
// --shards=4` (or `--router=...`) sets up: a net::BusClient publisher
// over loopback TCP to a net::BusServer in front of a bus::Broker; a
// loader::QueuePump feeding a 4-lane loader::ShardedLoader (or a
// cluster::Router over in-process ShardHosts); a WAL-backed archive
// carrying continuous views; dashboard-style readers on top.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--rev <id>] [--out <dir>]
//
// Workloads: fleet_ingest, live_monitor, routed_ingest.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics untraced, per-layer metrics traced.
// Details (run metadata, stage budget, per-layer self time, spans) go
// to files under --out.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/shard_map.hpp"
#include "db/expr.hpp"
#include "db/query.hpp"
#include "db/sharded_database.hpp"
#include "fleet.hpp"
#include "loader/nl_load.hpp"
#include "loader/sharded_loader.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "orm/stampede_tables.hpp"
#include "query/analyzer.hpp"
#include "query/continuous_views.hpp"
#include "query/query_interface.hpp"
#include "query/statistics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace stampede;
namespace fs = std::filesystem;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------------
// Fixed settings. The program itself runs at its defaults (tracer sample
// rate 0.01, default LoaderOptions, BusServerOptions, RouterOptions).

constexpr std::size_t kShards = 4;
/// Rounds per run: each sets up from scratch and measures a third of
/// --seconds, or longer when a closed-loop ingest alone takes more (see
/// end_to_end for how rounds combine).
constexpr std::size_t kRounds = 3;
/// Set-ups per untraced run: one per round, the rest set up and torn
/// down without measuring (setup_s is their median).
constexpr std::size_t kSetups = 7;
/// live_monitor's open-loop rate, fixed and recorded in BENCHMARK.json.
constexpr double kLiveRate = 15000.0;
/// fleet_ingest and routed_ingest: after the closed-loop ingest, the
/// fleet's tail trickles in open loop at this rate beside the reader.
constexpr double kTailRate = 10000.0;
/// live_monitor's dashboard counts cover this many most recent events
/// (a third of a second of the stream).
constexpr std::size_t kLiveWindowEvents = 5000;
/// Closed-loop publishing keeps at most this many events published but
/// not yet acked (committed): the publisher waits for the pipeline
/// instead of filling the broker, whose queue is unbounded.
constexpr std::uint64_t kInFlight = 4096;
/// fleet_ingest and routed_ingest read for what is left of the round's
/// budget after ingest, but at least this share of it: a slow ingest
/// must not shrink the freshness and query samples of the read phase.
constexpr double kMinReadShare = 0.5;
/// live_monitor's reader is a dashboard: it redraws, then asks again this
/// long after an answer (still a closed loop, but one that leaves the
/// pipeline's threads some of the four cores at full ingest load).
constexpr double kThinkS = 0.002;
/// Freshness limit: the loader's default flush_deadline_ms.
constexpr double kFreshnessLimitMs = 250.0;
/// How long a probe may take to reach the views after its rows are
/// visible before it counts as never seen.
constexpr double kViewGraceS = 5.0;
/// An open loop keeps publishing this long after its measured window, so
/// that the window's probes all see a running stream. When a stream
/// stops, its last probes take up to about 300 ms to become visible;
/// they still count against the limit, but left in the percentiles they
/// would weigh by the window's length (5% of a 6 s window's probes) and
/// swing the freshness percentiles between runs by a factor of three.
constexpr double kCoolDownS = 0.5;
/// A round whose events are not all visible this long after the last
/// publish is failed.
constexpr double kDrainTimeoutS = 60.0;
constexpr const char* kExchange = "monitoring";
constexpr const char* kQueue = "stampede";
/// Traced runs only: probes carry their trace id in this header.
constexpr const char* kTraceHeader = "x-perfbench-trace";

enum class Workload { kFleetIngest, kLiveMonitor, kRoutedIngest };

/// Round r of a run loads fleet r. --seed draws its run times, hosts,
/// failures and start offsets; workflow identities (so shard placement)
/// and the readers' choices come from r alone, so every run averages the
/// same three placements and query sequences instead of a fresh draw of
/// the lane skew hash placement gives a few hundred workflows, or of
/// which large workflows a few hundred queries happen to touch first.
pb::FleetOptions fleet_options(std::uint64_t seed, std::size_t fleet_index) {
  pb::FleetOptions options;
  options.seed = seed * 16 + fleet_index;
  options.identity_seed = fleet_index + 1;
  return options;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Linear interpolation between order statistics; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// 0 for no samples.
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

using pb::Rand;

// ---------------------------------------------------------------------------
// Per-round recording. Untraced rounds record only what the end-to-end
// metrics need; traced rounds add the layer boundaries.

struct Span {
  const char* name;
  const char* layer;
  std::uint64_t trace;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root.
  double start;
  double end;
};

/// Thread-safe "first write wins" time slots, one per probe or event.
class TimeSlots {
 public:
  explicit TimeSlots(std::size_t n) : slots_(n) {}
  void set_once(std::size_t i, double t) {
    if (i >= slots_.size()) return;
    double zero = 0.0;
    slots_[i].compare_exchange_strong(zero, t, std::memory_order_relaxed);
  }
  void set(std::size_t i, double t) {
    if (i < slots_.size()) slots_[i].store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] double get(std::size_t i) const {
    return i < slots_.size() ? slots_[i].load(std::memory_order_relaxed) : 0.0;
  }

 private:
  std::vector<std::atomic<double>> slots_;
};

struct Recorder {
  Recorder(const pb::Fleet& f, bool tr)
      : fleet(&f),
        traced(tr),
        due(f.probe_events.size()),
        visible(f.probe_events.size()),
        publish_end(tr ? f.probe_events.size() : 0),
        dequeued(tr ? f.probe_events.size() : 0),
        dispatch_start(tr ? f.events.size() + 1 : 0),
        dispatch_end(tr ? f.probe_events.size() : 0),
        acked(tr ? f.events.size() + 1 : 0) {}

  /// Delivery tags count deliveries from 1 in publish order (one
  /// publisher connection, one consumer, no redelivery — checked), so
  /// tag k carries event k-1.
  [[nodiscard]] std::int32_t probe_of_tag(std::uint64_t tag) const {
    if (tag == 0 || tag > fleet->events.size()) return -1;
    return fleet->events[tag - 1].probe;
  }

  const pb::Fleet* fleet;
  bool traced;
  TimeSlots due;             ///< Probe: when its publish was due.
  TimeSlots visible;         ///< Probe: view update (routed: ack) time.
  TimeSlots publish_end;     ///< Probe, traced.
  TimeSlots dequeued;        ///< Probe, traced (found by header).
  TimeSlots dispatch_start;  ///< Tag, traced.
  TimeSlots dispatch_end;    ///< Probe, traced.
  TimeSlots acked;           ///< Tag, traced.
  std::vector<double> publish_ms;   ///< Generator thread only.
  std::vector<double> dispatch_us;  ///< Pump thread only, traced.
  std::atomic<std::uint64_t> acks{0};  ///< Events acked so far.
  std::atomic<std::uint64_t> get_wait_ns{0};
  std::atomic<std::uint64_t> flush_hints{0};
  std::atomic<std::uint64_t> view_updates{0};
  double finish_s = 0.0;

  /// Counter values over the ingest window (first publish → visible).
  struct Window {
    double seconds = 0.0;
    double get_wait_s = 0.0;
    std::uint64_t flush_hints = 0;
    std::uint64_t view_updates = 0;
  };
  void open_window() {
    window_start_ = {now_s(), static_cast<double>(get_wait_ns.load()) * 1e-9,
                     flush_hints.load(), view_updates.load()};
  }
  void close_window() {
    window.seconds = now_s() - window_start_.seconds;
    window.get_wait_s =
        static_cast<double>(get_wait_ns.load()) * 1e-9 - window_start_.get_wait_s;
    window.flush_hints = flush_hints.load() - window_start_.flush_hints;
    window.view_updates = view_updates.load() - window_start_.view_updates;
  }
  Window window;

 private:
  Window window_start_;
};

/// The IBus the pump reads through in traced rounds: times basic_get
/// (loader.get_wait_frac) and notes when each probe leaves the broker.
class BusProbe final : public bus::IBus {
 public:
  BusProbe(bus::IBus& inner, Recorder& rec) : inner_(&inner), rec_(&rec) {}
  void declare_exchange(const std::string& name, bus::ExchangeType type) override {
    inner_->declare_exchange(name, type);
  }
  void declare_queue(const std::string& name, bus::QueueOptions options) override {
    inner_->declare_queue(name, options);
  }
  void bind(const std::string& queue, const std::string& exchange,
            const std::string& key) override {
    inner_->bind(queue, exchange, key);
  }
  std::size_t publish(const std::string& exchange, bus::Message message) override {
    return inner_->publish(exchange, std::move(message));
  }
  std::optional<bus::Delivery> basic_get(const std::string& queue,
                                         const std::string& consumer_tag,
                                         int timeout_ms) override {
    const double t0 = now_s();
    auto delivery = inner_->basic_get(queue, consumer_tag, timeout_ms);
    const double t1 = now_s();
    rec_->get_wait_ns.fetch_add(static_cast<std::uint64_t>((t1 - t0) * 1e9),
                                std::memory_order_relaxed);
    if (delivery) {
      const auto& headers = delivery->message().headers;
      const auto it = headers.find(kTraceHeader);
      if (it != headers.end()) {
        rec_->dequeued.set_once(std::stoull(it->second) - 1, t1);
      }
    }
    return delivery;
  }
  bool ack(const std::string& queue, std::uint64_t tag) override {
    return inner_->ack(queue, tag);
  }
  bool nack(const std::string& queue, std::uint64_t tag, bool requeue) override {
    return inner_->nack(queue, tag, requeue);
  }
  bus::QueueStats queue_stats(const std::string& queue) const override {
    return inner_->queue_stats(queue);
  }

 private:
  bus::IBus* inner_;
  Recorder* rec_;
};

/// The EventSink handed to QueuePump: times process() and the ack
/// callback (process(ack_tag) → ack covers lane apply and commit), and
/// counts flush hints. With `ack_is_visible` (routed: the archive is
/// remote, so a committed ack is the visibility point) it stamps probes.
class SinkProbe final : public loader::EventSink {
 public:
  SinkProbe(loader::EventSink& inner, Recorder& rec, bool ack_is_visible)
      : inner_(&inner), rec_(&rec), ack_is_visible_(ack_is_visible) {}
  bool process(const nl::LogRecord& record, const telemetry::TraceStamps* trace,
               bool redelivered, std::uint64_t ack_tag) override {
    if (!rec_->traced) return inner_->process(record, trace, redelivered, ack_tag);
    const double t0 = now_s();
    rec_->dispatch_start.set(ack_tag, t0);
    const bool ok = inner_->process(record, trace, redelivered, ack_tag);
    const double t1 = now_s();
    rec_->dispatch_us.push_back((t1 - t0) * 1e6);
    const auto probe = rec_->probe_of_tag(ack_tag);
    if (probe >= 0) rec_->dispatch_end.set(static_cast<std::size_t>(probe), t1);
    return ok;
  }
  void set_ack_callback(std::function<void(std::uint64_t)> cb) override {
    inner_->set_ack_callback([this, cb = std::move(cb)](std::uint64_t tag) {
      const double t = now_s();
      rec_->acks.fetch_add(1, std::memory_order_relaxed);
      if (rec_->traced) rec_->acked.set(tag, t);
      if (ack_is_visible_) {
        const auto probe = rec_->probe_of_tag(tag);
        if (probe >= 0) rec_->visible.set_once(static_cast<std::size_t>(probe), t);
      }
      cb(tag);
    });
  }
  void flush_hint() override {
    rec_->flush_hints.fetch_add(1, std::memory_order_relaxed);
    inner_->flush_hint();
  }
  void finish() override {
    const double t0 = now_s();
    inner_->finish();
    rec_->finish_s = now_s() - t0;
  }

 private:
  loader::EventSink* inner_;
  Recorder* rec_;
  bool ack_is_visible_;
};

// ---------------------------------------------------------------------------
// The deployment under test.

struct ViewDef {
  std::uint64_t id = 0;
  db::Select select;
};

db::Select probe_view_select() {
  return db::Select{"jobstate"}
      .where(db::eq("state", db::Value{std::string{"JOB_SUCCESS"}}))
      .columns({"job_instance_id", "state", "timestamp"});
}

db::Select state_counts_select(const std::string& table) {
  return db::Select{table}.group_by({"state"}).count_all("n");
}

class Pipeline {
 public:
  Pipeline(const fs::path& dir, const pb::Fleet& fleet, Recorder& rec,
           bool routed)
      : dir_(dir), fleet_(&fleet), rec_(&rec) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    if (routed) {
      start_cluster();
    } else {
      start_local();
    }
    broker_ = std::make_unique<bus::Broker>();
    broker_->declare_exchange(kExchange, bus::ExchangeType::kTopic);
    broker_->declare_queue(kQueue);
    broker_->bind(kQueue, kExchange, "stampede.#");
    server_ = std::make_unique<net::BusServer>(*broker_);
    server_->start();
    net::BusClientOptions client_options;
    client_options.port = server_->port();
    client_ = std::make_unique<net::BusClient>(client_options);
    if (!client_->wait_connected(10'000)) {
      throw std::runtime_error("publisher cannot reach the bus");
    }
    loader::EventSink& inner = routed ? static_cast<loader::EventSink&>(*router_)
                                      : static_cast<loader::EventSink&>(*loader_);
    sink_ = std::make_unique<SinkProbe>(inner, rec, routed);
    bus::IBus* pump_bus = broker_.get();
    if (rec.traced) {
      bus_probe_ = std::make_unique<BusProbe>(*broker_, rec);
      pump_bus = bus_probe_.get();
    }
    pump_ = std::make_unique<loader::QueuePump>(*pump_bus, kQueue, *sink_);
    pump_->start();
    query_ = routed ? std::make_unique<query::QueryInterface>(router_->backend())
                    : std::make_unique<query::QueryInterface>(*archive_);
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  ~Pipeline() {
    try {
      stop_ingest();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipeline shutdown: %s\n", e.what());
    }
    query_.reset();
    router_.reset();
    for (auto& host : hosts_) host->stop();
    hosts_.clear();
    views_.reset();
    loader_.reset();
    archive_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Publishes one pre-formatted event the way BpPublisher does
  /// (publish stamp, head-sampled trace context), minus the formatting.
  void publish(std::size_t index) {
    const pb::FleetEvent& e = fleet_->events[index];
    bus::Message message;
    message.routing_key = std::string{e.routing_key};
    message.body = e.body;
    message.published_at = fleet_->ts_of(index);
    message.trace_published = telemetry::trace_now();
    if (rec_->traced && e.probe >= 0) {
      message.headers[kTraceHeader] = std::to_string(e.probe + 1);
    }
    auto& tracer = telemetry::Tracer::instance();
    message.trace_ctx = tracer.start_trace();
    if (message.trace_ctx.valid()) {
      message.trace_published_wall = tracer.wall_at(message.trace_published);
      message.headers["traceparent"] = message.trace_ctx.to_traceparent();
      telemetry::SpanGuard span{"bus.publish", message.trace_ctx};
      span.attr("routing_key", message.routing_key);
      client_->publish(kExchange, std::move(message));
      return;
    }
    client_->publish(kExchange, std::move(message));
  }

  /// Blocks until `n` published events are acked (committed) and every
  /// table holds the rows the first `n` events produce. Returns the time
  /// visibility was confirmed, or nullopt on timeout / mismatch.
  std::optional<double> wait_visible(std::size_t n, double deadline) {
    const pb::RowCounts want = fleet_->expected(n);
    double all_acked = 0.0;
    while (now_s() < deadline) {
      if (broker_->queue_stats(kQueue).acked >= n) {
        // Acks follow commits: once all are in, the rows must be too
        // (a short grace covers the last commits' view of the counts).
        if (row_counts() == want.rows) return now_s();
        if (all_acked == 0.0) all_acked = now_s();
        if (now_s() - all_acked > 1.0) return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return std::nullopt;
  }

  [[nodiscard]] std::array<std::uint64_t, pb::kTableCount> row_counts() const {
    std::array<std::uint64_t, pb::kTableCount> counts{};
    for (std::size_t t = 0; t < pb::kTableCount; ++t) {
      counts[t] = query_->executor().row_count(std::string{pb::kTableNames[t]});
    }
    return counts;
  }

  /// Drains the queue, finishes the sink and stops the bus. Idempotent.
  void stop_ingest() {
    if (pump_) pump_->stop();
    pump_.reset();
    bus_probe_.reset();
    if (client_) client_->close();
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
    if (broker_) broker_->close();
  }

  [[nodiscard]] const query::QueryInterface& query() const { return *query_; }
  [[nodiscard]] loader::ShardedLoader* loader() { return loader_.get(); }
  [[nodiscard]] cluster::Router* router() { return router_.get(); }
  [[nodiscard]] bus::Broker& broker() { return *broker_; }
  [[nodiscard]] query::ContinuousQueryEngine* views() { return views_.get(); }
  [[nodiscard]] const std::vector<ViewDef>& view_defs() const { return view_defs_; }
  [[nodiscard]] const std::vector<std::unique_ptr<telemetry::Histogram>>&
  commit_histograms() const {
    return commit_hist_;
  }

 private:
  void start_local() {
    archive_ = orm::open_sharded_archive((dir_ / "archive.db").string(), kShards);
    if (rec_->traced) {
      for (std::size_t i = 0; i < kShards; ++i) {
        commit_hist_.push_back(std::make_unique<telemetry::Histogram>(
            telemetry::HistogramOptions{1e-6, 1.1, 220}));
        archive_->shard(i).set_commit_latency_sink(commit_hist_.back().get());
      }
    }
    views_ = std::make_unique<query::ContinuousQueryEngine>(*archive_);
    view_defs_.push_back({0, probe_view_select()});
    view_defs_.push_back({0, state_counts_select("jobstate")});
    view_defs_.push_back({0, state_counts_select("workflowstate")});
    for (auto& def : view_defs_) def.id = views_->register_view(def.select);
    const std::uint64_t probe_view = view_defs_[0].id;
    Recorder* rec = rec_;
    const pb::Fleet* fleet = fleet_;
    views_->on_update([rec, fleet, probe_view](const query::ViewUpdate& update) {
      rec->view_updates.fetch_add(1, std::memory_order_relaxed);
      if (update.view != probe_view) return;
      const double t = now_s();
      for (const auto& change : update.changes) {
        if (change.op != query::ViewChange::Op::kUpsert || change.row.size() < 3) {
          continue;
        }
        const auto event = fleet->event_at(change.row[2].as_number());
        if (event < 0) continue;
        const auto probe = fleet->events[static_cast<std::size_t>(event)].probe;
        if (probe >= 0) rec->visible.set_once(static_cast<std::size_t>(probe), t);
      }
    });
    loader_ = std::make_unique<loader::ShardedLoader>(*archive_);
  }

  /// Two shard hosts with two shards each, each with a semi-sync
  /// follower; the router over them.
  void start_cluster() {
    std::string spec;
    for (std::size_t g = 0; g < 2; ++g) {
      cluster::ShardHostOptions follower;
      follower.wal_base = (dir_ / ("follower" + std::to_string(g) + ".db")).string();
      follower.total_shards = kShards;
      follower.follower = true;
      hosts_.push_back(std::make_unique<cluster::ShardHost>(follower));
      hosts_.back()->start();
      const int follower_port = hosts_.back()->port();

      cluster::ShardHostOptions primary;
      primary.wal_base = (dir_ / ("host" + std::to_string(g) + ".db")).string();
      primary.shards = {2 * g, 2 * g + 1};
      primary.total_shards = kShards;
      primary.follower_addr = cluster::HostAddr{"127.0.0.1", follower_port};
      hosts_.push_back(std::make_unique<cluster::ShardHost>(primary));
      hosts_.back()->start();
      if (!spec.empty()) spec += ";";
      spec += std::to_string(2 * g) + "," + std::to_string(2 * g + 1) +
              "@127.0.0.1:" + std::to_string(hosts_.back()->port()) +
              "/127.0.0.1:" + std::to_string(follower_port);
    }
    router_ = std::make_unique<cluster::Router>(cluster::ShardMap::parse(spec));
  }

  fs::path dir_;
  const pb::Fleet* fleet_;
  Recorder* rec_;
  // Declared before the archive: shards hold raw pointers to these.
  std::vector<std::unique_ptr<telemetry::Histogram>> commit_hist_;
  std::unique_ptr<db::ShardedDatabase> archive_;
  std::unique_ptr<query::ContinuousQueryEngine> views_;
  std::vector<ViewDef> view_defs_;
  std::unique_ptr<loader::ShardedLoader> loader_;
  std::vector<std::unique_ptr<cluster::ShardHost>> hosts_;
  std::unique_ptr<cluster::Router> router_;
  std::unique_ptr<bus::Broker> broker_;
  std::unique_ptr<net::BusServer> server_;
  std::unique_ptr<net::BusClient> client_;
  std::unique_ptr<SinkProbe> sink_;
  std::unique_ptr<BusProbe> bus_probe_;
  std::unique_ptr<loader::QueuePump> pump_;
  std::unique_ptr<query::QueryInterface> query_;
};

// ---------------------------------------------------------------------------
// Readers.

enum QueryKind { kWf = 0, kFleet = 1 };

struct QueryLog {
  std::vector<double> us[2];
  std::size_t issued = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;
};

/// Per-state prefix sums over the fleet, for checking window answers.
struct StateIndex {
  explicit StateIndex(const pb::Fleet& fleet) {
    for (auto& c : cum) c.assign(fleet.events.size() + 1, 0);
    for (std::size_t i = 0; i < fleet.events.size(); ++i) {
      for (std::size_t s = 0; s < pb::kStateCount; ++s) cum[s][i + 1] = cum[s][i];
      const auto state = fleet.events[i].state;
      if (state != pb::State::kNone) ++cum[static_cast<std::size_t>(state)][i + 1];
    }
  }
  /// Jobstates of each state written by events first+1 .. last.
  [[nodiscard]] std::array<std::int64_t, pb::kStateCount> window(
      std::size_t first, std::size_t last) const {
    std::array<std::int64_t, pb::kStateCount> out{};
    for (std::size_t s = 0; s < pb::kStateCount; ++s) {
      out[s] = static_cast<std::int64_t>(cum[s][last + 1] - cum[s][first + 1]);
    }
    return out;
  }
  std::array<std::vector<std::uint32_t>, pb::kStateCount> cum;
};

std::array<std::int64_t, pb::kStateCount> by_state(const db::ResultSet& rs) {
  std::array<std::int64_t, pb::kStateCount> out{};
  for (std::size_t r = 0; r < rs.size(); ++r) {
    const auto& name = rs.at(r, "state").as_text();
    for (std::size_t s = 0; s < pb::kStateCount; ++s) {
      if (name == pb::kStateNames[s]) out[s] = rs.at(r, "n").as_int();
    }
  }
  return out;
}

/// The read mix of the ingest workloads' read phase, over the main fleet
/// (loaded in full; the tail is still arriving): per-workflow statistics
/// and analyzer calls on Zipf-chosen workflows (one shard, repeats hit
/// the cache), alternating with fleet jobstate counts over a rotating ts
/// window (all shards, always a cache miss). Every answer is checked
/// against the generator.
class ReadMix {
 public:
  ReadMix(const pb::Fleet& fleet, const StateIndex& states,
             std::vector<std::int64_t> wf_ids, std::uint64_t seed)
      : fleet_(&fleet), states_(&states), wf_ids_(std::move(wf_ids)) {
    // Zipf(s=1) over a permutation of the workflows drawn from `seed`.
    Rand rng{seed};
    order_.resize(wf_ids_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    double total = 0.0;
    for (std::size_t r = 0; r < order_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (auto& c : cdf_) c /= total;
  }

  /// Even steps are per-workflow calls (alternately summary and
  /// analyze), odd steps fleet window counts.
  void one(const query::QueryInterface& q, Rand& rng, std::size_t step,
           QueryLog& log) const {
    if (step % 2 == 0) {
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit()) - cdf_.begin());
      const std::size_t w = order_[std::min(rank, order_.size() - 1)];
      const auto& spec = fleet_->workflows[w];
      const double t0 = now_s();
      bool ok = false;
      if (step % 4 == 0) {
        const auto s = query::StampedeStatistics{q}.summary(wf_ids_[w]);
        ok = s.tasks.succeeded == spec.tasks && s.tasks.total() == spec.tasks &&
             s.jobs.succeeded == spec.tasks && s.jobs.total() == spec.tasks &&
             s.jobs.retries == spec.retries;
      } else {
        const auto a = query::StampedeAnalyzer{q}.analyze(wf_ids_[w]);
        ok = a.total_jobs == spec.tasks && a.failed == 0 && a.unsubmitted == 0;
      }
      log.us[kWf].push_back((now_s() - t0) * 1e6);
      if (!ok) ++log.mismatches;
    } else {
      const std::size_t n = fleet_->main_events;
      const std::size_t width = std::max<std::size_t>(n / 8, 1);
      const std::size_t first = rng.below(n - width);
      const std::size_t last = first + width - 1;
      // Bounds sit half a tick off the event timestamps.
      const double lo = fleet_->ts_of(first) + pb::Fleet::kTick / 2;
      const double hi = fleet_->ts_of(last) + pb::Fleet::kTick / 2;
      const auto select =
          db::Select{"jobstate"}
              .where(db::and_(db::gt("timestamp", db::Value{lo}),
                              db::lt("timestamp", db::Value{hi})))
              .group_by({"state"})
              .count_all("n");
      const double t0 = now_s();
      const auto rs = q.executor().execute(select);
      log.us[kFleet].push_back((now_s() - t0) * 1e6);
      if (by_state(*rs) != states_->window(first, last)) ++log.mismatches;
    }
  }

 private:
  const pb::Fleet* fleet_;
  const StateIndex* states_;
  std::vector<std::int64_t> wf_ids_;
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

/// Runs `readers` closed-loop threads for `seconds`; `op(q, rng, step,
/// log)` issues one query, then the reader thinks for `think_s`. Returns
/// the merged log and the wall time.
template <typename Op>
std::pair<QueryLog, double> run_readers(const query::QueryInterface& q,
                                        std::size_t readers, double seconds,
                                        std::uint64_t seed, const Op& op,
                                        const std::atomic<bool>* stop = nullptr,
                                        double think_s = 0.0) {
  std::vector<QueryLog> logs(readers);
  const double start = now_s();
  const double deadline = start + seconds;
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        Rand rng{seed * 1000003 + r};
        QueryLog& log = logs[r];
        for (std::size_t step = r; now_s() < deadline; ++step) {
          if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
          ++log.issued;
          try {
            op(q, rng, step, log);
          } catch (const std::exception& e) {
            if (log.errors++ == 0) std::fprintf(stderr, "query error: %s\n", e.what());
          }
          if (think_s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(think_s));
        }
      });
    }
  }
  const double wall = now_s() - start;
  QueryLog merged;
  for (auto& log : logs) {
    for (int k = 0; k < 2; ++k) append(merged.us[k], log.us[k]);
    merged.issued += log.issued;
    merged.errors += log.errors;
    merged.mismatches += log.mismatches;
  }
  return {std::move(merged), wall};
}

// ---------------------------------------------------------------------------
// One round.

struct Round {
  double setup_s = 0.0;
  double ingest_s = 0.0;      ///< First publish → last event visible.
  std::size_t events = 0;     ///< Events published.
  double ingest_cpu_s = 0.0;  ///< Process CPU over the ingest window.
  std::vector<double> freshness_ms;
  /// The same, by second of the measured window the probe was due in.
  std::map<std::size_t, std::vector<double>> freshness_by_second;
  std::size_t probes = 0;
  std::size_t probes_late = 0;    ///< Over kFreshnessLimitMs (live only).
  std::size_t probes_missing = 0;
  std::vector<double> gen_lag_ms;
  QueryLog queries;
  double query_wall_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;  ///< Correctness-gate failures.
  // Traced rounds.
  std::map<std::string, double> layer;
  std::vector<Span> spans;
  std::map<std::string, std::vector<double>> stages_ms;
};

struct Context {
  Workload workload;
  std::uint64_t seed;
  double seconds;
  bool traced;
  fs::path work_dir;
};

class Gate {
 public:
  explicit Gate(Round& round) : round_(&round) {}
  void check(bool ok, const std::string& what) {
    ++round_->attempted;
    if (!ok) {
      ++round_->mismatches;
      ++round_->failed;
      std::fprintf(stderr, "correctness: %s\n", what.c_str());
    }
  }

 private:
  Round* round_;
};

bool same_result(const db::ResultSet& a, const db::ResultSet& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size() ||
        !db::group_rows_equal(a.rows[i], b.rows[i], a.rows[i].size())) {
      return false;
    }
  }
  return true;
}

/// Untimed checks after the window: rows and jobstates equal the
/// generator's for the published prefix, views equal re-executed
/// Selects, the loader rejected nothing, and (routed) no failover and
/// every event reached a shard host.
void check_archive(Pipeline& p, const pb::Fleet& fleet, std::size_t published,
                   Round& round) {
  Gate gate{round};
  const pb::RowCounts want = fleet.expected(published);
  const auto rows = p.row_counts();
  for (std::size_t t = 0; t < pb::kTableCount; ++t) {
    gate.check(rows[t] == want.rows[t],
               std::string{pb::kTableNames[t]} + " rows " + std::to_string(rows[t]) +
                   " != expected " + std::to_string(want.rows[t]));
  }
  const auto states = by_state(*p.query().executor().execute(state_counts_select("jobstate")));
  for (std::size_t s = 0; s < pb::kStateCount; ++s) {
    gate.check(static_cast<std::uint64_t>(states[s]) == want.states[s],
               std::string{pb::kStateNames[s]} + " jobstates " +
                   std::to_string(states[s]) + " != expected " +
                   std::to_string(want.states[s]));
  }
  if (auto* views = p.views()) {
    for (const auto& def : p.view_defs()) {
      gate.check(same_result(views->snapshot(def.id), *p.query().executor().execute(def.select)),
                 "view " + std::to_string(def.id) + " differs from its re-executed Select");
    }
  }
  loader::LoaderStats stats;
  if (auto* loader = p.loader()) {
    stats = loader->stats();
  } else if (auto* router = p.router()) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < router->shard_count(); ++i) {
      const auto remote = router->remote_stats(i).loader;
      seen += remote.events_seen;
      stats.merge(remote);
    }
    gate.check(seen == published, "remote_stats events " + std::to_string(seen) +
                                      " != sent " + std::to_string(published));
    std::size_t failovers = 0;
    for (const auto& placement : router->status()) failovers += placement.failed_over;
    gate.check(failovers == 0, "failovers: " + std::to_string(failovers));
  }
  gate.check(stats.events_invalid == 0 && stats.events_unknown == 0 &&
                 stats.events_dropped == 0,
             "loader rejected events (invalid " + std::to_string(stats.events_invalid) +
                 ", unknown " + std::to_string(stats.events_unknown) + ", dropped " +
                 std::to_string(stats.events_dropped) + ")");
  gate.check(p.broker().queue_stats(kQueue).redelivered == 0,
             "bus redelivered events (breaks tag accounting)");
}

/// Freshness per probe among events [first, measured), published open
/// loop in the measured window that began at `start`; with `limit`, every
/// probe among [first, published), cool-down included, is checked
/// against the limit. A probe over the limit is a latency finding,
/// counted in probes_late; only a probe never seen is a failed op.
void collect_freshness(const Recorder& rec, const pb::Fleet& fleet, std::size_t first,
                       std::size_t measured, std::size_t published, double start,
                       bool limit, Round& round) {
  // Views hear of a commit after its rows count as visible: give the
  // last updates a moment before calling a probe missing.
  const double grace_end = now_s() + kViewGraceS;
  for (std::size_t probe = 0; probe < fleet.probe_events.size(); ++probe) {
    const std::size_t event = fleet.probe_events[probe];
    if (event < first) continue;
    if (event >= published) break;
    while (rec.visible.get(probe) == 0.0 && now_s() < grace_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (std::size_t probe = 0; probe < fleet.probe_events.size(); ++probe) {
    const std::size_t event = fleet.probe_events[probe];
    if (event < first) continue;
    if (event >= published) break;
    ++round.probes;
    const double due = rec.due.get(probe);
    const double seen = rec.visible.get(probe);
    if (seen == 0.0) {
      ++round.probes_missing;
      continue;
    }
    const double ms = (seen - due) * 1e3;
    if (event < measured) {
      round.freshness_ms.push_back(ms);
      round.freshness_by_second[static_cast<std::size_t>(std::max(due - start, 0.0))]
          .push_back(ms);
    }
    if (limit && ms > kFreshnessLimitMs) ++round.probes_late;
  }
  round.attempted += round.probes;
  round.failed += round.probes_missing;
}

/// Freshness per second: the q-quantile of each whole second of the
/// rounds' measured windows (those with at least kMinSecondProbes
/// probes), mean over those seconds. A spell of slow probes a few hundred
/// milliseconds long, which comes and goes with the machine's other
/// load, moves it by the seconds it covers, not by its share of the
/// probes. The mean varied less from run to run than the median of the
/// seconds (perfbench/README.md).
constexpr std::size_t kMinSecondProbes = 100;

double freshness_per_second(const std::vector<const Round*>& rounds, double q) {
  std::vector<double> seconds;
  for (const Round* r : rounds) {
    for (const auto& [second, ms] : r->freshness_by_second) {
      if (ms.size() >= kMinSecondProbes) seconds.push_back(quantile(ms, q));
    }
  }
  return mean(seconds);
}

/// Traced: the freshness stage budget and the spans of the probes among
/// events [first, last): those freshness covers.
void collect_stages(const Recorder& rec, const pb::Fleet& fleet, std::size_t first,
                    std::size_t last, bool routed, Round& round) {
  std::uint64_t span_id = 0;
  for (std::size_t probe = 0; probe < fleet.probe_events.size(); ++probe) {
    const std::size_t event = fleet.probe_events[probe];
    if (event < first) continue;
    if (event >= last) break;
    const double due = rec.due.get(probe);
    const double pub = rec.publish_end.get(probe);
    const double deq = rec.dequeued.get(probe);
    const double d0 = rec.dispatch_start.get(event + 1);
    const double d1 = rec.dispatch_end.get(probe);
    const double vis = rec.visible.get(probe);
    const double ack = rec.acked.get(event + 1);
    if (due == 0 || pub == 0 || deq == 0 || d0 == 0 || d1 == 0 || vis == 0) continue;
    round.stages_ms["1.publish"].push_back((pub - due) * 1e3);
    round.stages_ms["2.bus"].push_back((deq - pub) * 1e3);
    round.stages_ms["3.parse"].push_back((d0 - deq) * 1e3);
    round.stages_ms["4.dispatch"].push_back((d1 - d0) * 1e3);
    round.stages_ms[routed ? "5.remote_commit_ack" : "5.apply_commit_view"].push_back(
        (vis - d1) * 1e3);
    if (ack > 0) round.stages_ms["ack"].push_back((ack - d0) * 1e3);
    const std::uint64_t trace = probe + 1;
    const std::uint64_t root = ++span_id;
    round.spans.push_back({"probe", "pipeline", trace, root, 0, due, vis});
    round.spans.push_back({"net.publish", "net", trace, ++span_id, root, due, pub});
    round.spans.push_back({"bus.residence", "bus", trace, ++span_id, root, pub, deq});
    round.spans.push_back({"loader.parse", "loader", trace, ++span_id, root, deq, d0});
    round.spans.push_back({routed ? "cluster.dispatch" : "loader.dispatch",
                           routed ? "cluster" : "loader", trace, ++span_id, root, d0, d1});
    round.spans.push_back({routed ? "cluster.remote_commit" : "loader.apply_commit",
                           routed ? "cluster" : "loader", trace, ++span_id, root, d1, vis});
  }
}

/// Traced: layer metrics read from public counters and the recorder.
void collect_layers(Pipeline& p, const Recorder& rec, const pb::Fleet& fleet,
                    std::size_t published,
                    const std::vector<bus::QueueStats>& samples,
                    const std::vector<double>& ack_ms, Round& round) {
  auto& L = round.layer;
  L["freshness_p50_ms"] = quantile(round.freshness_ms, 0.5);
  L["freshness_p99_ms"] = freshness_per_second({&round}, 0.99);
  L["gen_lag_p99_ms"] = quantile(round.gen_lag_ms, 0.99);
  L["freshness.late_probes"] = static_cast<double>(round.probes_late);
  L["net.publish_us_p50"] = quantile(rec.publish_ms, 0.5) * 1e3;
  L["net.publish_us_p99"] = quantile(rec.publish_ms, 0.99) * 1e3;
  double depth_sum = 0.0, depth_max = 0.0, unacked_max = 0.0;
  for (const auto& s : samples) {
    depth_sum += static_cast<double>(s.depth);
    depth_max = std::max(depth_max, static_cast<double>(s.depth));
    unacked_max = std::max(unacked_max, static_cast<double>(s.unacked));
  }
  L["bus.depth_max"] = depth_max;
  L["bus.depth_mean"] = samples.empty() ? 0.0 : depth_sum / static_cast<double>(samples.size());
  L["bus.unacked_max"] = unacked_max;
  L["bus.redelivered"] = static_cast<double>(p.broker().queue_stats(kQueue).redelivered);
  L["loader.get_wait_frac"] =
      rec.window.seconds > 0 ? rec.window.get_wait_s / rec.window.seconds : 0.0;
  L["loader.dispatch_us_p99"] = quantile(rec.dispatch_us, 0.99);
  L["loader.flush_hints"] = static_cast<double>(rec.window.flush_hints);
  L["loader.ack_ms_p50"] = quantile(ack_ms, 0.5);
  L["loader.ack_ms_p99"] = quantile(ack_ms, 0.99);

  std::vector<double> lane_events;
  loader::LoaderStats stats;
  if (auto* loader = p.loader()) {
    for (std::size_t i = 0; i < loader->lane_count(); ++i) {
      lane_events.push_back(static_cast<double>(loader->lane_stats(i).events_seen));
    }
    stats = loader->stats();
  } else if (auto* router = p.router()) {
    std::vector<double> host_events(2, 0.0);
    for (std::size_t i = 0; i < router->shard_count(); ++i) {
      const auto remote = router->remote_stats(i).loader;
      lane_events.push_back(static_cast<double>(remote.events_seen));
      host_events[i / 2] += static_cast<double>(remote.events_seen);
      stats.merge(remote);
    }
    const double mean = (host_events[0] + host_events[1]) / 2;
    L["cluster.host_skew"] = mean > 0 ? std::max(host_events[0], host_events[1]) / mean - 1 : 0;
    L["cluster.dispatch_us_p99"] = L["loader.dispatch_us_p99"];
    L["cluster.ack_ms_p50"] = L["loader.ack_ms_p50"];
    L["cluster.ack_ms_p99"] = L["loader.ack_ms_p99"];
    L["cluster.finish_s"] = rec.finish_s;
    double failovers = 0;
    for (const auto& placement : router->status()) failovers += placement.failed_over;
    L["cluster.failovers"] = failovers;
  }
  double lane_sum = 0, lane_max = 0;
  for (const double e : lane_events) {
    lane_sum += e;
    lane_max = std::max(lane_max, e);
  }
  L["loader.lane_skew"] =
      lane_sum > 0 ? lane_max / (lane_sum / static_cast<double>(lane_events.size())) - 1 : 0;
  L["loader.events_invalid"] = static_cast<double>(stats.events_invalid);
  L["loader.events_deferred"] = static_cast<double>(stats.events_deferred);

  if (!p.commit_histograms().empty()) {
    telemetry::Histogram::Snapshot merged;
    for (const auto& h : p.commit_histograms()) {
      const auto s = h->snapshot();
      if (merged.bounds.empty()) {
        merged = s;
        continue;
      }
      merged.count += s.count;
      merged.sum += s.sum;
      for (std::size_t b = 0; b < s.buckets.size(); ++b) merged.buckets[b] += s.buckets[b];
    }
    const pb::RowCounts rows = fleet.expected(published);
    double inserted = 0;
    for (const auto r : rows.rows) inserted += static_cast<double>(r);
    L["db.commits"] = static_cast<double>(merged.count);
    L["db.rows_per_commit"] =
        merged.count > 0 ? inserted / static_cast<double>(merged.count) : 0.0;
    L["db.commit_ms_p99"] = merged.quantile(0.99) * 1e3;
  }
  L["views.updates"] = static_cast<double>(rec.window.view_updates);
}

/// Query-cache counter deltas over a read phase.
struct CounterWindow {
  CounterWindow() : hits_(hits().value()), misses_(misses().value()) {}
  [[nodiscard]] double hit_ratio() const {
    const double h = static_cast<double>(hits().value() - hits_);
    const double m = static_cast<double>(misses().value() - misses_);
    return h + m > 0 ? h / (h + m) : 0.0;
  }

 private:
  static telemetry::Counter& hits() {
    return telemetry::registry().counter("stampede_query_cache_hits_total");
  }
  static telemetry::Counter& misses() {
    return telemetry::registry().counter("stampede_query_cache_misses_total");
  }
  std::uint64_t hits_;
  std::uint64_t misses_;
};

void record_queries(const QueryLog& log, const CounterWindow& counters, Round& round) {
  auto& L = round.layer;
  L["query.wf_us_p50"] = quantile(log.us[kWf], 0.5);
  L["query.wf_us_p99"] = quantile(log.us[kWf], 0.99);
  L["query.fleet_us_p50"] = quantile(log.us[kFleet], 0.5);
  L["query.fleet_us_p99"] = quantile(log.us[kFleet], 0.99);
  std::vector<double> ms;
  for (int k = 0; k < 2; ++k) {
    for (const double us : log.us[k]) ms.push_back(us / 1e3);
  }
  L["query_p99_ms"] = quantile(ms, 0.99);
  L["query.cache_hit_ratio"] = counters.hit_ratio();
}

/// Samples the broker queue every 5 ms while alive (traced rounds).
class QueueSampler {
 public:
  QueueSampler(bus::Broker& broker, bool on) {
    if (!on) return;
    thread_ = std::jthread([this, &broker](const std::stop_token& stop) {
      while (!stop.stop_requested()) {
        samples_.push_back(broker.queue_stats(kQueue));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  std::vector<bus::QueueStats> take() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
    return std::move(samples_);
  }

 private:
  std::vector<bus::QueueStats> samples_;
  std::jthread thread_;
};

std::vector<double> ack_latencies(const Recorder& rec, std::size_t published) {
  std::vector<double> out;
  if (!rec.traced) return out;
  out.reserve(published);
  for (std::size_t tag = 1; tag <= published; ++tag) {
    const double a = rec.acked.get(tag);
    const double d = rec.dispatch_start.get(tag);
    if (a > 0 && d > 0) out.push_back((a - d) * 1e3);
  }
  return out;
}

std::vector<std::int64_t> resolve_wf_ids(const query::QueryInterface& q,
                                         const pb::Fleet& fleet, Round& round) {
  std::vector<std::int64_t> ids;
  Gate gate{round};
  for (std::size_t w = 0; w < fleet.main_workflows; ++w) {
    const auto& wf = fleet.workflows[w];
    const auto info = q.workflow_by_uuid(wf.uuid.to_string());
    gate.check(info.has_value(), "workflow " + wf.uuid.to_string() + " not found");
    ids.push_back(info ? info->wf_id : 0);
  }
  return ids;
}

void finish_queries(const QueryLog& log, double wall, Round& round) {
  round.queries = log;
  round.query_wall_s = wall;
  round.attempted += log.issued;
  round.failed += log.errors + log.mismatches;
  round.mismatches += log.mismatches;
}

/// Closed-loop ingest: the main fleet as fast as the pipeline takes it
/// (at most kInFlight events unacked), then wait until every row is
/// visible.
bool closed_loop_ingest(Pipeline& p, Recorder& rec, const pb::Fleet& fleet,
                        Round& round) {
  const std::size_t n = fleet.main_events;
  rec.publish_ms.reserve(fleet.events.size());
  const double cpu0 = cpu_s();
  rec.open_window();
  const double start = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    while (i >= kInFlight + rec.acks.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const double t0 = now_s();
    const auto probe = fleet.events[i].probe;
    if (probe >= 0) rec.due.set(static_cast<std::size_t>(probe), t0);
    p.publish(i);
    const double t1 = now_s();
    rec.publish_ms.push_back((t1 - t0) * 1e3);
    if (rec.traced && probe >= 0) rec.publish_end.set(static_cast<std::size_t>(probe), t1);
  }
  const auto visible = p.wait_visible(n, now_s() + kDrainTimeoutS);
  const double end = visible.value_or(now_s());
  rec.close_window();
  round.events = n;
  round.ingest_s = end - start;
  round.ingest_cpu_s = cpu_s() - cpu0;
  round.attempted += n;
  if (!visible) {
    ++round.failed;
    ++round.mismatches;
    std::fprintf(stderr, "correctness: events not visible within %.0f s\n", kDrainTimeoutS);
  }
  return visible.has_value();
}

/// Events an open loop published: [first, measured) were due in its
/// measured window, which began at `start`, [measured, end) in the
/// cool-down after it.
struct OpenLoop {
  std::size_t measured = 0;
  std::size_t end = 0;
  double start = 0.0;
};

/// Open loop: publishes events from `first` on at `rate`, each when it
/// is due, for `seconds` plus kCoolDownS (or until the fleet runs out),
/// recording how late each publish ran. `on_publish(i)` follows each
/// publish.
template <typename OnPublish>
OpenLoop open_loop(Pipeline& p, Recorder& rec, const pb::Fleet& fleet, std::size_t first,
                   double rate, double seconds, Round& round, const OnPublish& on_publish) {
  const std::size_t n = fleet.events.size();
  const double start = now_s() + 0.01;
  const double end_due = start + seconds + kCoolDownS;
  const auto due_of = [&](std::size_t i) {
    return start + static_cast<double>(i - first) / rate;
  };
  rec.publish_ms.reserve(rec.publish_ms.size() +
                         static_cast<std::size_t>(rate * (seconds + kCoolDownS)) + 16);
  std::size_t i = first;
  while (i < n && due_of(i) < end_due) {
    const double t = now_s();
    if (t < due_of(i)) std::this_thread::sleep_for(std::chrono::duration<double>(due_of(i) - t));
    const double now = now_s();
    while (i < n) {
      const double due = due_of(i);
      if (due > now || due >= end_due) break;
      const double t0 = now_s();
      round.gen_lag_ms.push_back((t0 - due) * 1e3);
      const auto probe = fleet.events[i].probe;
      if (probe >= 0) rec.due.set(static_cast<std::size_t>(probe), due);
      p.publish(i);
      const double t1 = now_s();
      rec.publish_ms.push_back((t1 - t0) * 1e3);
      if (rec.traced && probe >= 0) rec.publish_end.set(static_cast<std::size_t>(probe), t1);
      on_publish(i);
      ++i;
    }
  }
  // A fleet that ran out early still leaves its last kCoolDownS of
  // events unmeasured.
  const auto window_events = static_cast<std::size_t>(std::ceil(rate * seconds));
  const auto cool_events = static_cast<std::size_t>(std::ceil(rate * kCoolDownS));
  return {std::min(first + window_events, i - std::min(i - first, cool_events)), i, start};
}

/// Waits until the first `published` events are visible; a timeout is a
/// failed op.
void drain(Pipeline& p, std::size_t published, Round& round) {
  if (p.wait_visible(published, now_s() + kDrainTimeoutS)) return;
  ++round.failed;
  ++round.mismatches;
  std::fprintf(stderr, "correctness: events not visible within %.0f s\n", kDrainTimeoutS);
}

/// One set-up and measurement on fleet `fleet_index`; `round_start` is
/// when its set-up began. With `setup_only` the round stops (and tears
/// down) once set up.
Round run_round(const Context& ctx, std::size_t index, std::size_t fleet_index,
                bool traced, double round_start, bool setup_only = false) {
  Round round;
  const double budget = ctx.seconds / static_cast<double>(kRounds);
  const pb::Fleet fleet = pb::generate_fleet(fleet_options(ctx.seed, fleet_index));
  const bool routed = ctx.workload == Workload::kRoutedIngest;
  const bool live = ctx.workload == Workload::kLiveMonitor;
  Recorder rec{fleet, traced};
  const StateIndex states{fleet};
  auto p = std::make_unique<Pipeline>(ctx.work_dir / ("round" + std::to_string(index)),
                                       fleet, rec, routed);
  std::size_t published = 0;
  // Probes among events [open_first, measured) were published open-loop
  // in the measured window and give freshness.
  std::size_t open_first = 0;
  std::size_t measured = 0;
  double window_start = 0.0;
  std::vector<bus::QueueStats> samples;

  round.setup_s = now_s() - round_start;
  if (setup_only) return round;
  QueueSampler sampler{p->broker(), traced};
  if (live) {
    // Open loop at kLiveRate for the round's budget; one closed-loop
    // dashboard reader beside it.
    std::atomic<std::size_t> last_published{0};
    std::atomic<bool> stop_readers{false};
    std::map<std::size_t, std::int64_t> wf_cache;  // Reader thread only.
    QueryLog reader_log;
    double reader_wall = 0.0;
    std::jthread reader([&] {
      auto [log, wall] = run_readers(
          p->query(), 1, budget + kDrainTimeoutS, fleet_index + 1,
          [&](const query::QueryInterface& q, Rand&, std::size_t step, QueryLog& l) {
            const double t0 = now_s();
            if (step % 2 == 0) {
              const std::size_t w =
                  fleet.events[last_published.load(std::memory_order_relaxed)].workflow;
              auto it = wf_cache.find(w);
              if (it == wf_cache.end()) {
                const auto info = q.workflow_by_uuid(fleet.workflows[w].uuid.to_string());
                if (!info) return;  // Plan not visible yet; not a query sample.
                it = wf_cache.emplace(w, info->wf_id).first;
              }
              (void)query::StampedeStatistics{q}.summary(it->second);
              l.us[kWf].push_back((now_s() - t0) * 1e6);
            } else {
              // Jobstates by state over the last kLiveWindowEvents: the
              // literal moves with the stream, so every call scans.
              const std::size_t last = last_published.load(std::memory_order_relaxed);
              const double since =
                  fleet.ts_of(last > kLiveWindowEvents ? last - kLiveWindowEvents : 0);
              (void)q.executor().execute(
                  db::Select{"jobstate"}
                      .where(db::gt("timestamp", db::Value{since}))
                      .group_by({"state"})
                      .count_all("n"));
              l.us[kFleet].push_back((now_s() - t0) * 1e6);
            }
          },
          &stop_readers, kThinkS);
      reader_log = std::move(log);
      reader_wall = wall;
    });
    CounterWindow counters;
    const double cpu0 = cpu_s();
    rec.open_window();
    const double start = now_s();
    const OpenLoop loop =
        open_loop(*p, rec, fleet, 0, kLiveRate, budget, round, [&](std::size_t i) {
          last_published.store(i, std::memory_order_relaxed);
        });
    published = loop.end;
    measured = loop.measured;
    window_start = loop.start;
    drain(*p, published, round);
    rec.close_window();
    round.ingest_s = now_s() - start;
    round.ingest_cpu_s = cpu_s() - cpu0;
    stop_readers.store(true);
    reader.join();
    round.events = published;
    round.attempted += published;
    finish_queries(reader_log, reader_wall, round);
    if (traced) record_queries(round.queries, counters, round);
    samples = sampler.take();
  } else {
    // fleet_ingest / routed_ingest: closed-loop ingest of the main fleet,
    // then the rest of the budget the reader runs closed-loop (no think
    // time) over the fresh, unsealed archive while the tail trickles in
    // at kTailRate.
    const bool ok = closed_loop_ingest(*p, rec, fleet, round);
    samples = sampler.take();
    published = fleet.main_events;
    open_first = published;
    if (ok) {
      const auto wf_ids = resolve_wf_ids(p->query(), fleet, round);
      const ReadMix mix{fleet, states, wf_ids, fleet_index + 1};
      const double read_s = std::max(budget - round.ingest_s, budget * kMinReadShare);
      QueryLog reader_log;
      double reader_wall = 0.0;
      CounterWindow counters;
      std::jthread reader([&] {
        auto [log, wall] = run_readers(
            p->query(), 1, read_s, fleet_index + 1,
            [&](const query::QueryInterface& q, Rand& rng, std::size_t step, QueryLog& l) {
              mix.one(q, rng, step, l);
            });
        reader_log = std::move(log);
        reader_wall = wall;
      });
      const OpenLoop loop =
          open_loop(*p, rec, fleet, open_first, kTailRate, read_s, round, [](std::size_t) {});
      published = loop.end;
      measured = loop.measured;
      window_start = loop.start;
      reader.join();
      drain(*p, published, round);
      round.attempted += published - open_first;
      finish_queries(reader_log, reader_wall, round);
      if (traced) record_queries(round.queries, counters, round);
    }
  }
  collect_freshness(rec, fleet, open_first, measured, published, window_start, live, round);
  p->stop_ingest();  // Finishes the sink (Router::finish is timed here);
                     // loader stats are exact only once it finished.
  check_archive(*p, fleet, published, round);
  if (traced) {
    collect_stages(rec, fleet, open_first, measured, routed, round);
    collect_layers(*p, rec, fleet, published, samples, ack_latencies(rec, published),
                   round);
  }
  return round;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The workload's headline cost (higher = worse), for trace overhead.
double headline_cost(Workload w, const Round& r) {
  switch (w) {
    case Workload::kLiveMonitor: return quantile(r.freshness_ms, 0.5);
    default: return r.events > 0 ? r.ingest_s / static_cast<double>(r.events) : 0;
  }
}


/// Rates and CPU are medians over rounds of each round's own value, so
/// one fleet's placement or one slow stretch of the machine cannot decide
/// them alone; the query median pools the rounds' samples; set-up is the
/// median over every set-up of the run.
std::vector<Metric> end_to_end(const std::vector<Round>& rounds,
                               std::vector<double> setup) {
  std::vector<double> eps, qps, cpu, query_ms;
  std::vector<const Round*> all;
  for (const auto& r : rounds) {
    all.push_back(&r);
    setup.push_back(r.setup_s);
    eps.push_back(r.ingest_s > 0 ? static_cast<double>(r.events) / r.ingest_s : 0);
    std::size_t answered = 0;
    for (int k = 0; k < 2; ++k) {
      for (const double us : r.queries.us[k]) query_ms.push_back(us / 1e3);
      answered += r.queries.us[k].size();
    }
    qps.push_back(r.query_wall_s > 0 ? static_cast<double>(answered) / r.query_wall_s : 0);
    cpu.push_back(r.events > 0 ? r.ingest_cpu_s / static_cast<double>(r.events) * 1e6 : 0);
  }
  return {
      {"setup_s", median(setup), "s"},
      {"ingest_eps", median(eps), "events/s"},
      {"freshness_p999_ms", freshness_per_second(all, 0.999), "ms"},
      {"query_p50_ms", quantile(query_ms, 0.5), "ms"},
      {"queries_per_s", median(qps), "1/s"},
      {"cpu_us_per_event", median(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer metrics: medians over the traced rounds.
std::vector<Metric> per_layer(const Context& ctx, const std::vector<Round>& rounds,
                              std::map<std::string, double>& stage_medians) {
  static const std::vector<std::pair<std::string, std::string>> kLayer = {
      {"freshness_p50_ms", "ms"},     {"freshness_p99_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"gen_lag_p99_ms", "ms"},      {"freshness.late_probes", "count"},
      {"net.publish_us_p50", "us"},   {"net.publish_us_p99", "us"},
      {"bus.depth_max", "count"},     {"bus.depth_mean", "count"},
      {"bus.unacked_max", "count"},   {"bus.redelivered", "count"},
      {"loader.get_wait_frac", "ratio"}, {"loader.dispatch_us_p99", "us"},
      {"loader.flush_hints", "count"}, {"loader.ack_ms_p50", "ms"},
      {"loader.ack_ms_p99", "ms"},    {"loader.lane_skew", "ratio"},
      {"loader.events_invalid", "count"}, {"loader.events_deferred", "count"},
      {"db.commits", "count"},        {"db.rows_per_commit", "rows"},
      {"db.commit_ms_p99", "ms"},
      {"query.wf_us_p50", "us"},      {"query.wf_us_p99", "us"},
      {"query.fleet_us_p50", "us"},   {"query.fleet_us_p99", "us"},
      {"query.cache_hit_ratio", "ratio"}, {"views.updates", "count"},
      {"cluster.dispatch_us_p99", "us"}, {"cluster.ack_ms_p50", "ms"},
      {"cluster.ack_ms_p99", "ms"},   {"cluster.finish_s", "s"},
      {"cluster.host_skew", "ratio"}, {"cluster.failovers", "count"},
  };
  std::vector<Metric> out;
  std::vector<const Round*> traced;
  for (std::size_t i = 1; i < rounds.size(); ++i) traced.push_back(&rounds[i]);
  for (const auto& [name, unit] : kLayer) {
    std::vector<double> values;
    for (const Round* r : traced) {
      const auto it = r->layer.find(name);
      values.push_back(it == r->layer.end() ? 0.0 : it->second);
    }
    out.push_back({name, median(values), unit});
  }
  // Round 0 runs untraced; the rest traced.
  // Rounds 0 (untraced) and 1 (traced) load the same fleet.
  const double base = headline_cost(ctx.workload, rounds[0]);
  out.push_back({"trace.overhead_pct",
                 base > 0 ? (headline_cost(ctx.workload, rounds[1]) / base - 1.0) * 100.0
                          : 0.0,
                 "%"});
  std::map<std::string, std::vector<double>> stages;
  std::vector<double> fresh;
  for (const Round* r : traced) {
    for (const auto& [stage, v] : r->stages_ms) append(stages[stage], v);
    append(fresh, r->freshness_ms);
  }
  double budget = 0;
  for (const auto& [stage, v] : stages) {
    stage_medians[stage] = quantile(v, 0.5);
    if (stage != "ack") budget += stage_medians[stage];
  }
  const double fresh_p50 = quantile(fresh, 0.5);
  out.push_back({"budget.coverage", fresh_p50 > 0 ? budget / fresh_p50 : 0.0, "ratio"});
  return out;
}

/// Self time per layer: span duration minus the part its children cover.
std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::pair<double, double>>> kids;
  for (const auto& s : spans) {
    if (s.parent != 0) kids[{s.trace, s.parent}].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    double covered = 0;
    auto it = kids.find({s.trace, s.id});
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.layer] += (s.end - s.start - covered) * 1e3;
  }
  return out;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetIngest: return "fleet_ingest";
    case Workload::kLiveMonitor: return "live_monitor";
    case Workload::kRoutedIngest: return "routed_ingest";
  }
  return "?";
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload "
               "fleet_ingest|live_monitor|routed_ingest --seed N "
               "--seconds S --trace 0|1 [--rev ID] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = now_s();
  Context ctx{Workload::kFleetIngest, 1, 10.0, false, {}};
  std::string rev = "unknown";
  fs::path out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (value == "fleet_ingest") ctx.workload = Workload::kFleetIngest;
      else if (value == "live_monitor") ctx.workload = Workload::kLiveMonitor;
      else if (value == "routed_ingest") ctx.workload = Workload::kRoutedIngest;
      else return usage();
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      ctx.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      ctx.traced = value == "1";
    } else if (key == "--rev") {
      rev = value;
    } else if (key == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || ctx.seconds <= 0) return usage();
  const std::string tag = std::string{workload_name(ctx.workload)} + "-seed" +
                          std::to_string(ctx.seed) + (ctx.traced ? "-traced" : "");
  ctx.work_dir = fs::path{".bench_work"} / (tag + "-" + std::to_string(::getpid()));

  std::vector<Round> rounds;
  std::vector<double> extra_setups;
  try {
    double round_start = process_start;
    for (std::size_t i = 0; i < kRounds; ++i) {
      // Each round loads its own fleet, derived from --seed. A traced
      // run instead repeats round 0's fleet traced in round 1 (round 0
      // stays untraced: the trace-overhead base) and traces a second
      // fleet in round 2.
      const std::size_t fleet_index = ctx.traced ? (i == 0 ? 0 : i - 1) : i;
      rounds.push_back(run_round(ctx, i, fleet_index, ctx.traced && i > 0, round_start));
      const Round& r = rounds.back();
      std::fprintf(stderr,
                   "[%s] round %zu: setup %.2fs, %zu events in %.2fs, %zu queries in "
                   "%.2fs, freshness p50/p99/max %.1f/%.1f/%.1f ms over %zu probes, "
                   "%zu over %.0f ms, %zu/%zu failed\n",
                   tag.c_str(), i, r.setup_s, r.events, r.ingest_s, r.queries.issued,
                   r.query_wall_s, quantile(r.freshness_ms, 0.5),
                   quantile(r.freshness_ms, 0.99), quantile(r.freshness_ms, 1.0),
                   r.freshness_ms.size(), r.probes_late, kFreshnessLimitMs, r.failed,
                   r.attempted);
      round_start = now_s();
    }
    for (std::size_t i = kRounds; i < kSetups && !ctx.traced; ++i) {
      extra_setups.push_back(run_round(ctx, i, i % kRounds, false, now_s(), true).setup_s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(ctx.work_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(ctx.work_dir, ec);

  std::size_t attempted = 0, failed = 0, mismatches = 0, late = 0, missing = 0;
  std::vector<double> freshness_pooled;
  for (const auto& r : rounds) {
    append(freshness_pooled, r.freshness_ms);
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
    late += r.probes_late;
    missing += r.probes_missing;
  }
  std::map<std::string, double> stage_medians;
  const std::vector<Metric> metrics =
      ctx.traced ? per_layer(ctx, rounds, stage_medians) : end_to_end(rounds, extra_setups);

  // Run record: metadata, the result and (traced) the stage budget,
  // per-layer self time and spans.
  fs::create_directories(out_dir, ec);
  std::string meta = "{\"workload\": " + json_string(workload_name(ctx.workload)) +
                     ", \"seed\": " + std::to_string(ctx.seed) +
                     ", \"seconds\": " + json_number(ctx.seconds) +
                     ", \"traced\": " + (ctx.traced ? "true" : "false") +
                     ", \"rev\": " + json_string(rev) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"rounds\": " + std::to_string(rounds.size()) +
                     ", \"probes_late\": " + std::to_string(late) +
                     ", \"probes_missing\": " + std::to_string(missing) +
                     ", \"freshness_limit_ms\": " + json_number(kFreshnessLimitMs) +
                     ", \"freshness_p99_pooled_ms\": " +
                     json_number(quantile(freshness_pooled, 0.99)) + "}";
  std::string record = "{\"run\": " + meta + ", \"metrics\": " + metrics_json(metrics);
  if (ctx.traced) {
    std::vector<Span> spans;
    for (const auto& r : rounds) spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    record += ", \"stage_budget_ms\": {";
    bool first = true;
    for (const auto& [stage, ms] : stage_medians) {
      record += (first ? "" : ", ") + json_string(stage) + ": " + json_number(ms);
      first = false;
    }
    record += "}, \"self_time_ms\": {";
    first = true;
    for (const auto& [layer, ms] : self_time_ms(spans)) {
      record += (first ? "" : ", ") + json_string(layer) + ": " + json_number(ms);
      first = false;
    }
    record += "}";
    std::ofstream span_file{out_dir / (tag + "-spans.jsonl")};
    for (const auto& s : spans) {
      span_file << "{\"name\": " << json_string(s.name) << ", \"layer\": "
                << json_string(s.layer) << ", \"trace\": " << s.trace
                << ", \"span\": " << s.id << ", \"parent\": " << s.parent
                << ", \"start\": " << json_number(s.start)
                << ", \"end\": " << json_number(s.end) << "}\n";
    }
    for (const auto& [stage, ms] : stage_medians) {
      std::fprintf(stderr, "[%s] stage %-22s p50 %.3f ms\n", tag.c_str(), stage.c_str(), ms);
    }
  }
  record += "}";
  std::ofstream{out_dir / (tag + ".json")} << record << "\n";

  std::printf("%s\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              mismatches == 0 ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metrics_json(metrics).c_str());
  return 0;
}
