#pragma once
// Seeded workflow-fleet generator for the pipeline benchmark.
//
// Produces the BP event stream a fleet of Pegasus-planned workflows
// would publish — the event sequence and attributes pegasus::Dagman
// emits (plan, abstract + executable workflow, xwf.start, per attempt
// submit → main.start → host.info → inv.start/end → main.term/end,
// xwf.end) — without running any simulator. Shapes follow WfCommons'
// recipes (chain, fork-join, Montage-like); sizes are log-spread from 10
// tasks to FleetOptions::max_tasks; about failure_rate of job instances
// fail and are retried. A tail of small workflows follows the main fleet
// in the stream, for an open-loop trickle after a closed-loop ingest.
//
// Everything is decided by the seed: the same options give a
// byte-identical stream. Alongside the messages the fleet carries what
// the loader must make of them — rows per table, jobstate rows per state
// and per-workflow counts — so the benchmark can check visibility and
// answers without consulting the program under test.
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/uuid.hpp"

namespace perfbench {

/// splitmix64: portable, so a seed means the same fleet on every
/// platform and standard library (std::*_distribution is not).
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t state_;
};

enum class Shape : std::uint8_t { kChain, kForkJoin, kMontage };

[[nodiscard]] std::string_view shape_name(Shape shape);

/// Archive tables the loader fills (schema_info excluded: one row per
/// shard, written at archive creation).
enum class Table : std::uint8_t {
  kWorkflow,
  kWorkflowState,
  kHost,
  kTask,
  kTaskEdge,
  kJob,
  kJobEdge,
  kJobInstance,
  kJobState,
  kInvocation,
  kNone,
};
inline constexpr std::size_t kTableCount = 10;
inline constexpr std::array<std::string_view, kTableCount> kTableNames = {
    "workflow", "workflowstate", "host",         "task",     "task_edge",
    "job",      "job_edge",      "job_instance", "jobstate", "invocation"};

/// Jobstate values the fleet produces.
enum class State : std::uint8_t {
  kSubmit,
  kExecute,
  kTerminated,
  kSuccess,
  kFailure,
  kNone,
};
inline constexpr std::size_t kStateCount = 5;
inline constexpr std::array<std::string_view, kStateCount> kStateNames = {
    "SUBMIT", "EXECUTE", "JOB_TERMINATED", "JOB_SUCCESS", "JOB_FAILURE"};

struct FleetOptions {
  /// Draws run times, hosts, failures and start offsets.
  std::uint64_t seed = 1;
  /// Draws the workflow UUIDs — and with them the shard each workflow
  /// is routed to, by hash. Kept apart from `seed` so that runs with
  /// different seeds can share a shard placement.
  std::uint64_t identity_seed = 1;
  /// Sizes: `size_classes` log-spaced task counts from 10 to max_tasks;
  /// class c holds round(smallest_count * 10 / size_c) workflows (at
  /// least one), so every class carries about the same number of tasks.
  /// Shapes cycle Montage, chain, fork-join down the size ranks. Sizes
  /// and shapes do not depend on either seed.
  std::size_t max_tasks = 2000;
  std::size_t size_classes = 8;
  std::size_t smallest_count = 150;
  /// The tail, sized the same way: tail_classes log-spaced task counts
  /// from 10 to tail_max_tasks, the smallest class tail_smallest_count
  /// strong (0: no tail). Its events come after every main event.
  std::size_t tail_max_tasks = 100;
  std::size_t tail_classes = 4;
  std::size_t tail_smallest_count = 100;
  /// A failed job instance is retried; the fourth attempt always
  /// succeeds, so every workflow completes.
  double failure_rate = 0.05;
};

/// One pre-formatted bus message plus what loading it must produce.
struct FleetEvent {
  std::string_view routing_key;  ///< The BP event name (static storage).
  std::string body;              ///< The BP line.
  std::uint32_t workflow = 0;    ///< Index into Fleet::workflows.
  Table table = Table::kNone;    ///< Row this event inserts (besides jobstate).
  State state = State::kNone;    ///< Jobstate row this event inserts.
  /// Index into Fleet::probe_events when this event is the terminal
  /// jobstate (main.end of the last attempt) of a job; -1 otherwise.
  std::int32_t probe = -1;
};

struct WorkflowSpec {
  stampede::common::Uuid uuid;
  Shape shape = Shape::kChain;
  std::uint32_t tasks = 0;    ///< Tasks == jobs (one job per task).
  std::uint32_t retries = 0;  ///< Failed job instances, each retried.
  std::uint32_t wave = 0;
};

struct RowCounts {
  std::array<std::uint64_t, kTableCount> rows{};
  std::array<std::uint64_t, kStateCount> states{};
  friend bool operator==(const RowCounts&, const RowCounts&) = default;
};

struct Fleet {
  std::vector<WorkflowSpec> workflows;
  std::vector<FleetEvent> events;
  /// The main fleet is workflows [0, main_workflows) and events
  /// [0, main_events); the tail is the rest.
  std::size_t main_workflows = 0;
  std::size_t main_events = 0;
  std::vector<std::size_t> probe_events;  ///< Event index of each probe.
  /// Event i carries ts = t0 + i * kTick: timestamps are unique, so a
  /// row's timestamp identifies the event that wrote it.
  double t0 = 0.0;
  static constexpr double kTick = 1e-3;

  /// Rows and jobstates the first `n` events produce.
  [[nodiscard]] RowCounts expected(std::size_t n) const;
  /// Event index whose ts is `ts` (the inverse of the tick rule), or -1.
  [[nodiscard]] std::int64_t event_at(double ts) const;
  [[nodiscard]] double ts_of(std::size_t event) const {
    return t0 + static_cast<double>(event) * kTick;
  }
};

[[nodiscard]] Fleet generate_fleet(const FleetOptions& options);

}  // namespace perfbench
