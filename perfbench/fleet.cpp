#include "fleet.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/string_utils.hpp"
#include "common/time_utils.hpp"
#include "netlogger/events.hpp"
#include "netlogger/parser.hpp"
#include "netlogger/record.hpp"

namespace perfbench {
namespace {

namespace ev = stampede::nl::events;
namespace attr = stampede::nl::events::attr;

constexpr double kT0 = 1.6e9;         // 2020-09-13T12:26:40Z
constexpr std::size_t kHostPool = 64;
constexpr std::size_t kMinTasks = 10;
constexpr std::size_t kMaxRetries = 3;
constexpr std::size_t kWaves = 8;      // Workflows start in staggered waves.

/// One event before the fleet-wide merge. `vt` first holds the
/// workflow's own schedule (virtual seconds, which orders its events);
/// the merge then replaces it by the event's share of the workflow's
/// run (see generate_fleet). The body carries a placeholder ts that is
/// patched once the final position (and so its ts) is known.
struct Draft {
  double vt = 0.0;
  std::uint32_t workflow = 0;
  std::uint32_t seq = 0;  // Emission order within the workflow.
  std::int32_t host = -1;  // host.info: index into the host pool.
  FleetEvent event;
};

struct Dag {
  std::vector<std::string> xform;  // Per task.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// WfCommons-style recipes. Task indexes are a topological order.
Dag make_dag(Shape shape, std::size_t n) {
  Dag dag;
  switch (shape) {
    case Shape::kChain:
      dag.xform.assign(n, "stage");
      for (std::uint32_t i = 1; i < n; ++i) dag.edges.emplace_back(i - 1, i);
      break;
    case Shape::kForkJoin: {
      const auto width = static_cast<std::uint32_t>(std::max<std::size_t>(n, 3) - 2);
      dag.xform.push_back("split");
      for (std::uint32_t i = 0; i < width; ++i) dag.xform.push_back("process");
      dag.xform.push_back("join");
      for (std::uint32_t i = 1; i <= width; ++i) {
        dag.edges.emplace_back(0, i);
        dag.edges.emplace_back(i, width + 1);
      }
      break;
    }
    case Shape::kMontage: {
      // mProject(k) → mDiffFit(k, overlapping pairs) → mConcatFit →
      // mBgModel → mBackground(k, also fed by mProject) → mImgtbl →
      // mAdd → mShrink → mJPEG: 3k + 6 tasks.
      const auto k = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, (std::max<std::size_t>(n, 9) - 6) / 3));
      const auto add = [&](const char* name, std::uint32_t count) {
        const auto first = static_cast<std::uint32_t>(dag.xform.size());
        for (std::uint32_t i = 0; i < count; ++i) dag.xform.push_back(name);
        return first;
      };
      const auto project = add("mProject", k);
      const auto diff = add("mDiffFit", k);
      const auto concat = add("mConcatFit", 1);
      const auto bgmodel = add("mBgModel", 1);
      const auto background = add("mBackground", k);
      const auto imgtbl = add("mImgtbl", 1);
      const auto madd = add("mAdd", 1);
      const auto shrink = add("mShrink", 1);
      const auto jpeg = add("mJPEG", 1);
      for (std::uint32_t i = 0; i < k; ++i) {
        dag.edges.emplace_back(project + i, diff + i);
        if (k > 1) dag.edges.emplace_back(project + (i + 1) % k, diff + i);
        dag.edges.emplace_back(diff + i, concat);
      }
      dag.edges.emplace_back(concat, bgmodel);
      for (std::uint32_t i = 0; i < k; ++i) {
        dag.edges.emplace_back(bgmodel, background + i);
        dag.edges.emplace_back(project + i, background + i);
        dag.edges.emplace_back(background + i, imgtbl);
      }
      dag.edges.emplace_back(imgtbl, madd);
      dag.edges.emplace_back(madd, shrink);
      dag.edges.emplace_back(shrink, jpeg);
      break;
    }
  }
  return dag;
}

std::string task_id(std::uint32_t task) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "ID%07u", task + 1);
  return buf;
}

std::string job_id(const Dag& dag, std::uint32_t task) {
  return dag.xform[task] + "_" + task_id(task);
}

/// One BP line, formatted in place the way nl::format_record formats a
/// LogRecord (ts, event, level, then attributes in the order added), with
/// a placeholder ts; building a LogRecord per event was most of the
/// generator's time.
class Line {
 public:
  Line(std::string_view event, std::string_view xwf_id,
       stampede::nl::Level level = stampede::nl::Level::kInfo) {
    static const std::string placeholder = stampede::common::format_iso8601(kT0);
    body_.reserve(256);
    body_ += "ts=";
    body_ += placeholder;
    body_ += " event=";
    append_value(event);
    body_ += " level=";
    body_ += stampede::nl::level_name(level);
    add(attr::kXwfId, xwf_id);
  }
  Line& add(std::string_view key, std::string_view value) {
    body_ += ' ';
    body_ += key;
    body_ += '=';
    append_value(value);
    return *this;
  }
  Line& add(std::string_view key, std::int64_t value) {
    return add(key, std::string_view{std::to_string(value)});
  }
  Line& add(std::string_view key, double value) {
    return add(key, std::string_view{stampede::common::format_fixed(value, 6)});
  }
  std::string take() { return std::move(body_); }

 private:
  void append_value(std::string_view value) {
    const bool plain = !value.empty() && std::none_of(value.begin(), value.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0 || c == '=' || c == '"' ||
             c == '\\';
    });
    if (plain) {
      body_ += value;
    } else {
      body_ += stampede::nl::escape_value(value);
    }
  }

  std::string body_;
};

/// Emits one workflow's drafts (Dagman's event order and attributes).
class WorkflowWriter {
 public:
  WorkflowWriter(std::uint32_t index, WorkflowSpec& spec, Rand& rng,
                 double failure_rate, std::vector<Draft>& out)
      : index_(index), spec_(&spec), rng_(&rng),
        failure_rate_(failure_rate), out_(&out), uuid_(spec.uuid.to_string()) {}

  void write(const Dag& dag) {
    const double start = 0.0;
    const auto n = static_cast<std::uint32_t>(dag.xform.size());
    for (std::uint32_t t = 0; t < n; ++t) {
      task_ids_.push_back(task_id(t));
      job_ids_.push_back(job_id(dag, t));
    }
    char dir[48];
    std::snprintf(dir, sizeof dir, "/submit/run%04u", index_ + 1);
    emit(start, ev::kWfPlan,
         line(ev::kWfPlan)
             .add(attr::kSubmitDir, dir)
             .add(attr::kPlanner, "4.0.1")
             .add(attr::kUser, "bench")
             .add(attr::kDaxLabel, std::string{shape_name(spec_->shape)} + "-" +
                                       std::to_string(n)),
         Table::kWorkflow);
    for (std::uint32_t t = 0; t < n; ++t) {
      emit(start, ev::kTaskInfo,
           line(ev::kTaskInfo)
               .add(attr::kTaskId, task_ids_[t])
               .add(attr::kTransformation, dag.xform[t])
               .add(attr::kType, "compute"),
           Table::kTask);
    }
    for (const auto& [p, c] : dag.edges) {
      emit(start, ev::kTaskEdge,
           line(ev::kTaskEdge)
               .add(attr::kParentTaskId, task_ids_[p])
               .add(attr::kChildTaskId, task_ids_[c]),
           Table::kTaskEdge);
    }
    for (std::uint32_t t = 0; t < n; ++t) {
      emit(start, ev::kJobInfo,
           line(ev::kJobInfo)
               .add(attr::kJobId, job_ids_[t])
               .add(attr::kType, "compute")
               .add(attr::kTransformation, dag.xform[t])
               .add("task_count", std::int64_t{1}),
           Table::kJob);
      emit(start, ev::kMapTaskJob,
           line(ev::kMapTaskJob).add(attr::kTaskId, task_ids_[t]).add(attr::kJobId, job_ids_[t]),
           Table::kNone);
    }
    for (const auto& [p, c] : dag.edges) {
      emit(start, ev::kJobEdge,
           line(ev::kJobEdge)
               .add(attr::kParentJobId, job_ids_[p])
               .add(attr::kChildJobId, job_ids_[c]),
           Table::kJobEdge);
    }
    emit(start, ev::kXwfStart, line(ev::kXwfStart).add(attr::kRestartCount, std::int64_t{0}),
         Table::kWorkflowState);

    std::vector<std::vector<std::uint32_t>> parents(n);
    for (const auto& [p, c] : dag.edges) parents[c].push_back(p);
    std::vector<double> finish(n, start);
    double last = start;
    for (std::uint32_t t = 0; t < n; ++t) {
      double ready = start;
      for (const auto p : parents[t]) ready = std::max(ready, finish[p]);
      const double work = rng_->uniform(5.0, 60.0);
      for (std::size_t attempt = 1;; ++attempt) {
        const bool fails =
            attempt <= kMaxRetries && rng_->chance(failure_rate_);
        ready = run_attempt(dag, t, attempt, ready, work, fails);
        if (!fails) break;
        ++spec_->retries;
      }
      finish[t] = ready;
      last = std::max(last, ready);
    }
    emit(last + 1.0, ev::kXwfEnd,
         line(ev::kXwfEnd)
             .add(attr::kRestartCount, std::int64_t{0})
             .add(attr::kStatus, std::int64_t{0}),
         Table::kWorkflowState);
    spec_->tasks = n;
  }

 private:
  Line line(std::string_view event,
            stampede::nl::Level level = stampede::nl::Level::kInfo) const {
    return Line{event, uuid_, level};
  }

  Line job_line(std::string_view event, std::uint32_t task, std::size_t attempt,
                stampede::nl::Level level = stampede::nl::Level::kInfo) const {
    Line l = line(event, level);
    l.add(attr::kJobInstId, static_cast<std::int64_t>(attempt));
    l.add(attr::kJobId, job_ids_[task]);
    return l;
  }

  /// One job instance; returns when it ended (virtual time).
  double run_attempt(const Dag& dag, std::uint32_t t, std::size_t attempt,
                     double ready, double work, bool fails) {
    const double submit = ready + rng_->uniform(0.5, 2.0);
    const double begin = submit + rng_->uniform(1.0, 10.0);
    const double end = begin + work * rng_->uniform(0.8, 1.2);
    const std::int64_t exitcode = fails ? 1 : 0;
    const std::size_t host = rng_->below(kHostPool);
    char hostname[32];
    std::snprintf(hostname, sizeof hostname, "worker-%03zu.cluster", host);

    emit(submit, ev::kJobInstSubmitStart,
         job_line(ev::kJobInstSubmitStart, t, attempt)
             .add(attr::kSchedId, std::to_string(++sched_seq_) + ".0"),
         Table::kJobInstance, State::kSubmit);
    emit(submit, ev::kJobInstSubmitEnd,
         job_line(ev::kJobInstSubmitEnd, t, attempt).add(attr::kStatus, std::int64_t{0}),
         Table::kNone);
    emit(begin, ev::kJobInstMainStart,
         job_line(ev::kJobInstMainStart, t, attempt).add(attr::kSite, "condorpool"),
         Table::kNone, State::kExecute);
    // Whether this inserts a host row depends on stream order, so the
    // merge decides (the first host.info per workflow and hostname).
    emit(begin, ev::kJobInstHostInfo,
         job_line(ev::kJobInstHostInfo, t, attempt)
             .add(attr::kHostname, hostname)
             .add(attr::kSite, "condorpool"),
         Table::kNone, State::kNone, false, static_cast<std::int32_t>(host));
    emit(begin, ev::kInvStart,
         job_line(ev::kInvStart, t, attempt).add(attr::kInvId, std::int64_t{1}), Table::kNone);
    emit(end, ev::kInvEnd,
         job_line(ev::kInvEnd, t, attempt)
             .add(attr::kInvId, std::int64_t{1})
             .add(attr::kTaskId, task_ids_[t])
             .add("start_time", kT0 + begin)
             .add(attr::kDur, end - begin)
             .add(attr::kRemoteCpuTime, (end - begin) * 0.9)
             .add(attr::kExitcode, exitcode)
             .add(attr::kTransformation, dag.xform[t])
             .add(attr::kSite, "condorpool"),
         Table::kInvocation);
    emit(end, ev::kJobInstMainTerm,
         job_line(ev::kJobInstMainTerm, t, attempt)
             .add(attr::kStatus, std::int64_t{fails ? -1 : 0}),
         Table::kNone, State::kTerminated);
    Line mend = job_line(ev::kJobInstMainEnd, t, attempt,
                         fails ? stampede::nl::Level::kError : stampede::nl::Level::kInfo);
    mend.add(attr::kExitcode, exitcode).add(attr::kSite, "condorpool");
    if (fails) mend.add(attr::kStdErr, "task exited with status 1");
    emit(end, ev::kJobInstMainEnd, mend, Table::kNone,
         fails ? State::kFailure : State::kSuccess, /*probe=*/!fails);
    return end;
  }

  void emit(double vt, std::string_view event, Line& line, Table table,
            State state = State::kNone, bool probe = false, std::int32_t host = -1) {
    Draft d;
    d.vt = vt;
    d.workflow = index_;
    d.seq = seq_++;
    d.host = host;
    d.event.routing_key = event;
    d.event.body = line.take();
    d.event.workflow = index_;
    d.event.table = table;
    d.event.state = state;
    d.event.probe = probe ? 0 : -1;  // Numbered after the merge.
    out_->push_back(std::move(d));
  }
  void emit(double vt, std::string_view event, Line&& line, Table table,
            State state = State::kNone, bool probe = false, std::int32_t host = -1) {
    emit(vt, event, line, table, state, probe, host);
  }

  std::uint32_t index_;
  WorkflowSpec* spec_;
  Rand* rng_;
  double failure_rate_;
  std::vector<Draft>* out_;
  std::string uuid_;
  std::vector<std::string> task_ids_;  // Per task, formatted once.
  std::vector<std::string> job_ids_;
  std::uint32_t seq_ = 0;
  std::uint64_t sched_seq_ = 0;
};

}  // namespace

std::string_view shape_name(Shape shape) {
  switch (shape) {
    case Shape::kChain: return "chain";
    case Shape::kForkJoin: return "forkjoin";
    case Shape::kMontage: return "montage";
  }
  return "?";
}

RowCounts Fleet::expected(std::size_t n) const {
  RowCounts counts;
  n = std::min(n, events.size());
  for (std::size_t i = 0; i < n; ++i) {
    const FleetEvent& e = events[i];
    if (e.table != Table::kNone) {
      ++counts.rows[static_cast<std::size_t>(e.table)];
    }
    if (e.state != State::kNone) {
      ++counts.rows[static_cast<std::size_t>(Table::kJobState)];
      ++counts.states[static_cast<std::size_t>(e.state)];
    }
  }
  return counts;
}

std::int64_t Fleet::event_at(double ts) const {
  const auto i = std::llround((ts - t0) / kTick);
  return i >= 0 && static_cast<std::size_t>(i) < events.size() ? i : -1;
}

namespace {

/// Task counts of one group, largest first: `classes` log-spaced sizes
/// from kMinTasks to max_tasks, class c holding about
/// smallest_count * kMinTasks / size_c workflows.
std::vector<std::size_t> size_ladder(std::size_t max_tasks, std::size_t classes,
                                     std::size_t smallest_count) {
  std::vector<std::size_t> sizes;
  const double min = static_cast<double>(kMinTasks);
  const double ratio = static_cast<double>(max_tasks) / min;
  for (std::size_t c = classes; c-- > 0;) {
    const double x =
        classes == 1 ? 1.0 : static_cast<double>(c) / static_cast<double>(classes - 1);
    const double size = std::round(min * std::pow(ratio, x));
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(smallest_count) * min / size)));
    sizes.insert(sizes.end(), count, static_cast<std::size_t>(size));
  }
  return sizes;
}

/// Generates one group of workflows and appends its interleaved events
/// to the fleet.
void append_group(Fleet& fleet, const std::vector<std::size_t>& sizes, Rand& rng,
                  stampede::common::UuidGenerator& uuids, double failure_rate) {
  const std::size_t base = fleet.workflows.size();
  const std::size_t n = sizes.size();
  fleet.workflows.resize(base + n);

  // Interleaving. Each workflow's events keep its own schedule's order
  // and are spread at one common rate over group time [0, 1): the
  // largest workflow spans all of it, a workflow with a tenth of its
  // events a tenth of it. So at any point every live workflow adds
  // events equally fast, and no single workflow (nor the lane it is
  // routed to) dominates a stretch of the stream more than its size
  // share. Workflow w starts in wave w mod kWaves, at a random offset
  // inside that wave's slice of the room it has.
  std::vector<Draft> drafts;
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t w = 0; w < n; ++w) {
    WorkflowSpec& spec = fleet.workflows[base + w];
    spec.uuid = uuids.next();
    spec.shape = static_cast<Shape>((w + 2) % 3);
    spec.wave = static_cast<std::uint32_t>(w % kWaves);
    first[w] = drafts.size();
    WorkflowWriter writer{static_cast<std::uint32_t>(base + w), spec, rng, failure_rate,
                          drafts};
    writer.write(make_dag(spec.shape, sizes[w]));
    std::stable_sort(drafts.begin() + static_cast<std::ptrdiff_t>(first[w]), drafts.end(),
                     [](const Draft& a, const Draft& b) { return a.vt < b.vt; });
  }
  first[n] = drafts.size();
  std::size_t most = 1;
  for (std::size_t w = 0; w < n; ++w) most = std::max(most, first[w + 1] - first[w]);
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t count = first[w + 1] - first[w];
    const double span = static_cast<double>(count) / static_cast<double>(most);
    const double start = (fleet.workflows[base + w].wave + rng.unit()) /
                         static_cast<double>(kWaves) * (1.0 - span);
    for (std::size_t k = 0; k < count; ++k) {
      drafts[first[w] + k].vt = start + span * static_cast<double>(k) /
                                            static_cast<double>(count);
    }
  }

  // Merge the workflows by group time; ties keep each workflow's own
  // order.
  std::vector<std::uint32_t> order(drafts.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Draft& x = drafts[a];
    const Draft& y = drafts[b];
    if (x.vt != y.vt) return x.vt < y.vt;
    if (x.workflow != y.workflow) return x.workflow < y.workflow;
    return x.seq < y.seq;
  });
  fleet.events.reserve(fleet.events.size() + drafts.size());
  std::vector<std::vector<bool>> host_seen(n, std::vector<bool>(kHostPool, false));
  for (const auto i : order) {
    FleetEvent e = std::move(drafts[i].event);
    if (const auto host = drafts[i].host; host >= 0) {
      std::vector<bool>& seen = host_seen[e.workflow - base];
      if (!seen[static_cast<std::size_t>(host)]) {
        seen[static_cast<std::size_t>(host)] = true;
        e.table = Table::kHost;
      }
    }
    const std::size_t index = fleet.events.size();
    // Patch the placeholder timestamp: "ts=" + fixed-width ISO 8601.
    const std::string ts = stampede::common::format_iso8601(fleet.ts_of(index));
    if (e.body.compare(0, 3, "ts=") != 0 || e.body.size() < 3 + ts.size() ||
        e.body[3 + ts.size()] != ' ') {
      throw std::logic_error("fleet: unexpected BP timestamp layout");
    }
    std::memcpy(e.body.data() + 3, ts.data(), ts.size());
    if (e.probe >= 0) {
      e.probe = static_cast<std::int32_t>(fleet.probe_events.size());
      fleet.probe_events.push_back(index);
    }
    fleet.events.push_back(std::move(e));
  }
}

}  // namespace

Fleet generate_fleet(const FleetOptions& options) {
  if (options.size_classes == 0 || options.smallest_count == 0 ||
      options.max_tasks < kMinTasks ||
      (options.tail_smallest_count > 0 &&
       (options.tail_classes == 0 || options.tail_max_tasks < kMinTasks))) {
    throw std::invalid_argument("fleet: bad size options");
  }
  Rand rng{options.seed * 0x2545f4914f6cdd1dULL + 1};
  stampede::common::UuidGenerator uuids{options.identity_seed};
  Fleet fleet;
  fleet.t0 = kT0;
  append_group(fleet,
               size_ladder(options.max_tasks, options.size_classes, options.smallest_count),
               rng, uuids, options.failure_rate);
  fleet.main_workflows = fleet.workflows.size();
  fleet.main_events = fleet.events.size();
  if (options.tail_smallest_count > 0) {
    append_group(fleet,
                 size_ladder(options.tail_max_tasks, options.tail_classes,
                             options.tail_smallest_count),
                 rng, uuids, options.failure_rate);
  }
  return fleet;
}

}  // namespace perfbench
