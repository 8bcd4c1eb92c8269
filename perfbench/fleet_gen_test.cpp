// Checks the benchmark's fleet generator:
//   1. the same seed gives a byte-identical stream (and another seed
//      a different one);
//   2. every shape's events validate with zero yang::stampede_schema()
//      issues;
//   3. a single StampedeLoader loads a sample fleet with zero invalid,
//      unknown or dropped events and exactly the expected row counts
//      per table and jobstate counts per state.
// Exits non-zero when any check fails.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <variant>

#include "db/database.hpp"
#include "db/query.hpp"
#include "fleet.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/parser.hpp"
#include "orm/stampede_tables.hpp"
#include "yang/validator.hpp"

using namespace stampede;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

perfbench::FleetOptions sample_options(std::uint64_t seed) {
  perfbench::FleetOptions options;
  options.seed = seed;
  options.identity_seed = seed;
  options.max_tasks = 300;
  options.size_classes = 4;
  options.smallest_count = 12;
  options.failure_rate = 0.2;  // Enough retries to exercise JOB_FAILURE.
  options.tail_max_tasks = 40;
  options.tail_classes = 2;
  options.tail_smallest_count = 6;
  return options;
}

bool same_stream(const perfbench::Fleet& a, const perfbench::Fleet& b) {
  if (a.events.size() != b.events.size()) return false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].routing_key != b.events[i].routing_key ||
        a.events[i].body != b.events[i].body) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const perfbench::Fleet fleet = perfbench::generate_fleet(sample_options(7));
  check(!fleet.events.empty(), "sample fleet has events");

  // 1. Determinism.
  check(same_stream(fleet, perfbench::generate_fleet(sample_options(7))),
        "same seed gives a byte-identical stream");
  check(!same_stream(fleet, perfbench::generate_fleet(sample_options(8))),
        "another seed gives another stream");

  // 2. Schema validity, per shape.
  std::set<perfbench::Shape> shapes;
  std::size_t issues = 0;
  std::size_t unparsed = 0;
  for (const auto& e : fleet.events) {
    shapes.insert(fleet.workflows[e.workflow].shape);
    const auto parsed = nl::parse_line(e.body);
    const auto* record = std::get_if<nl::LogRecord>(&parsed);
    if (record == nullptr) {
      ++unparsed;
      continue;
    }
    const auto report = yang::stampede_schema().validate(*record);
    if (!report.issues.empty() && issues++ < 5) {
      std::fprintf(stderr, "issue: %s: %s %s\n", e.body.c_str(),
                   report.issues[0].attribute.c_str(),
                   report.issues[0].message.c_str());
    }
    check(record->event() == e.routing_key, "routing key is the event name");
  }
  check(shapes.size() == 3, "sample covers chain, fork-join and Montage");
  check(unparsed == 0, "every body parses as BP");
  check(issues == 0, "zero schema issues (" + std::to_string(issues) + ")");

  // 3. One loader, exact row counts.
  db::Database database;
  orm::create_stampede_schema(database);
  loader::StampedeLoader loader{database};
  for (const auto& e : fleet.events) {
    const auto parsed = nl::parse_line(e.body);
    if (const auto* record = std::get_if<nl::LogRecord>(&parsed)) {
      loader.process(*record);
    }
  }
  loader.finish();
  const auto& stats = loader.stats();
  check(stats.events_invalid == 0, "zero invalid events");
  check(stats.events_unknown == 0, "zero unknown events");
  check(stats.events_dropped == 0, "zero dropped events");
  check(stats.events_seen == fleet.events.size(), "every event seen");

  const perfbench::RowCounts want = fleet.expected(fleet.events.size());
  for (std::size_t t = 0; t < perfbench::kTableCount; ++t) {
    const std::string table{perfbench::kTableNames[t]};
    const auto got = database.row_count(table);
    check(got == want.rows[t], table + ": " + std::to_string(got) +
                                   " rows, expected " +
                                   std::to_string(want.rows[t]));
  }
  const auto by_state = database.execute(
      db::Select{"jobstate"}.group_by({"state"}).count_all("n"));
  for (std::size_t s = 0; s < perfbench::kStateCount; ++s) {
    std::int64_t got = 0;
    for (std::size_t r = 0; r < by_state.size(); ++r) {
      if (by_state.at(r, "state").as_text() == perfbench::kStateNames[s]) {
        got = by_state.at(r, "n").as_int();
      }
    }
    check(static_cast<std::uint64_t>(got) == want.states[s],
          std::string{perfbench::kStateNames[s]} + ": " + std::to_string(got) +
              " jobstates, expected " + std::to_string(want.states[s]));
  }
  check(want.states[static_cast<std::size_t>(perfbench::State::kFailure)] > 0,
        "sample includes failed, retried job instances");

  // The tail follows the main fleet: main events belong to main
  // workflows, tail events to tail workflows.
  check(fleet.main_workflows > 0 && fleet.main_workflows < fleet.workflows.size() &&
            fleet.main_events > 0 && fleet.main_events < fleet.events.size(),
        "sample has a main fleet and a tail");
  std::size_t misplaced = 0;
  for (std::size_t i = 0; i < fleet.events.size(); ++i) {
    const bool main_event = i < fleet.main_events;
    const bool main_workflow = fleet.events[i].workflow < fleet.main_workflows;
    if (main_event != main_workflow) ++misplaced;
  }
  check(misplaced == 0, "tail events come after every main event");

  // Probes: one per job, each a JOB_SUCCESS main.end.
  std::size_t jobs = 0;
  for (const auto& wf : fleet.workflows) jobs += wf.tasks;
  check(fleet.probe_events.size() == jobs, "one probe per job");

  if (failures == 0) {
    std::printf("fleet_gen_test: ok (%zu events, %zu workflows)\n",
                fleet.events.size(), fleet.workflows.size());
    return EXIT_SUCCESS;
  }
  return EXIT_FAILURE;
}
