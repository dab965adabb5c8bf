// Six-figure scale grid: streamed trace -> sharded plan -> schedule.
//
// Each point streams its trace through workload::TraceStream (no
// materialized spec vector), profiles the exact time table, and plans the
// instance with the two-level hierarchical planner, serial and pooled. The
// serial and pooled plans must be bit-identical (canonical-order merge),
// the serial plan must validate structurally, and the bench reports
// per-stage wall-clock plus the process peak RSS so a regression that
// trades time for memory still shows up in the baseline. The full grid
// tops out at 100k jobs x 8192 GPUs — the six-figure point the
// allocation-churn work targets; no flat plan is attempted there (the flat
// planner's masked rows alone would be Ω(J·G); bench_shard_scale measures
// the sharded-over-flat gap on sizes where flat is affordable).
//
// Emits machine-readable BENCH_scale.json which
// scripts/check_bench_regression.py gates in CI: merge bit-identity and
// schedule validity always; the six-figure completion check in full mode
// only. `--quick` shrinks the grid for smoke runs; `--json <path>`
// overrides the output location.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/resource.hpp"
#include "shard/hierarchical_planner.hpp"
#include "workload/trace.hpp"

namespace {

using namespace hare;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------

struct ScalePoint {
  std::size_t jobs = 0;
  std::size_t gpus = 0;
  std::size_t shards = 0;
  std::size_t machines_per_domain = 0;  ///< 8-GPU machines per domain
};

struct ScaleRow {
  ScalePoint point;
  std::size_t workers = 1;
  std::size_t tasks = 0;
  double stream_ms = 0.0;         ///< trace streamed into the job set
  double profile_ms = 0.0;        ///< exact time table + aggregate cache
  std::size_t profile_rows = 0;   ///< distinct job shapes actually profiled
  double plan_serial_ms = 0.0;    ///< sharded plan, fan-out forced serial
  double plan_parallel_ms = 0.0;  ///< sharded plan over the worker pool
  double peak_rss_mb = 0.0;       ///< process peak RSS after this point
  std::size_t migrated_jobs = 0;
  double imbalance = 0.0;
  bool merge_identical = false;
  bool valid = false;
};

bool schedules_identical(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences && a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

ScaleRow run_scale_point(const ScalePoint& point) {
  ScaleRow row;
  row.point = point;
  row.workers = std::min(common::default_worker_count(), point.shards);
  const std::uint64_t seed = 6100 + point.jobs;

  std::cout << "scale " << point.jobs << " jobs x " << point.gpus
            << " gpus, " << point.shards << " shards ... " << std::flush;

  const cluster::Cluster cluster = cluster::make_simulation_cluster(
      point.gpus, 25.0, 8, point.machines_per_domain);

  workload::TraceConfig config;
  config.job_count = point.jobs;
  config.base_arrival_rate = 0.5;
  // Short training runs keep the task count proportional to the job count
  // (the bench scales the *instance*, not per-job round counts).
  config.rounds_scale_min = 0.02;
  config.rounds_scale_max = 0.08;

  auto start = Clock::now();
  workload::TraceStream stream(seed, config);
  workload::JobSet jobs;
  while (!stream.exhausted()) jobs.add_job(stream.next());
  row.stream_ms = ms_since(start);
  row.tasks = jobs.task_count();
  std::cout << row.tasks << " tasks\n";

  start = Clock::now();
  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  const profiler::TimeTable times = profiler.exact(jobs, cluster);
  times.precompute();  // charge the shared aggregate cache to profiling
  row.profile_ms = ms_since(start);
  row.profile_rows = profiler.last_rows_computed();

  const sched::SchedulerInput input{cluster, jobs, times};

  // Interleaved best-of-N plan timing: the serial and pooled plans
  // alternate inside one rep loop, so transient machine noise (page-cache
  // churn, a background task) hits both modes alike instead of biasing
  // whichever ran second; the minimum over reps is the reported number.
  // Small points repeat until each mode has spent kMinPlanMs planning (at
  // least kMinPlanReps reps, at most kMaxPlanReps), so a millisecond-scale
  // point gets enough samples for its minimum to settle.
  // Reusing one planner object per mode across reps also exercises the
  // worker-scratch reuse path the planner is designed around.
  shard::ShardPlannerConfig serial_config;
  serial_config.shards = point.shards;
  serial_config.serial = true;
  shard::HierarchicalPlanner serial_planner(serial_config);
  shard::ShardPlannerConfig parallel_config;
  parallel_config.shards = point.shards;
  shard::HierarchicalPlanner parallel_planner(parallel_config);

  constexpr int kMinPlanReps = 3;
  constexpr int kMaxPlanReps = 100;
  constexpr double kMinPlanMs = 200.0;
  sim::Schedule sharded_serial;
  sim::Schedule sharded_parallel;
  row.plan_serial_ms = 1e30;
  row.plan_parallel_ms = 1e30;
  double serial_total_ms = 0.0;
  double parallel_total_ms = 0.0;
  for (int rep = 0;
       rep < kMaxPlanReps &&
       (rep < kMinPlanReps || serial_total_ms < kMinPlanMs ||
        parallel_total_ms < kMinPlanMs);
       ++rep) {
    start = Clock::now();
    sharded_serial = serial_planner.schedule(input);
    const double serial_ms = ms_since(start);
    row.plan_serial_ms = std::min(row.plan_serial_ms, serial_ms);
    serial_total_ms += serial_ms;

    start = Clock::now();
    sharded_parallel = parallel_planner.schedule(input);
    const double parallel_ms = ms_since(start);
    row.plan_parallel_ms = std::min(row.plan_parallel_ms, parallel_ms);
    parallel_total_ms += parallel_ms;
  }
  row.migrated_jobs = serial_planner.last_plan().migrated_jobs;
  row.imbalance = serial_planner.last_plan().imbalance;

  row.merge_identical = schedules_identical(sharded_serial, sharded_parallel);
  row.valid = true;
  try {
    sim::validate_schedule(sharded_serial, jobs);
  } catch (const common::Error& e) {
    std::cerr << "INVALID schedule: " << e.what() << "\n";
    row.valid = false;
  }
  row.peak_rss_mb =
      static_cast<double>(common::peak_rss_bytes()) / (1024.0 * 1024.0);
  return row;
}

// ---------------------------------------------------------------------------

[[nodiscard]] bool write_json(const std::string& path,
                              const std::vector<ScaleRow>& rows, bool quick) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_scale_100k\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"scale_points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"jobs\": " << r.point.jobs << ", \"gpus\": " << r.point.gpus
        << ", \"shards\": " << r.point.shards
        << ", \"workers\": " << r.workers << ", \"tasks\": " << r.tasks
        << ",\n"
        << "     \"stream_ms\": " << r.stream_ms
        << ", \"profile_ms\": " << r.profile_ms
        << ", \"profile_rows\": " << r.profile_rows
        << ", \"plan_serial_ms\": " << r.plan_serial_ms
        << ", \"plan_parallel_ms\": " << r.plan_parallel_ms << ",\n"
        << "     \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"migrated_jobs\": " << r.migrated_jobs
        << ", \"imbalance\": " << r.imbalance << ",\n"
        << "     \"merge_identical\": "
        << (r.merge_identical ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scale_100k [--quick] [--json <path>]\n";
      return 2;
    }
  }

  std::cout << "=== six-figure scale grid: stream -> shard -> schedule ===\n";
  std::vector<ScalePoint> grid;
  if (quick) {
    // The 20k point rides in quick mode too (CI runs it): with the
    // interned tables and memoized profiling it costs about a second, and
    // it is large enough for the peak-RSS ceiling and the
    // pooled-vs-serial plan gate to mean something.
    grid.push_back(ScalePoint{2000, 256, 8, 4});
    grid.push_back(ScalePoint{20000, 2048, 16, 16});
  } else {
    grid.push_back(ScalePoint{20000, 2048, 16, 16});
    grid.push_back(ScalePoint{100000, 8192, 32, 32});
  }
  std::vector<ScaleRow> rows;
  for (const ScalePoint& point : grid) rows.push_back(run_scale_point(point));

  common::Table table({"jobs", "gpus", "shards", "tasks", "stream ms",
                       "profile ms", "rows", "plan ms", "pooled ms", "rss MB",
                       "migrated", "identical", "valid"});
  for (const ScaleRow& r : rows) {
    table.row()
        .cell(r.point.jobs)
        .cell(r.point.gpus)
        .cell(r.point.shards)
        .cell(r.tasks)
        .cell(r.stream_ms, 1)
        .cell(r.profile_ms, 1)
        .cell(r.profile_rows)
        .cell(r.plan_serial_ms, 1)
        .cell(r.plan_parallel_ms, 1)
        .cell(r.peak_rss_mb, 0)
        .cell(r.migrated_jobs)
        .cell(r.merge_identical ? "yes" : "NO")
        .cell(r.valid ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "(identical = serial and pooled sharded plans match bit for "
               "bit; rss = process peak after the point)\n";

  bool broken = false;
  for (const ScaleRow& r : rows) {
    broken = broken || !r.merge_identical || !r.valid;
  }
  if (broken) {
    std::cerr << "\nBROKEN CONTRACT: see table above\n";
    return 1;
  }
  return write_json(json_path, rows, quick) ? 0 : 1;
}
