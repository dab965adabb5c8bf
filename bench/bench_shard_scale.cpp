// Hierarchical sharded planning at cluster scale + regression baseline
// generator.
//
// Part 1 — shard grid. For each (jobs × GPUs × shards) point the bench
// plans the same instance three ways: the flat core::HareScheduler (fluid
// relaxation over the whole cluster — the Ω(J·G) reference), the
// hierarchical planner with its shard fan-out forced serial, and the
// hierarchical planner fanned across the worker pool. The serial and
// parallel sharded plans must be **bit-identical** (canonical-order merge:
// parallelism changes wall-clock only), every plan must validate
// structurally, and the sharded-over-flat speedups are reported. Even the
// serial sharded plan beats flat super-linearly in S: each sub-instance
// pays ~(J/S)·(G/S) where flat pays J·G.
//
// Part 2 — incremental Queyranne separation. LpCuts relaxations run on a
// small grid and the relaxation's re-sorted-task counter measures the
// separation sort work the incremental separator saved against a full
// per-round re-sort. That both separations give the same cut trajectory is
// a ctest contract (IncrementalSeparation.IdenticalCutTrajectoryWithSavings).
//
// Emits machine-readable BENCH_shard.json which
// scripts/check_bench_regression.py gates in CI: merge bit-identity and
// schedule validity always; the >= 3x sharded-over-flat speedup floor only
// when the recorded run had >= 4 workers; the >= 50% separation re-sort
// savings floor in full mode.
// `--quick` shrinks the grid for smoke runs; `--json <path>` overrides the
// output location.
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
#include "shard/hierarchical_planner.hpp"

namespace {

using namespace hare;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ShardPoint {
  std::size_t jobs = 0;
  std::size_t gpus = 0;
  std::size_t shards = 0;
  std::size_t machines_per_domain = 0;  ///< 8-GPU machines per domain
};

struct ShardRow {
  ShardPoint point;
  std::size_t workers = 1;
  double flat_ms = 0.0;
  double sharded_serial_ms = 0.0;
  double sharded_parallel_ms = 0.0;
  double speedup_serial = 0.0;
  double speedup_parallel = 0.0;
  double objective_ratio = 0.0;  ///< sharded / flat planned Σ w C
  double imbalance = 0.0;
  bool merge_identical = false;
  bool valid = false;
};

struct SepRow {
  std::size_t jobs = 0;
  std::size_t gpus = 0;
  std::size_t sep_tasks_total = 0;
  std::size_t sep_tasks_resorted = 0;
};

struct Instance {
  cluster::Cluster cluster;
  workload::JobSet jobs;
  profiler::TimeTable times{0, 0};
};

Instance make_instance(const ShardPoint& point, std::uint64_t seed) {
  Instance instance;
  instance.cluster = cluster::make_simulation_cluster(
      point.gpus, 25.0, 8, point.machines_per_domain);

  workload::TraceConfig config;
  config.job_count = point.jobs;
  config.base_arrival_rate = 0.5;
  // Short training runs keep the task count proportional to the job count
  // (the bench scales the *instance*, not per-job round counts).
  config.rounds_scale_min = 0.02;
  config.rounds_scale_max = 0.08;
  workload::TraceGenerator generator(seed);
  instance.jobs = generator.generate(config);

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

bool schedules_identical(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences && a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

ShardRow run_point(const ShardPoint& point) {
  ShardRow row;
  row.point = point;
  row.workers = std::min(common::default_worker_count(), point.shards);

  std::cout << "instance " << point.jobs << " jobs x " << point.gpus
            << " gpus, " << point.shards << " shards ... " << std::flush;
  const Instance instance = make_instance(point, 4400 + point.jobs);
  instance.times.precompute();  // charge the shared aggregate cache to no one
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  std::cout << instance.jobs.task_count() << " tasks\n";

  core::HareScheduler flat;  // fluid relaxation over the whole cluster
  auto start = Clock::now();
  const sim::Schedule flat_schedule = flat.schedule(input);
  row.flat_ms = ms_since(start);

  shard::ShardPlannerConfig serial_config;
  serial_config.shards = point.shards;
  serial_config.serial = true;
  shard::HierarchicalPlanner serial_planner(serial_config);
  start = Clock::now();
  const sim::Schedule sharded_serial = serial_planner.schedule(input);
  row.sharded_serial_ms = ms_since(start);
  row.imbalance = serial_planner.last_plan().imbalance;

  shard::ShardPlannerConfig parallel_config;
  parallel_config.shards = point.shards;
  shard::HierarchicalPlanner parallel_planner(parallel_config);
  start = Clock::now();
  const sim::Schedule sharded_parallel = parallel_planner.schedule(input);
  row.sharded_parallel_ms = ms_since(start);

  row.merge_identical = schedules_identical(sharded_serial, sharded_parallel);
  row.valid = true;
  try {
    sim::validate_schedule(flat_schedule, instance.jobs);
    sim::validate_schedule(sharded_serial, instance.jobs);
  } catch (const common::Error& e) {
    std::cerr << "INVALID schedule: " << e.what() << "\n";
    row.valid = false;
  }
  row.speedup_serial = row.flat_ms / std::max(1e-6, row.sharded_serial_ms);
  row.speedup_parallel = row.flat_ms / std::max(1e-6, row.sharded_parallel_ms);
  row.objective_ratio =
      flat_schedule.predicted_objective > 0.0
          ? sharded_serial.predicted_objective /
                flat_schedule.predicted_objective
          : 1.0;
  return row;
}

SepRow run_separation_point(std::uint64_t seed, std::size_t jobs,
                            std::size_t gpus) {
  SepRow row;
  row.jobs = jobs;
  row.gpus = gpus;

  Instance instance;
  instance.cluster = cluster::make_simulation_cluster(gpus, 25.0, 4);
  workload::TraceConfig config;
  config.job_count = jobs;
  config.base_arrival_rate = 0.2;
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.05;
  config.rounds_scale_max = 0.2;
  workload::TraceGenerator generator(seed);
  instance.jobs = generator.generate(config);
  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);

  core::RelaxationConfig relax;
  relax.mode = core::RelaxMode::LpCuts;
  const core::RelaxationResult relaxed = core::HareRelaxation(relax).solve(
      instance.cluster, instance.jobs, instance.times);
  row.sep_tasks_total = relaxed.sep_tasks_total;
  row.sep_tasks_resorted = relaxed.sep_tasks_resorted;
  return row;
}

[[nodiscard]] bool write_json(const std::string& path,
                              const std::vector<ShardRow>& rows,
                              const std::vector<SepRow>& sep_rows,
                              bool quick) {
  std::size_t sep_total = 0;
  std::size_t sep_resorted = 0;
  for (const SepRow& r : sep_rows) {
    sep_total += r.sep_tasks_total;
    sep_resorted += r.sep_tasks_resorted;
  }
  const double savings =
      sep_total > 0
          ? 1.0 - static_cast<double>(sep_resorted) /
                      static_cast<double>(sep_total)
          : 0.0;

  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_shard_scale\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    out << "    {\"jobs\": " << r.point.jobs << ", \"gpus\": " << r.point.gpus
        << ", \"shards\": " << r.point.shards
        << ", \"workers\": " << r.workers << ",\n"
        << "     \"flat_ms\": " << r.flat_ms
        << ", \"sharded_serial_ms\": " << r.sharded_serial_ms
        << ", \"sharded_parallel_ms\": " << r.sharded_parallel_ms << ",\n"
        << "     \"speedup_serial\": " << r.speedup_serial
        << ", \"speedup_parallel\": " << r.speedup_parallel << ",\n"
        << "     \"objective_ratio\": " << r.objective_ratio
        << ", \"imbalance\": " << r.imbalance << ",\n"
        << "     \"merge_identical\": " << (r.merge_identical ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"separation\": {\n";
  out << "    \"sep_tasks_total\": " << sep_total << ",\n";
  out << "    \"sep_tasks_resorted\": " << sep_resorted << ",\n";
  out << "    \"resort_savings\": " << savings << ",\n";
  out << "    \"points\": [\n";
  for (std::size_t i = 0; i < sep_rows.size(); ++i) {
    const SepRow& r = sep_rows[i];
    out << "      {\"jobs\": " << r.jobs << ", \"gpus\": " << r.gpus
        << ", \"sep_tasks_total\": " << r.sep_tasks_total
        << ", \"sep_tasks_resorted\": " << r.sep_tasks_resorted << "}"
        << (i + 1 < sep_rows.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
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
  std::string json_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_shard_scale [--quick] [--json <path>]\n";
      return 2;
    }
  }

  std::cout << "=== hierarchical sharded planning: flat vs two-level ===\n";
  std::vector<ShardPoint> grid;
  if (quick) {
    grid.push_back(ShardPoint{1000, 256, 8, 4});
  } else {
    grid.push_back(ShardPoint{2000, 512, 8, 8});
    grid.push_back(ShardPoint{10000, 2048, 16, 16});
  }

  std::vector<ShardRow> rows;
  for (const ShardPoint& point : grid) rows.push_back(run_point(point));

  common::Table table({"jobs", "gpus", "shards", "workers", "flat ms",
                       "sharded ms", "parallel ms", "speedup", "obj ratio",
                       "identical", "valid"});
  for (const ShardRow& r : rows) {
    table.row()
        .cell(r.point.jobs)
        .cell(r.point.gpus)
        .cell(r.point.shards)
        .cell(r.workers)
        .cell(r.flat_ms, 1)
        .cell(r.sharded_serial_ms, 1)
        .cell(r.sharded_parallel_ms, 1)
        .cell(r.speedup_parallel, 2)
        .cell(r.objective_ratio, 3)
        .cell(r.merge_identical ? "yes" : "NO")
        .cell(r.valid ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "(speedup = flat fluid over parallel sharded; identical = "
               "serial and parallel sharded plans match bit for bit)\n";

  std::cout << "\n=== incremental Queyranne separation: lp_cuts grid ===\n";
  std::vector<SepRow> sep_rows;
  if (quick) {
    sep_rows.push_back(run_separation_point(7, 8, 4));
  } else {
    sep_rows.push_back(run_separation_point(7, 8, 4));
    sep_rows.push_back(run_separation_point(21, 12, 4));
    sep_rows.push_back(run_separation_point(99, 12, 6));
    sep_rows.push_back(run_separation_point(55, 16, 6));
  }
  common::Table sep_table({"jobs", "gpus", "sort work", "resorted", "savings"});
  for (const SepRow& r : sep_rows) {
    sep_table.row()
        .cell(r.jobs)
        .cell(r.gpus)
        .cell(r.sep_tasks_total)
        .cell(r.sep_tasks_resorted)
        .cell(r.sep_tasks_total > 0
                  ? 1.0 - static_cast<double>(r.sep_tasks_resorted) /
                              static_cast<double>(r.sep_tasks_total)
                  : 0.0,
              3);
  }
  sep_table.print(std::cout);

  const bool wrote = write_json(json_path, rows, sep_rows, quick);

  for (const ShardRow& r : rows) {
    if (!r.merge_identical || !r.valid) {
      std::cerr << "FAIL: sharded plan broke a correctness contract\n";
      return 1;
    }
  }
  return wrote ? 0 : 1;
}
