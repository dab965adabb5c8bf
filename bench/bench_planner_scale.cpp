// Planner scaling bench + regression baseline generator.
//
// Sweeps (jobs x GPUs) grid points for both relaxation modes and times the
// Hare planner on each (best of the repeats), then checks each schedule
// structurally. Schedule identity with the reference Algorithm 1 is a ctest
// contract (tests/planner_oracle.cpp), not a bench one.
//
// Emits machine-readable BENCH_planner.json (wall ms, LP solves, cuts,
// simplex pivots and how many of them were phase-1 pivots, LP shape,
// validity) which scripts/check_bench_regression.py gates in CI. `--quick`
// shrinks the grid for smoke runs; `--json <path>` overrides the output
// location.
//
// The timed grid always runs with hare::obs tracing *disabled*. Afterwards
// one representative point per mode is re-run with the tracer enabled and
// exported as Chrome-trace JSON + metrics snapshot alongside the bench JSON
// (`--trace-out`/`--no-trace` to override/skip).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/hare_scheduler.hpp"
#include "obs/obs.hpp"
#include "profiler/profiler.hpp"
#include "sim/schedule.hpp"
#include "workload/trace.hpp"

namespace {

using namespace hare;

struct GridPoint {
  core::RelaxMode mode;
  std::size_t jobs;
  std::size_t gpus;
};

struct Instance {
  cluster::Cluster cluster;
  workload::JobSet jobs;
  profiler::TimeTable times;
};

Instance make_instance(std::size_t job_count, std::size_t gpu_count,
                       std::uint64_t seed) {
  Instance instance;
  instance.cluster = cluster::make_simulation_cluster(gpu_count, 25.0, 4);

  workload::TraceConfig config;
  config.job_count = job_count;
  config.base_arrival_rate = 0.2;
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.1;
  config.rounds_scale_max = 0.3;
  instance.jobs = workload::TraceGenerator(seed).generate(config);

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

core::HareConfig planner_config(core::RelaxMode mode) {
  core::HareConfig config;
  config.relaxation.mode = mode;
  config.placement = core::Placement::EarliestFinish;
  return config;
}

struct PlanResult {
  double wall_ms = 0.0;  ///< best of `repeats` runs
  sim::Schedule schedule;
  core::RelaxationResult relaxation;
};

PlanResult run_planner(const sched::SchedulerInput& input,
                       const core::HareConfig& config, int repeats) {
  PlanResult result;
  result.wall_ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    core::HareScheduler scheduler(config);
    const auto start = std::chrono::steady_clock::now();
    auto schedule = scheduler.schedule(input);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < result.wall_ms) result.wall_ms = ms;
    if (r == 0) {
      result.schedule = std::move(schedule);
      result.relaxation = scheduler.last_relaxation();
    }
  }
  return result;
}

struct PointResult {
  GridPoint point;
  std::size_t tasks = 0;
  double plan_ms = 0.0;
  std::size_t lp_solves = 0;
  std::size_t cuts = 0;
  std::size_t pivots = 0;
  /// Phase-1 pivots, all solves: 0 while the cold solve starts from the
  /// relaxation's critical-path basis.
  std::size_t phase1_pivots = 0;
  std::size_t factorizations = 0;  ///< basis LU factorizations, all solves
  // Final LP shape of the relaxation (base rows + cuts).
  std::size_t lp_rows = 0;
  std::size_t lp_cols = 0;
  std::size_t lp_nonzeros = 0;
  bool valid = false;  ///< schedule passed sim::validate_schedule
};

const char* mode_name(core::RelaxMode mode) {
  return mode == core::RelaxMode::Fluid ? "fluid" : "lp_cuts";
}

PointResult run_point(const GridPoint& point, int repeats) {
  const Instance instance = make_instance(point.jobs, point.gpus, 9000 + point.jobs);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  const PlanResult plan = run_planner(input, planner_config(point.mode), repeats);

  PointResult result;
  result.point = point;
  result.tasks = plan.schedule.task_count();
  result.plan_ms = plan.wall_ms;
  result.lp_solves = plan.relaxation.lp_solves;
  result.cuts = plan.relaxation.cut_count;
  result.pivots = plan.relaxation.simplex_pivots;
  result.phase1_pivots = plan.relaxation.phase1_pivots;
  result.factorizations = plan.relaxation.lp_factorizations;
  result.lp_rows = plan.relaxation.lp_rows;
  result.lp_cols = plan.relaxation.lp_cols;
  result.lp_nonzeros = plan.relaxation.lp_nonzeros;
  result.valid = true;
  try {
    sim::validate_schedule(plan.schedule, instance.jobs);
  } catch (const common::Error& e) {
    std::cerr << "INVALID schedule: " << e.what() << "\n";
    result.valid = false;
  }
  return result;
}

[[nodiscard]] bool write_json(const std::string& path,
                              const std::vector<PointResult>& rows,
                              bool quick) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_planner_scale\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"mode\": \"" << mode_name(r.point.mode) << "\""
        << ", \"jobs\": " << r.point.jobs << ", \"gpus\": " << r.point.gpus
        << ", \"tasks\": " << r.tasks            //
        << ", \"plan_ms\": " << r.plan_ms        //
        << ", \"lp_solves\": " << r.lp_solves    //
        << ", \"cuts\": " << r.cuts              //
        << ", \"pivots\": " << r.pivots          //
        << ", \"phase1_pivots\": " << r.phase1_pivots  //
        << ", \"factorizations\": " << r.factorizations  //
        << ", \"lp_rows\": " << r.lp_rows        //
        << ", \"lp_cols\": " << r.lp_cols        //
        << ", \"lp_nonzeros\": " << r.lp_nonzeros  //
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

/// Re-run one small point per relaxation mode with the tracer on and
/// export the telemetry next to the bench JSON. Runs after the timed
/// grid so span recording cannot perturb the regression numbers.
bool export_traced_run(const std::string& trace_path) {
  obs::Tracer::instance().set_thread_name("bench_planner_scale");
  obs::Tracer::instance().enable();
  for (const core::RelaxMode mode :
       {core::RelaxMode::Fluid, core::RelaxMode::LpCuts}) {
    const std::size_t jobs = mode == core::RelaxMode::Fluid ? 30 : 6;
    const std::size_t gpus = mode == core::RelaxMode::Fluid ? 16 : 4;
    const Instance instance = make_instance(jobs, gpus, 9000 + jobs);
    const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                      instance.times};
    run_planner(input, planner_config(mode), 1);
  }
  obs::Tracer::instance().disable();

  bool ok = obs::write_chrome_trace_file(trace_path);
  const std::string base = trace_path.size() > 5 &&
                                   trace_path.rfind(".json") ==
                                       trace_path.size() - 5
                               ? trace_path.substr(0, trace_path.size() - 5)
                               : trace_path;
  ok = obs::Registry::instance().write_json_file(base + "_metrics.json") && ok;
  ok = obs::write_flame_summary_file(base + "_spans.txt") && ok;
  if (ok) {
    std::cout << "wrote " << trace_path << " (+ _metrics.json, _spans.txt)\n";
  } else {
    std::cerr << "error: cannot write trace outputs at " << trace_path
              << "\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool trace = true;
  std::string json_path = "BENCH_planner.json";
  std::string trace_path = "BENCH_planner_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-trace") == 0) {
      trace = false;
    } else {
      std::cerr << "usage: bench_planner_scale [--quick] [--json <path>] "
                   "[--trace-out <path>] [--no-trace]\n";
      return 2;
    }
  }

  std::vector<GridPoint> grid;
  if (quick) {
    grid = {{core::RelaxMode::Fluid, 30, 16},
            {core::RelaxMode::LpCuts, 16, 8}};
  } else {
    grid = {{core::RelaxMode::Fluid, 50, 16},
            {core::RelaxMode::Fluid, 100, 32},
            {core::RelaxMode::Fluid, 200, 64},
            {core::RelaxMode::Fluid, 400, 256},
            {core::RelaxMode::Fluid, 800, 512},
            {core::RelaxMode::LpCuts, 6, 4},
            {core::RelaxMode::LpCuts, 10, 6},
            {core::RelaxMode::LpCuts, 16, 8},
            {core::RelaxMode::LpCuts, 24, 10},
            {core::RelaxMode::LpCuts, 32, 12},
            {core::RelaxMode::LpCuts, 40, 16}};
  }
  const int repeats = quick ? 1 : 3;

  std::cout << "=== planner scaling ===\n";
  std::vector<PointResult> rows;
  bool all_valid = true;
  for (const auto& point : grid) {
    rows.push_back(run_point(point, repeats));
    all_valid = all_valid && rows.back().valid;
  }

  common::Table table({"mode", "jobs", "gpus", "tasks", "plan ms", "solves",
                       "cuts", "pivots", "phase 1", "factors", "lp rxc (nnz)",
                       "valid"});
  for (const auto& r : rows) {
    auto row = table.row();
    row.cell(mode_name(r.point.mode));
    row.cell(r.point.jobs);
    row.cell(r.point.gpus);
    row.cell(r.tasks);
    row.cell(r.plan_ms, 2);
    row.cell(r.lp_solves);
    row.cell(r.cuts);
    row.cell(r.pivots);
    row.cell(r.phase1_pivots);
    row.cell(r.factorizations);
    row.cell(std::to_string(r.lp_rows) + "x" + std::to_string(r.lp_cols) +
             " (" + std::to_string(r.lp_nonzeros) + ")");
    row.cell(r.valid ? "yes" : "NO");
  }
  table.print(std::cout);

  bool wrote = write_json(json_path, rows, quick);
  if (trace) wrote = export_traced_run(trace_path) && wrote;

  if (!all_valid) {
    std::cerr << "FAIL: the planner produced an invalid schedule\n";
    return 1;
  }
  return wrote ? 0 : 1;
}
