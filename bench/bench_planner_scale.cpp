// Planner scaling bench + regression baseline generator.
//
// Sweeps (jobs x GPUs) grid points for both relaxation modes and times the
// Hare planner under three engine configurations:
//
//   naive        — the pre-optimization reference path: O(G) linear candidate
//                  scans, full per-round separation sorts, no caches.
//   warm_serial  — full optimized path: indexed scans, cached aggregates,
//                  incremental separation. Bit-identical to `naive`
//                  (asserted; both run the same warm-started LP, whose
//                  perturbed optimum is a unique vertex).
//   pooled       — warm_serial plus the shared thread pool for per-machine
//                  cut separation. Bit-identical to warm_serial (asserted).
//
// Emits machine-readable BENCH_planner.json (wall ms, LP solves, cuts,
// simplex pivots, LP shape, speedups, equality checks) which
// scripts/check_bench_regression.py gates in CI. `--quick` shrinks the grid
// for smoke runs; `--json <path>` overrides the output location.
//
// The timed grid always runs with hare::obs tracing *disabled* (the
// regression gate doubles as the "tracing compiled in but off costs <=1%"
// check). Afterwards one representative point per mode is re-run with the
// tracer enabled and exported as Chrome-trace JSON + metrics snapshot
// alongside the bench JSON (`--trace-out`/`--no-trace` to override/skip).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "core/hare_scheduler.hpp"
#include "obs/obs.hpp"
#include "profiler/profiler.hpp"
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

core::HareConfig engine_config(core::RelaxMode mode, bool naive,
                               std::size_t threads) {
  core::HareConfig config;
  config.relaxation.mode = mode;
  config.relaxation.engine.naive = naive;
  config.relaxation.engine.threads = threads;
  config.placement = core::Placement::EarliestFinish;
  return config;
}

struct VariantResult {
  double wall_ms = 0.0;  ///< best of `repeats` runs
  sim::Schedule schedule;
  core::RelaxationResult relaxation;
};

VariantResult run_variant(const sched::SchedulerInput& input,
                          const core::HareConfig& config, int repeats) {
  VariantResult result;
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

bool schedules_equal(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences && a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

struct PointResult {
  GridPoint point;
  std::size_t tasks = 0;
  double naive_ms = 0.0;
  double warm_serial_ms = 0.0;
  double pooled_ms = 0.0;
  double speedup_serial = 0.0;  ///< naive_ms / warm_serial_ms
  double speedup_pooled = 0.0;  ///< naive_ms / pooled_ms
  std::size_t lp_solves_naive = 0;
  std::size_t lp_solves_warm = 0;
  std::size_t cuts_naive = 0;
  std::size_t cuts_warm = 0;
  std::size_t pivots = 0;  ///< simplex pivots of the warm engine
  // Final LP shape of the warm engine's relaxation (base rows + cuts).
  std::size_t lp_rows = 0;
  std::size_t lp_cols = 0;
  std::size_t lp_nonzeros = 0;
  bool naive_matches_warm = false;
  bool warm_matches_pooled = false;
};

const char* mode_name(core::RelaxMode mode) {
  return mode == core::RelaxMode::Fluid ? "fluid" : "lp_cuts";
}

PointResult run_point(const GridPoint& point, int repeats,
                      std::size_t pool_threads) {
  const Instance instance = make_instance(point.jobs, point.gpus, 9000 + point.jobs);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  const auto naive =
      run_variant(input, engine_config(point.mode, true, 1), repeats);
  const auto warm_serial =
      run_variant(input, engine_config(point.mode, false, 1), repeats);
  const auto pooled = run_variant(
      input, engine_config(point.mode, false, pool_threads), repeats);

  PointResult result;
  result.point = point;
  result.tasks = warm_serial.schedule.task_count();
  result.naive_ms = naive.wall_ms;
  result.warm_serial_ms = warm_serial.wall_ms;
  result.pooled_ms = pooled.wall_ms;
  result.speedup_serial = naive.wall_ms / std::max(1e-6, warm_serial.wall_ms);
  result.speedup_pooled = naive.wall_ms / std::max(1e-6, pooled.wall_ms);
  result.lp_solves_naive = naive.relaxation.lp_solves;
  result.lp_solves_warm = warm_serial.relaxation.lp_solves;
  result.cuts_naive = naive.relaxation.cut_count;
  result.cuts_warm = warm_serial.relaxation.cut_count;
  result.pivots = warm_serial.relaxation.simplex_pivots;
  result.lp_rows = warm_serial.relaxation.lp_rows;
  result.lp_cols = warm_serial.relaxation.lp_cols;
  result.lp_nonzeros = warm_serial.relaxation.lp_nonzeros;
  result.naive_matches_warm =
      schedules_equal(naive.schedule, warm_serial.schedule);
  result.warm_matches_pooled =
      schedules_equal(warm_serial.schedule, pooled.schedule);
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
        << ", \"tasks\": " << r.tasks                       //
        << ", \"naive_ms\": " << r.naive_ms                 //
        << ", \"warm_serial_ms\": " << r.warm_serial_ms     //
        << ", \"pooled_ms\": " << r.pooled_ms               //
        << ", \"speedup_serial\": " << r.speedup_serial     //
        << ", \"speedup_pooled\": " << r.speedup_pooled     //
        << ", \"lp_solves_naive\": " << r.lp_solves_naive   //
        << ", \"lp_solves_warm\": " << r.lp_solves_warm     //
        << ", \"cuts_naive\": " << r.cuts_naive             //
        << ", \"cuts_warm\": " << r.cuts_warm               //
        << ", \"pivots\": " << r.pivots                     //
        << ", \"lp_rows\": " << r.lp_rows                   //
        << ", \"lp_cols\": " << r.lp_cols                   //
        << ", \"lp_nonzeros\": " << r.lp_nonzeros           //
        << ", \"naive_matches_warm\": "
        << (r.naive_matches_warm ? "true" : "false")
        << ", \"warm_matches_pooled\": "
        << (r.warm_matches_pooled ? "true" : "false") << "}"
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
bool export_traced_run(const std::string& trace_path, bool quick) {
  obs::Tracer::instance().set_thread_name("bench_planner_scale");
  obs::Tracer::instance().enable();
  for (const core::RelaxMode mode :
       {core::RelaxMode::Fluid, core::RelaxMode::LpCuts}) {
    const std::size_t jobs = mode == core::RelaxMode::Fluid ? 30 : 6;
    const std::size_t gpus = mode == core::RelaxMode::Fluid ? 16 : 4;
    const Instance instance = make_instance(jobs, gpus, 9000 + jobs);
    const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                      instance.times};
    run_variant(input, engine_config(mode, false, quick ? 1 : 2), 1);
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
  const std::size_t pool_threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  std::cout << "=== planner scaling: naive vs optimized engine ===\n";
  std::vector<PointResult> rows;
  bool all_match = true;
  for (const auto& point : grid) {
    auto row = run_point(point, repeats, pool_threads);
    all_match =
        all_match && row.naive_matches_warm && row.warm_matches_pooled;
    rows.push_back(std::move(row));
  }

  common::Table table({"mode", "jobs", "gpus", "tasks", "naive ms",
                       "serial ms", "pooled ms", "speedup", "pivots",
                       "lp rxc (nnz)", "identical"});
  for (const auto& r : rows) {
    auto row = table.row();
    row.cell(mode_name(r.point.mode));
    row.cell(r.point.jobs);
    row.cell(r.point.gpus);
    row.cell(r.tasks);
    row.cell(r.naive_ms, 2);
    row.cell(r.warm_serial_ms, 2);
    row.cell(r.pooled_ms, 2);
    row.cell(r.speedup_serial, 2);
    row.cell(r.pivots);
    row.cell(std::to_string(r.lp_rows) + "x" + std::to_string(r.lp_cols) +
             " (" + std::to_string(r.lp_nonzeros) + ")");
    row.cell(r.naive_matches_warm && r.warm_matches_pooled ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "(speedup = naive ms / optimized serial ms; schedules are "
               "asserted bit-identical across engines)\n";

  bool wrote = write_json(json_path, rows, quick);
  if (trace) wrote = export_traced_run(trace_path, quick) && wrote;

  if (!all_match) {
    std::cerr << "FAIL: an optimized engine produced a different schedule "
                 "than its reference\n";
    return 1;
  }
  return wrote ? 0 : 1;
}
