// hare — command-line front end to the library.
//
//   hare generate  --jobs 50 --seed 7 --out trace.txt [--rate 0.2]
//                  [--favour cv|nlp|speech|rec --share 0.55] [--batch 1.0]
//   hare schedule  --trace trace.txt [--gpus 16 | --testbed]
//                  [--scheduler hare|online|fifo|srtf|homo|allox]
//                  [--gantt] [--csv] [--bandwidth 25] [--seed 42]
//   hare compare   --trace trace.txt [--gpus 16 | --testbed] [--csv]
//   hare profile   --trace trace.txt [--gpus 16 | --testbed] [--db db.txt]
//   hare sweep     [--trace trace.txt | --jobs 40,80] [--seeds 1,2,3]
//                  [--gpus 16 | --testbed] [--serial] [--workers N] [--csv]
//   hare plan      --trace trace.txt [--gpus 16 | --testbed] [--racks M]
//                  [--shards N] [--workers N] [--serial] [--lp-max-jobs N]
//   hare faults    --trace trace.txt [--gpus 16 | --testbed] [--racks M]
//                  [--fault-spec SPEC] [--sharded] [--shards N] [--seed S]
//
// `generate` synthesizes a workload trace; `schedule` runs one scheduler
// and reports metrics (optionally an ASCII Gantt chart); `compare` runs
// Hare and every baseline; `profile` shows the profiled time table and,
// with `--db`, warm-starts from and extends the historical profile
// database; `sweep` fans a
// (scenario × seed × scheme) grid across the hare::exp engine — results
// are bit-identical to `--serial`, which runs the same cells one by one;
// `plan` runs the two-level hierarchical planner (shard the cluster by
// network domain, plan shards in parallel, merge in canonical order) and
// reports the per-shard breakdown next to the merged plan's objective;
// `faults` replays a seeded fault-injection scenario (machine/GPU
// failures, recoveries, cancellations, stragglers) against the planned
// schedule with checkpoint-restart and replan-on-failure, reporting the
// degradation against the fault-free run.
//
// Every command accepts `--trace-out FILE` (Chrome trace_event JSON for
// chrome://tracing), `--metrics-out FILE` (hare::obs counters/gauges/
// histograms as JSON), and `--flame-out FILE` (plain-text span summary).
// Tracing only observes: a traced run plans and simulates exactly what an
// untraced one does.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/hare.hpp"
#include "exp/engine.hpp"
#include "fault/runner.hpp"
#include "obs/obs.hpp"
#include "serve/serve_service.hpp"
#include "shard/hierarchical_planner.hpp"
#include "sim/gantt.hpp"
#include "workload/arrival_spec.hpp"

namespace {

using namespace hare;

[[noreturn]] void usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      R"(usage:
  hare generate --jobs N --out FILE [--seed S] [--rate R]
                [--favour cv|nlp|speech|rec --share F] [--batch SCALE]
  hare schedule --trace FILE [--gpus N | --testbed]
                [--scheduler hare|online|fifo|srtf|homo|allox]
                [--gantt] [--csv] [--export PREFIX]
                [--bandwidth GBPS] [--seed S]
  hare compare  --trace FILE [--gpus N | --testbed] [--csv] [--seed S]
  hare profile  --trace FILE [--gpus N | --testbed] [--db FILE] [--seed S]
  hare advise   --model NAME [--rounds N] [--gpus N | --testbed]
  hare sweep    [--trace FILE | --jobs N1,N2,...] [--seeds S1,S2,...]
                [--gpus N | --testbed] [--serial] [--workers N] [--csv]
  hare plan     --trace FILE [--gpus N | --testbed] [--racks M]
                [--shards N] [--workers N] [--serial] [--lp-max-jobs N]
                [--save-plan FILE] [--csv]
  hare faults   --trace FILE [--gpus N | --testbed] [--racks M]
                [--fault-spec SPEC] [--sharded] [--shards N]
                [--seed S] [--csv]
  hare serve    --arrival-spec SPEC [--gpus N | --testbed] [--seed S]
                [--tick T] [--lp-max-batch N] [--replan-budget N]
                [--fault-spec SPEC]
                [--sharded --shard-min N [--shards N]] [--csv]

fault specs are comma-separated key=value strings (see docs/ROBUSTNESS.md):
  seed, machine_failures, gpu_failures, mttf, mttr, cancellations,
  stragglers, straggler_factor, straggler_duration, max_retries,
  backoff_base, backoff_factor, backoff_cap, restart_overhead,
  replan_budget, horizon, events=(fail_machine:0@30;recover_machine:0@90;...)

arrival specs (hare serve) use the same key=value grammar:
  jobs, rate, burst, burst_prob, burst_len, on_period, off_period,
  rounds_min, rounds_max, batch_scale

telemetry (any command):
  --trace-out FILE    write Chrome trace_event JSON (chrome://tracing)
  --metrics-out FILE  write counters/gauges/histograms as JSON
  --flame-out FILE    write a flamegraph-style span summary
)";
  std::exit(2);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = {}) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options.find(key);
    return it != options.end() ? std::stod(it->second) : fallback;
  }
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    const auto it = options.find(key);
    return it != options.end()
               ? static_cast<std::size_t>(std::stoull(it->second))
               : fallback;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return flags.count(key) > 0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) usage();
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) usage("unexpected argument: " + token);
    token = token.substr(2);
    const bool boolean_flag = token == "gantt" || token == "csv" ||
                              token == "testbed" || token == "serial" ||
                              token == "sharded" || token == "cold";
    if (boolean_flag) {
      args.flags[token] = true;
    } else {
      if (i + 1 >= argc) usage("missing value for --" + token);
      args.options[token] = argv[++i];
    }
  }
  return args;
}

cluster::Cluster make_cluster(const Args& args) {
  const double bandwidth = args.get_double("bandwidth", 25.0);
  if (args.flag("testbed")) return cluster::make_testbed_cluster(bandwidth);
  const std::size_t gpus = args.get_size("gpus", 16);
  // `--racks M` groups consecutive machines into network domains of M
  // machines (the shard boundaries `hare plan` partitions along).
  return cluster::make_simulation_cluster(gpus, bandwidth, 8,
                                          args.get_size("racks", 0));
}

workload::JobSet load_jobs(const Args& args) {
  const std::string path = args.get("trace");
  if (path.empty()) usage("--trace is required");
  return workload::load_trace_file(path);
}

int cmd_generate(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) usage("--out is required");

  workload::TraceConfig config;
  config.job_count = args.get_size("jobs", 50);
  config.base_arrival_rate = args.get_double("rate", 0.1);
  config.batch_scale = args.get_double("batch", 1.0);
  const std::string favour = args.get("favour");
  if (!favour.empty()) {
    const double share = args.get_double("share", 0.55);
    const std::map<std::string, workload::JobCategory> categories = {
        {"cv", workload::JobCategory::CV},
        {"nlp", workload::JobCategory::NLP},
        {"speech", workload::JobCategory::Speech},
        {"rec", workload::JobCategory::Rec}};
    const auto it = categories.find(favour);
    if (it == categories.end()) usage("unknown category: " + favour);
    config.mix = workload::WorkloadMix::favour(it->second, share);
  }
  workload::TraceGenerator generator(
      static_cast<std::uint64_t>(args.get_size("seed", 42)));
  const workload::JobSet jobs = generator.generate(config);
  workload::save_trace_file(jobs, out);
  std::cout << "wrote " << jobs.job_count() << " jobs (" << jobs.task_count()
            << " tasks) to " << out << '\n';
  return 0;
}

std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name) {
  if (name == "hare" || name.empty()) {
    return std::make_unique<core::HareScheduler>();
  }
  if (name == "online") return std::make_unique<core::OnlineHareScheduler>();
  if (name == "fifo") return std::make_unique<sched::GavelFifoScheduler>();
  if (name == "srtf") return std::make_unique<sched::SrtfScheduler>();
  if (name == "homo") return std::make_unique<sched::SchedHomoScheduler>();
  if (name == "allox") return std::make_unique<sched::SchedAlloxScheduler>();
  usage("unknown scheduler: " + name);
}

core::RunReport run_one(const Args& args, const cluster::Cluster& cluster,
                        const workload::JobSet& jobs,
                        sched::Scheduler& scheduler) {
  core::HareSystem::Options options;
  options.seed = static_cast<std::uint64_t>(args.get_size("seed", 42));
  const bool hare_like = scheduler.name() == std::string_view("Hare") ||
                         scheduler.name() == std::string_view("Hare_Online");
  options.sim.switching.policy = hare_like ? switching::SwitchPolicy::Hare
                                           : switching::SwitchPolicy::Default;
  options.sim.use_memory_manager = hare_like;
  options.sim.record_timeline = args.flag("gantt");
  core::HareSystem system(cluster, options);
  system.submit_all(jobs);
  return system.run(scheduler);
}

int cmd_advise(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const std::string model_name = args.get("model", "ResNet50");
  workload::JobSpec spec;
  bool found = false;
  for (workload::ModelType type : workload::all_models()) {
    if (workload::model_name(type) == model_name) {
      spec.model = type;
      found = true;
    }
  }
  if (!found) usage("unknown model: " + model_name);
  spec.rounds = static_cast<std::uint32_t>(args.get_size("rounds", 32));

  const auto advice =
      core::advise_sync_scale(cluster, spec, workload::PerfModel{});
  common::Table table({"sync scale", "completion (s)", "speedup",
                       "parallel efficiency"});
  for (const auto& entry : advice) {
    table.row()
        .cell(static_cast<std::size_t>(entry.scale))
        .cell(entry.completion, 1)
        .cell(entry.speedup, 2)
        .cell(entry.efficiency, 2);
  }
  table.print(std::cout);
  std::cout << "recommended scale (efficiency >= 0.5): "
            << core::recommend_sync_scale(cluster, spec,
                                          workload::PerfModel{})
            << '\n';
  return 0;
}

int cmd_schedule(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::JobSet jobs = load_jobs(args);
  auto scheduler = make_scheduler(args.get("scheduler", "hare"));
  const core::RunReport report = run_one(args, cluster, jobs, *scheduler);

  const std::string plan_path = args.get("save-plan");
  if (!plan_path.empty()) {
    sim::save_schedule_file(report.plan, plan_path);
    std::cout << "saved plan to " << plan_path << '\n';
  }

  common::Table table({"metric", "value"});
  table.row().cell("scheduler").cell(report.scheduler);
  table.row().cell("jobs").cell(jobs.job_count());
  table.row().cell("GPUs").cell(cluster.gpu_count());
  table.row().cell("weighted JCT (s)").cell(report.result.weighted_jct, 1);
  table.row().cell("makespan (s)").cell(report.result.makespan, 1);
  table.row().cell("mean GPU util").cell(
      report.result.mean_gpu_utilization(), 3);
  table.row().cell("scheduling (ms)").cell(report.scheduling_ms, 2);
  table.row().cell("approx ratio").cell(report.approximation.ratio, 2);
  table.row().cell("guarantee a(2+a)").cell(report.approximation.guarantee,
                                            2);
  if (args.flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const std::string export_prefix = args.get("export");
  if (!export_prefix.empty()) {
    sim::export_result_files(cluster, jobs, report.result, export_prefix);
    std::cout << "exported " << export_prefix << "_tasks.csv and "
              << export_prefix << "_jobs.csv\n";
  }

  if (args.flag("gantt")) {
    std::cout << '\n'
              << sim::render_gantt(cluster, jobs, report.result, {100, true});
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::JobSet jobs = load_jobs(args);

  common::Table table({"scheduler", "weighted JCT (s)", "makespan (s)",
                       "mean util", "sched (ms)"});
  for (const auto& scheduler : core::make_standard_schedulers()) {
    const core::RunReport report = run_one(args, cluster, jobs, *scheduler);
    table.row()
        .cell(report.scheduler)
        .cell(report.result.weighted_jct, 1)
        .cell(report.result.makespan, 1)
        .cell(report.result.mean_gpu_utilization(), 3)
        .cell(report.scheduling_ms, 2);
  }
  if (args.flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_profile(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::JobSet jobs = load_jobs(args);

  core::HareSystem::Options options;
  options.seed = static_cast<std::uint64_t>(args.get_size("seed", 42));
  core::HareSystem system(cluster, options);
  system.submit_all(jobs);

  const std::string db_path = args.get("db");
  if (!db_path.empty()) {
    // Warm-start from an existing database when present: its entries are
    // served instead of re-measured, and saved back with the new ones.
    std::ifstream probe(db_path);
    if (probe.good()) {
      system.profile_db().load_file(db_path);
      std::cout << "loaded " << system.profile_db().size()
                << " profile entries from " << db_path << '\n';
    }
  }

  const profiler::TimeTable& times = system.profiled_times();
  if (!db_path.empty()) {
    std::cout << "profile db: " << system.profile_db().hits() << " hits, "
              << system.profile_db().misses() << " misses\n";
  }
  std::cout << "time table: " << times.row_count() << " rows x "
            << times.column_count() << " columns over " << times.gpu_count()
            << " GPUs\n";
  common::Table table({"job", "model", "fastest GPU", "T^c there (s)",
                       "T^s there (s)", "T^c max/min"});
  const std::size_t shown = std::min<std::size_t>(jobs.job_count(), 20);
  for (std::size_t j = 0; j < shown; ++j) {
    const JobId id(static_cast<int>(j));
    const auto& job = jobs.job(id);
    const GpuId fastest = times.fastest_gpu(id);
    table.row()
        .cell(j)
        .cell(std::string(workload::model_name(job.spec.model)))
        .cell(std::string(cluster.gpu(fastest).spec().name))
        .cell(times.tc(id, fastest), 3)
        .cell(times.ts(id, fastest), 3)
        .cell(times.max_tc(id) / times.min_tc(id), 2);
  }
  table.print(std::cout);
  std::cout << "alpha (heterogeneity ratio) = " << times.alpha() << '\n';
  if (jobs.job_count() > shown) {
    std::cout << "(showing first " << shown << " of " << jobs.job_count()
              << " jobs)\n";
  }
  if (!db_path.empty()) {
    system.profile_db().save_file(db_path);
    std::cout << "saved " << system.profile_db().size()
              << " profile entries to " << db_path << '\n';
  }
  return 0;
}

std::vector<std::uint64_t> parse_u64_list(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(std::stoull(token));
  }
  return out;
}

int cmd_sweep(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);

  exp::SweepSpec spec;
  const std::string trace = args.get("trace");
  if (!trace.empty()) {
    spec.scenarios.push_back(
        exp::ScenarioSpec{trace, cluster, workload::load_trace_file(trace)});
  } else {
    const std::uint64_t gen_seed =
        static_cast<std::uint64_t>(args.get_size("seed", 42));
    for (const std::uint64_t count : parse_u64_list(args.get("jobs", "40"))) {
      workload::TraceConfig config;
      config.job_count = static_cast<std::size_t>(count);
      workload::TraceGenerator generator(gen_seed);
      spec.scenarios.push_back(
          exp::ScenarioSpec{std::to_string(count) + " jobs", cluster,
                            generator.generate(config)});
    }
  }
  spec.seeds = parse_u64_list(args.get("seeds", ""));
  if (spec.scenarios.empty()) usage("sweep: empty scenario grid");

  exp::Engine::Options engine_options;
  engine_options.workers = args.get_size("workers", 0);
  engine_options.serial = args.flag("serial");
  exp::Engine engine(engine_options);
  const exp::SweepResult result = engine.run(spec);

  common::Table table({"scenario", "seed", "scheme", "weighted JCT (s)",
                       "makespan (s)", "mean util", "sched (ms)"});
  for (const auto& cell : result.cells) {
    table.row()
        .cell(spec.scenarios[cell.scenario].label)
        .cell(static_cast<std::size_t>(cell.seed))
        .cell(cell.result.scheduler)
        .cell(cell.result.weighted_jct, 1)
        .cell(cell.result.makespan, 1)
        .cell(cell.result.mean_utilization, 3)
        .cell(cell.result.scheduling_ms, 2);
  }
  if (args.flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << result.cells.size() << " cells ("
            << spec.scenarios.size() << " scenarios x "
            << result.seeds_per_scenario << " seeds x "
            << exp::scheme_count() << " schemes) on " << result.workers
            << (result.workers == 1 ? " worker" : " workers") << " in "
            << static_cast<long long>(result.wall_ms) << " ms\n";
  return 0;
}

int cmd_plan(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::JobSet jobs = load_jobs(args);

  core::HareSystem system(cluster);
  system.submit_all(jobs);
  const profiler::TimeTable& times = system.profiled_times();

  shard::ShardPlannerConfig config;
  config.shards = args.get_size("shards", 0);
  config.workers = args.get_size("workers", 0);
  config.serial = args.flag("serial");
  config.lp_max_jobs = args.get_size("lp-max-jobs", 0);
  shard::HierarchicalPlanner planner(config);

  const auto start = std::chrono::steady_clock::now();
  const sim::Schedule plan = planner.schedule({cluster, jobs, times});
  const double plan_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const shard::HierarchicalPlanInfo& info = planner.last_plan();

  common::Table shards_table(
      {"shard", "jobs", "GPUs", "est load (s)", "objective", "cuts"});
  for (std::size_t s = 0; s < info.shards.size(); ++s) {
    const shard::ShardStats& stats = info.shards[s];
    shards_table.row()
        .cell(s)
        .cell(stats.jobs)
        .cell(stats.gpus)
        .cell(stats.est_load, 1)
        .cell(stats.objective, 1)
        .cell(stats.cut_count);
  }
  common::Table summary({"metric", "value"});
  summary.row().cell("shards").cell(info.shard_count);
  summary.row().cell("load imbalance (max/mean)").cell(info.imbalance, 3);
  summary.row().cell("predicted objective (s)").cell(plan.predicted_objective,
                                                     1);
  summary.row().cell("planning (ms)").cell(plan_ms, 2);
  if (info.sep_tasks_total > 0) {
    summary.row().cell("separation resort savings").cell(
        1.0 - static_cast<double>(info.sep_tasks_resorted) /
                  static_cast<double>(info.sep_tasks_total),
        3);
  }
  if (args.flag("csv")) {
    shards_table.print_csv(std::cout);
    summary.print_csv(std::cout);
  } else {
    shards_table.print(std::cout);
    summary.print(std::cout);
  }

  const std::string plan_path = args.get("save-plan");
  if (!plan_path.empty()) {
    sim::save_schedule_file(plan, plan_path);
    std::cout << "saved plan to " << plan_path << '\n';
  }
  return 0;
}

int cmd_faults(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::JobSet jobs = load_jobs(args);

  core::HareSystem system(cluster);
  system.submit_all(jobs);

  fault::FaultRunnerConfig config;
  const std::string spec_text =
      args.get("fault-spec", "machine_failures=1,cancellations=1,mttr=120");
  config.spec = fault::parse_fault_spec(spec_text);
  if (args.options.count("seed")) {
    config.spec.seed = static_cast<std::uint64_t>(args.get_size("seed", 1));
  }
  config.sharded = args.flag("sharded");
  config.shard.shards = args.get_size("shards", 0);

  fault::FaultRunner runner(cluster, jobs, system.profiled_times(),
                            system.actual_times(), config);
  const fault::FaultRunReport report = runner.run();

  common::Table events({"t (s)", "event"});
  for (const auto& event : report.plan.events) {
    events.row().cell(event.time, 1).cell(fault::describe(event));
  }

  const sim::FaultStats& stats = report.faulted.faults;
  std::size_t completed = 0, cancelled = 0, dead = 0;
  for (const auto& job : report.faulted.jobs) {
    switch (job.outcome) {
      case sim::JobOutcome::Completed: ++completed; break;
      case sim::JobOutcome::Cancelled: ++cancelled; break;
      case sim::JobOutcome::DeadLettered: ++dead; break;
    }
  }
  double recovery_mean = 0.0;
  for (const Time latency : stats.recovery_latencies) recovery_mean += latency;
  if (!stats.recovery_latencies.empty()) {
    recovery_mean /= static_cast<double>(stats.recovery_latencies.size());
  }

  common::Table summary({"metric", "value"});
  summary.row().cell("jobs (completed/cancelled/dead)").cell(
      std::to_string(completed) + "/" + std::to_string(cancelled) + "/" +
      std::to_string(dead));
  summary.row().cell("machine failures").cell(stats.machine_failures);
  summary.row().cell("GPU failures").cell(stats.gpu_failures);
  summary.row().cell("recoveries").cell(stats.recoveries);
  summary.row().cell("cancellations").cell(stats.cancellations);
  summary.row().cell("restarts").cell(stats.restarts);
  summary.row().cell("dead-letters").cell(stats.dead_letters);
  summary.row().cell("tasks killed").cell(stats.tasks_killed);
  summary.row().cell("lost compute (s)").cell(stats.lost_compute, 1);
  summary.row().cell("replans (planner/greedy)").cell(
      std::to_string(report.replans_full) + "/" +
      std::to_string(report.replans_greedy));
  if (config.sharded && report.replan_shards_total > 0) {
    summary.row().cell("replan shards planned/offered").cell(
        std::to_string(report.replan_shards_planned) + "/" +
        std::to_string(report.replan_shards_total));
  }
  summary.row().cell("mean recovery latency (s)").cell(recovery_mean, 1);
  summary.row().cell("fault-free weighted JCT (s)").cell(
      report.fault_free.weighted_jct, 1);
  summary.row().cell("faulted weighted JCT (s)").cell(
      report.faulted.weighted_jct, 1);
  summary.row().cell("degradation ratio").cell(report.degradation_ratio, 3);
  summary.row().cell("fragmentation").cell(report.fragmentation, 3);
  summary.row().cell("starvation (worst inflation)").cell(report.starvation,
                                                          3);
  if (args.flag("csv")) {
    events.print_csv(std::cout);
    summary.print_csv(std::cout);
  } else {
    events.print(std::cout);
    summary.print(std::cout);
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const cluster::Cluster cluster = make_cluster(args);
  const workload::TraceConfig trace =
      workload::parse_arrival_spec(args.get("arrival-spec", "jobs=200,rate=2"));
  const auto seed = static_cast<std::uint64_t>(args.get_size("seed", 42));
  workload::TraceStream stream(seed, trace);

  serve::ServeConfig config;
  config.tick = args.get_double("tick", 0.0);
  config.lp_max_batch_jobs = args.get_size("lp-max-batch", 32);
  config.replan_budget = args.get_size("replan-budget", 0);
  if (args.flag("sharded")) {
    config.shard_min_batch_jobs = args.get_size("shard-min", 1);
    config.shard.shards = args.get_size("shards", 0);
  }

  fault::FaultPlan faults;
  const std::string fault_text = args.get("fault-spec");
  if (!fault_text.empty()) {
    // The stochastic knobs need an instance shape; materialize the same
    // trace the stream will draw (bit-identical by construction).
    const workload::JobSet shape = workload::TraceGenerator(seed).generate(trace);
    fault::FaultSpec spec = fault::parse_fault_spec(fault_text);
    const Time horizon =
        2.0 * static_cast<double>(trace.job_count) / trace.base_arrival_rate;
    faults = fault::generate_fault_plan(spec, cluster, shape, horizon);
  }

  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report = service.run(stream, faults);
  const double serve_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  common::Table summary({"metric", "value"});
  summary.row().cell("arrivals").cell(report.arrivals);
  summary.row().cell("planned jobs").cell(report.planned_jobs);
  summary.row()
      .cell("never planned (no GPU alive)")
      .cell(report.unplanned_jobs);
  summary.row().cell("batches (max jobs)").cell(
      std::to_string(report.batches) + " (" +
      std::to_string(report.max_batch_jobs) + ")");
  summary.row().cell("batches lp/flat/sharded/greedy").cell(
      std::to_string(report.lp_batches) + "/" +
      std::to_string(report.flat_batches) + "/" +
      std::to_string(report.sharded_batches) + "/" +
      std::to_string(report.greedy_batches));
  summary.row().cell("fault events").cell(report.fault_events);
  summary.row().cell("displaced tasks").cell(report.displaced_tasks);
  summary.row().cell("continuations").cell(report.continuations);
  summary.row().cell("cancels early/late").cell(
      std::to_string(report.canceled) + "/" +
      std::to_string(report.late_cancels));
  summary.row().cell("planned objective (s)").cell(report.objective, 1);
  summary.row().cell("serving (ms)").cell(serve_ms, 2);
  summary.row().cell("arrivals/s served").cell(
      serve_ms > 0.0 ? 1e3 * static_cast<double>(report.arrivals) / serve_ms
                     : 0.0,
      0);
  if (args.flag("csv")) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout);
  }
  return 0;
}

}  // namespace

int run_command(const Args& args) {
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "schedule") return cmd_schedule(args);
  if (args.command == "compare") return cmd_compare(args);
  if (args.command == "profile") return cmd_profile(args);
  if (args.command == "advise") return cmd_advise(args);
  if (args.command == "sweep") return cmd_sweep(args);
  if (args.command == "plan") return cmd_plan(args);
  if (args.command == "faults") return cmd_faults(args);
  if (args.command == "serve") return cmd_serve(args);
  usage("unknown command: " + args.command);
}

/// Flush telemetry files after the command ran (even a partial trace of a
/// failed run is worth keeping).
int write_telemetry(const Args& args) {
  const std::string trace_out = args.get("trace-out");
  const std::string metrics_out = args.get("metrics-out");
  const std::string flame_out = args.get("flame-out");
  int status = 0;
  if (!trace_out.empty()) {
    if (obs::write_chrome_trace_file(trace_out)) {
      std::cout << "wrote trace to " << trace_out
                << " (open in chrome://tracing)\n";
    } else {
      std::cerr << "error: cannot write " << trace_out << '\n';
      status = 1;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::Registry::instance().write_json_file(metrics_out)) {
      std::cout << "wrote metrics to " << metrics_out << '\n';
    } else {
      std::cerr << "error: cannot write " << metrics_out << '\n';
      status = 1;
    }
  }
  if (!flame_out.empty()) {
    if (obs::write_flame_summary_file(flame_out)) {
      std::cout << "wrote span summary to " << flame_out << '\n';
    } else {
      std::cerr << "error: cannot write " << flame_out << '\n';
      status = 1;
    }
  }
  return status;
}

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const bool tracing = !args.get("trace-out").empty() ||
                         !args.get("flame-out").empty();
    if (tracing) obs::Tracer::instance().enable();
    int status = 1;
    try {
      status = run_command(args);
    } catch (...) {
      write_telemetry(args);
      throw;
    }
    const int telemetry_status = write_telemetry(args);
    return status != 0 ? status : telemetry_status;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
