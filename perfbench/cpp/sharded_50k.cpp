// sharded_50k: a streamed 50k-job trace on 4096 GPUs in 32 rack shards,
// planned by the two-level HierarchicalPlanner. The arrival rate loads
// the cluster (the 0.5 jobs/s of the six-figure scale bench leaves it
// ~0.3% busy). The work is shard assignment, per-shard fluid planning and
// the fan-out (shard, exp, core); the trace shares a handful of job
// shapes, so profiling is nearly all memo hits, and there is no LP and no
// fault work.
//
// The timed plans fan the shards out serially. The 4-worker pooled plan
// is checked against them on every run and timed in the traced run
// (shard.plan_ms, exp.pool_speedup): on a shared 4-vCPU host its run-to-run
// spread was 0.18-0.36 (interquartile range / median over ten runs),
// wider than any bound the end-to-end metrics may carry, while the serial
// plan's stays near 0.1.
#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "profiler/profiler.hpp"
#include "shard/hierarchical_planner.hpp"
#include "shard/shard_partition.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hare;

constexpr std::size_t kJobs = 50'000;
constexpr std::size_t kGpus = 4096;
constexpr std::size_t kShards = 32;
constexpr std::size_t kMachinesPerRack = kGpus / 8 / kShards;
/// Quiet-window arrival rate (jobs/s); bursts run at six times this.
constexpr double kArrivalRate = 23.0;
/// Pooled plans the traced run times after its first, cold one.
constexpr int kPooledPlans = 5;

shard::ShardPlannerConfig planner_config(bool serial) {
  shard::ShardPlannerConfig config;
  config.shards = kShards;
  config.workers = serial ? 0 : kWorkers;
  config.serial = serial;
  return config;
}

struct State {
  cluster::Cluster cluster =
      cluster::make_simulation_cluster(kGpus, 25.0, 8, kMachinesPerRack);
  workload::JobSet jobs;
  profiler::TimeTable times;
  ProfileCounts profile;
  shard::HierarchicalPlanner planner{planner_config(true)};
  sim::Schedule plan;
};

std::unique_ptr<State> build(std::uint64_t seed, Tracer& tracer) {
  auto state = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "workload.gen");
    workload::TraceStream stream(
        derive_seed(seed, 1), loaded_trace(kJobs, kArrivalRate, 30.0, 90.0));
    while (!stream.exhausted()) state->jobs.add_job(stream.next());
  }
  {
    ScopedSpan span(tracer, "profiler.profile");
    const profiler::Profiler profiler(workload::PerfModel{},
                                      profiler::ProfilerConfig{}, seed);
    state->times = profiler.exact(state->jobs, state->cluster);
    state->times.precompute();
    state->profile.add(profiler);
  }
  {
    // The first, cold plan fills the planner's scratch; users pay it once.
    ScopedSpan span(tracer, "shard.cold_plan");
    state->plan = state->planner.schedule(
        sched::SchedulerInput{state->cluster, state->jobs, state->times});
  }
  return state;
}

}  // namespace

RunResult run_sharded_50k(const Options& options, Tracer& tracer) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<State> state = repeated_setup<State>(
      options.trace, tracer,
      [&] { return build(options.seed, tracer); }, setup_s);
  const sched::SchedulerInput input{state->cluster, state->jobs,
                                    state->times};

  std::vector<double> plan_ms;
  {
    ScopedSpan timed(tracer, "timed");
    plan_ms = timed_cycles(
        options.seconds, 1,
        [&](std::size_t) {
          ScopedSpan span(tracer, "exp.serial_plan");
          state->plan = state->planner.schedule(input);
        },
        [](std::size_t, std::size_t) {});
  }
  record_timing(result, setup_s, plan_ms, kJobs);
  const shard::HierarchicalPlanInfo& info = state->planner.last_plan();

  // Output checks: a plan over the 4-worker pool is bit-identical to the
  // serial plan, which validates and replays in the simulator.
  shard::HierarchicalPlanner pooled(planner_config(false));
  Quality quality;
  {
    ScopedSpan span(tracer, "check");
    {
      ScopedSpan pooled_span(tracer, "shard.cold_pooled_plan");
      result.check(identical(pooled.schedule(input), state->plan),
                   "pooled plan differs from the serial plan");
    }
    std::string why;
    result.check(validates(state->plan, state->jobs, &why),
                 "invalid plan: " + why);
    const sim::Simulator simulator(state->cluster, state->jobs, state->times);
    ScopedSpan sim_span(tracer, "sim.run");
    const sim::SimResult replay = simulator.run(state->plan);
    quality = quality_of(replay);
    result.notes.push_back("mean GPU utilization " +
                           std::to_string(replay.mean_gpu_utilization()));
  }
  result.attempted = kJobs * plan_ms.size();
  result.failed = (kJobs - quality.completed) * plan_ms.size();
  result.e2e("weighted_jct_s", quality.weighted_jct(), "s");
  result.e2e("makespan_s", quality.makespan, "s");
  result.e2e("completed_ratio", quality.completed_ratio(), "ratio");

  if (!options.trace) return result;

  {
    ScopedSpan span(tracer, "diagnostic");
    for (int i = 0; i < kPooledPlans; ++i) {
      ScopedSpan plan_span(tracer, "shard.plan");
      result.check(identical(pooled.schedule(input), state->plan),
                   "pooled plan differs from the serial plan");
    }
    ScopedSpan partition_span(tracer, "shard.partition");
    result.check(
        shard::partition_cluster(state->cluster, kShards).size() == kShards,
        "unexpected shard count");
  }
  std::size_t empty_shards = 0;
  for (const shard::ShardStats& s : info.shards) {
    empty_shards += s.jobs == 0 ? 1 : 0;
  }
  const double pooled_ms = tracer.mean_ms("shard.plan");
  const double serial_ms = tracer.mean_ms("exp.serial_plan");
  const double sim_ms = tracer.total_ms("sim.run");
  record_setup_layers(result, tracer, state->jobs.task_count(),
                      state->profile);
  result.layer("shard.plan_ms", pooled_ms, "ms");
  result.layer("shard.partition_ms", tracer.total_ms("shard.partition"), "ms");
  result.layer("shard.imbalance", info.imbalance, "ratio");
  result.layer("shard.migrated_jobs", static_cast<double>(info.migrated_jobs),
               "count");
  result.layer("shard.empty_shards", static_cast<double>(empty_shards),
               "count");
  result.layer("exp.serial_plan_ms", serial_ms, "ms");
  result.layer("exp.pool_speedup", ratio(serial_ms, pooled_ms), "ratio");
  result.layer("exp.workers", static_cast<double>(kWorkers), "count");
  result.layer("sim.run_ms", sim_ms, "ms");
  result.layer("sim.tasks_per_s",
               ratio(static_cast<double>(state->jobs.task_count()),
                     sim_ms / 1000.0),
               "1/s");
  result.layer("switching.overhead_s", quality.switch_overhead_s, "s");
  result.layer("switching.resident_hit_ratio", quality.resident_hit_ratio(),
               "ratio");
  return result;
}

}  // namespace perfbench
