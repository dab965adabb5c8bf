#include "fault/runner.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/placement_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "profiler/time_table.hpp"
#include "workload/feasibility.hpp"

namespace hare::fault {

namespace {

/// Machines with at least one surviving GPU, re-indexed into a standalone
/// cluster (domains preserved so the sharded planner cuts the same
/// topology), plus the positional local -> global GPU mapping.
struct SurvivingCluster {
  cluster::Cluster sub;
  std::vector<GpuId> global_gpu;  ///< local GpuId g <-> global_gpu[g]
};

SurvivingCluster surviving_cluster(const cluster::Cluster& cluster,
                                   const std::vector<char>& gpu_alive) {
  SurvivingCluster result;
  cluster::ClusterBuilder builder;
  for (const cluster::Machine& machine : cluster.machines()) {
    std::vector<GpuId> alive;
    for (const GpuId gpu_id : machine.gpus) {
      if (gpu_alive[static_cast<std::size_t>(gpu_id.value())]) {
        alive.push_back(gpu_id);
      }
    }
    if (alive.empty()) continue;
    builder.add_machine(cluster.gpu(alive.front()).type, alive.size(),
                        machine.network_gbps, machine.name, machine.domain);
    result.global_gpu.insert(result.global_gpu.end(), alive.begin(),
                             alive.end());
  }
  result.sub = builder.build();
  return result;
}

}  // namespace

FaultRunner::FaultRunner(const cluster::Cluster& cluster,
                         const workload::JobSet& jobs,
                         const profiler::TimeTable& profiled,
                         const profiler::TimeTable& actual,
                         FaultRunnerConfig config)
    : cluster_(cluster),
      jobs_(jobs),
      profiled_(profiled),
      actual_(actual),
      config_(std::move(config)) {
  replan_fn_ = [this](const ReplanRequest& request) { return replan(request); };
}

ReplanResult FaultRunner::replan(const ReplanRequest& request) {
  if (report_.replans_full < config_.spec.replan_budget) {
    ++report_.replans_full;
    static obs::Counter& full = obs::counter("fault.replans_full");
    full.add();
    return replan_with_planner(request);
  }
  ++report_.replans_greedy;
  static obs::Counter& greedy = obs::counter("fault.replans_greedy");
  greedy.add();
  return replan_greedy(request);
}

ReplanResult FaultRunner::replan_with_planner(const ReplanRequest& request) {
  HARE_SPAN("fault", "fault.replan_full");
  ReplanResult result;
  result.appended.resize(cluster_.gpu_count());

  const SurvivingCluster survivors =
      surviving_cluster(cluster_, request.gpu_alive);
  if (survivors.sub.gpu_count() == 0) return result;  // dead-letter them all

  // Sub-instance: each displaced job's remaining rounds become a fresh job
  // arriving at its backoff release. Jobs no surviving GPU can hold are
  // left out (the simulator dead-letters what the answer doesn't cover).
  workload::JobSet sub_jobs;
  std::vector<JobId> sub_global;          ///< sub job j <-> sub_global[j]
  std::vector<RoundIndex> sub_first_round;  ///< its first re-run round
  for (const ReplanRequest::JobRequest& jr : request.jobs) {
    const workload::Job& job = jobs_.job(jr.job);
    const std::uint32_t remaining =
        job.rounds() - static_cast<std::uint32_t>(jr.first_round);
    if (remaining == 0) continue;
    bool fits = false;
    for (const auto& gpu : survivors.sub.gpus()) {
      if (workload::task_fits(job, gpu)) {
        fits = true;
        break;
      }
    }
    if (!fits) continue;
    workload::JobSpec spec = job.spec;
    spec.rounds = remaining;
    spec.arrival = jr.release;
    sub_jobs.add_job(std::move(spec));
    sub_global.push_back(jr.job);
    sub_first_round.push_back(jr.first_round);
  }
  if (sub_jobs.empty()) return result;

  profiler::TimeTable sub_times;
  profiler::GatherBuffers buffers;
  profiler::gather_sub_table(profiled_, sub_global, survivors.global_gpu,
                             buffers, sub_times);

  const sched::SchedulerInput input{survivors.sub, sub_jobs, sub_times};
  sim::Schedule sub_schedule;
  if (config_.sharded) {
    shard::HierarchicalPlanner planner(config_.shard);
    sub_schedule = planner.schedule(input);
    const shard::HierarchicalPlanInfo& info = planner.last_plan();
    report_.replan_shards_total += info.shard_count;
    for (const shard::ShardStats& stats : info.shards) {
      if (stats.jobs > 0) ++report_.replan_shards_planned;
    }
  } else {
    core::HareScheduler planner(config_.hare);
    sub_schedule = planner.schedule(input);
  }

  // Scatter the sub-schedule back onto original task/GPU ids.
  for (std::size_t g = 0; g < sub_schedule.sequences.size(); ++g) {
    const GpuId global = survivors.global_gpu[g];
    auto& out = result.appended[static_cast<std::size_t>(global.value())];
    for (const TaskId local_task : sub_schedule.sequences[g]) {
      const workload::Task& task = sub_jobs.task(local_task);
      const auto j = static_cast<std::size_t>(task.job.value());
      const workload::Job& job = jobs_.job(sub_global[j]);
      const std::size_t round = static_cast<std::size_t>(sub_first_round[j]) +
                                static_cast<std::size_t>(task.round);
      out.push_back(job.task_at(static_cast<std::uint32_t>(round), task.slot));
    }
  }
  return result;
}

ReplanResult FaultRunner::replan_greedy(const ReplanRequest& request) {
  HARE_SPAN("fault", "fault.replan_greedy");
  ReplanResult result;
  result.appended.resize(cluster_.gpu_count());

  // WSPT over remaining work (weight / cheapest remaining processing
  // time), ties by job id: the same priority the fluid relaxation uses,
  // without the LP. Placement is earliest-finish on the survivors' load
  // vector, rounds in order, barriers approximated by the round's worst
  // finish + sync.
  std::vector<Time> phi = request.gpu_busy_until;
  std::vector<std::size_t> order(request.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> priority(request.jobs.size(), 0.0);
  for (std::size_t i = 0; i < request.jobs.size(); ++i) {
    const ReplanRequest::JobRequest& jr = request.jobs[i];
    const workload::Job& job = jobs_.job(jr.job);
    const double remaining_tasks =
        static_cast<double>(job.rounds() -
                            static_cast<std::uint32_t>(jr.first_round)) *
        static_cast<double>(job.tasks_per_round());
    const double work =
        std::max(1e-12, remaining_tasks * profiled_.min_total(jr.job));
    priority[i] = job.spec.weight / work;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (priority[a] != priority[b]) return priority[a] > priority[b];
    return request.jobs[a].job.value() < request.jobs[b].job.value();
  });

  // One masked T^c row per job (+∞ on dead or too-small GPUs), expanded
  // from the table's columns, feeds the planner's earliest-finish scan,
  // which keeps the first strict minimum in ascending GPU order — the same
  // choice as a per-GPU loop.
  const std::size_t gpu_count = cluster_.gpu_count();
  std::vector<Bytes> memory(gpu_count, 0);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    if (request.gpu_alive[g]) {
      memory[g] = cluster_.gpu(GpuId(static_cast<int>(g))).spec().memory;
    }
  }
  std::vector<Time> row(gpu_count);
  const std::vector<std::uint32_t>& column_of = profiled_.column_map();
  for (const std::size_t i : order) {
    const ReplanRequest::JobRequest& jr = request.jobs[i];
    const workload::Job& job = jobs_.job(jr.job);
    const Bytes footprint = workload::task_memory_footprint(
        workload::model_spec(job.spec.model), job.effective_batch_size());
    const Time* tc = profiled_.tc_columns(jr.job);
    bool fits_any = false;
    for (std::size_t g = 0; g < gpu_count; ++g) {
      const bool fits = request.gpu_alive[g] && footprint <= memory[g];
      row[g] = fits ? tc[column_of[g]] : kTimeInfinity;
      fits_any = fits_any || fits;
    }
    if (!fits_any) continue;  // dead-letters via uncovered rounds

    Time job_ready = jr.release;
    for (std::uint32_t r = static_cast<std::uint32_t>(jr.first_round);
         r < job.rounds(); ++r) {
      Time barrier = job_ready;
      for (std::uint32_t slot = 0; slot < job.tasks_per_round(); ++slot) {
        const core::PlacementCandidate best = core::earliest_finish_scan(
            row.data(), phi.data(), gpu_count, job_ready);
        HARE_CHECK_MSG(best.valid(), "no finite T^c for job " << jr.job);
        const GpuId gpu_id(static_cast<int>(best.gpu));
        phi[best.gpu] = best.finish;
        barrier = std::max(barrier, best.finish + profiled_.ts(jr.job, gpu_id));
        result.appended[best.gpu].push_back(job.task_at(r, slot));
      }
      job_ready = barrier;
    }
  }
  return result;
}

FaultRunReport FaultRunner::run() {
  HARE_SPAN("fault", "fault.run");
  report_ = {};

  const sched::SchedulerInput input{cluster_, jobs_, profiled_};
  if (config_.sharded) {
    shard::HierarchicalPlanner planner(config_.shard);
    report_.schedule = planner.schedule(input);
  } else {
    core::HareScheduler planner(config_.hare);
    report_.schedule = planner.schedule(input);
  }

  sim::Simulator baseline(cluster_, jobs_, actual_, config_.sim);
  report_.fault_free = baseline.run(report_.schedule);

  report_.plan = generate_fault_plan(config_.spec, cluster_, jobs_,
                                     report_.fault_free.makespan);

  sim::SimConfig faulted_config = config_.sim;
  faulted_config.fault_plan = &report_.plan;
  faulted_config.retry = config_.spec.retry;
  faulted_config.replan = &replan_fn_;
  sim::Simulator faulted(cluster_, jobs_, actual_, faulted_config);
  report_.faulted = faulted.run(report_.schedule);

  // Degradation: achieved weighted JCT over the jobs that completed under
  // faults vs. what the same jobs cost fault-free. Starvation is the
  // worst single-job inflation in that set.
  double achieved = 0.0;
  double baseline_jct = 0.0;
  double worst = 1.0;
  for (std::size_t j = 0; j < report_.faulted.jobs.size(); ++j) {
    const sim::JobRecord& after = report_.faulted.jobs[j];
    if (after.outcome != sim::JobOutcome::Completed) continue;
    const sim::JobRecord& before = report_.fault_free.jobs[j];
    achieved += after.weight * after.jct();
    baseline_jct += before.weight * before.jct();
    if (before.jct() > 0.0) {
      worst = std::max(worst, after.jct() / before.jct());
    }
  }
  report_.degradation_ratio =
      baseline_jct > 0.0 ? achieved / baseline_jct : 1.0;
  report_.starvation = worst;

  // Fragmentation: alive-but-idle fraction of the faulted run. Downtime
  // windows per GPU are replayed from the fault plan and clipped to the
  // makespan.
  const Time makespan = report_.faulted.makespan;
  if (makespan > 0.0) {
    std::vector<Time> down_since(cluster_.gpu_count(), -1.0);
    std::vector<Time> downtime(cluster_.gpu_count(), 0.0);
    const auto mark_down = [&](GpuId gpu_id, Time t) {
      const std::size_t g = static_cast<std::size_t>(gpu_id.value());
      if (down_since[g] < 0.0) down_since[g] = std::min(t, makespan);
    };
    const auto mark_up = [&](GpuId gpu_id, Time t) {
      const std::size_t g = static_cast<std::size_t>(gpu_id.value());
      if (down_since[g] >= 0.0) {
        downtime[g] += std::max(0.0, std::min(t, makespan) - down_since[g]);
        down_since[g] = -1.0;
      }
    };
    for (const FaultEvent& event : report_.plan.events) {
      switch (event.kind) {
        case FaultKind::MachineFail:
          for (const GpuId gpu_id : cluster_.machine(event.machine).gpus) {
            mark_down(gpu_id, event.time);
          }
          break;
        case FaultKind::MachineRecover:
          for (const GpuId gpu_id : cluster_.machine(event.machine).gpus) {
            mark_up(gpu_id, event.time);
          }
          break;
        case FaultKind::GpuFail:
          mark_down(event.gpu, event.time);
          break;
        case FaultKind::GpuRecover:
          mark_up(event.gpu, event.time);
          break;
        default:
          break;
      }
    }
    Time alive_total = 0.0;
    Time busy_total = 0.0;
    for (std::size_t g = 0; g < cluster_.gpu_count(); ++g) {
      Time down = downtime[g];
      if (down_since[g] >= 0.0) down += makespan - down_since[g];
      alive_total += makespan - std::min(down, makespan);
      busy_total += report_.faulted.gpus[g].busy_compute +
                    report_.faulted.gpus[g].busy_switch;
    }
    report_.fragmentation =
        alive_total > 0.0
            ? std::clamp(1.0 - busy_total / alive_total, 0.0, 1.0)
            : 0.0;
  }

  obs::gauge("fault.degradation_ratio").set(report_.degradation_ratio);
  obs::gauge("fault.fragmentation").set(report_.fragmentation);
  obs::gauge("fault.starvation").set(report_.starvation);

  common::log_debug("fault: scenario done, degradation ",
                    report_.degradation_ratio, ", dead_letters ",
                    report_.faulted.faults.dead_letters, ", replans ",
                    report_.replans_full, "+", report_.replans_greedy);
  return report_;
}

}  // namespace hare::fault
