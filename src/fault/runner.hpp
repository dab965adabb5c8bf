// End-to-end fault scenario runner: plan -> fault-free run -> inject ->
// replan-on-failure -> degradation report.
//
// The runner owns the seam the simulator's `ReplanFn` hook needs: on a
// failure it builds a re-indexed sub-instance over the *surviving*
// cluster (machines keep their network domains; dead GPUs vanish) holding
// only the displaced jobs' remaining rounds, plans it with the real
// planner — the flat core::HareScheduler, or shard::HierarchicalPlanner
// when `sharded` is set, in which case only shards that receive displaced
// jobs actually plan (empty shards short-circuit; the report's shard
// counters prove it) — and maps the sub-schedule back to original
// TaskIds. A bounded replan budget guards planner cost under failure
// storms: once spent, repairs fall back to a greedy WSPT-ordered
// placement over the survivors that runs each task through the planner's
// earliest-finish scan (core::earliest_finish_scan) on a masked T^c row —
// the same placements as a per-GPU loop with a strict-< tie-break.
//
// Everything is deterministic: the fault plan comes from a seeded spec,
// the planner is deterministic, and the simulator orders fault events by
// (time, sequence) — the same scenario is bit-identical across repeated,
// serial, and pooled runs (tests/test_fault.cpp holds it to that).
#pragma once

#include <cstddef>
#include <memory>

#include "core/hare_scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "shard/hierarchical_planner.hpp"
#include "sim/simulator.hpp"

namespace hare::fault {

struct FaultRunnerConfig {
  FaultSpec spec;
  /// Base simulator configuration (switching policy, network mode, ...);
  /// the runner fills in the fault plan / retry policy / replan hook.
  sim::SimConfig sim{};
  /// Flat planner configuration (baseline plan and flat replans).
  core::HareConfig hare{};
  /// Plan (and replan) through the two-level sharded planner instead of
  /// the flat scheduler.
  bool sharded = false;
  shard::ShardPlannerConfig shard{};
};

struct FaultRunReport {
  sim::Schedule schedule;    ///< baseline (pre-fault) plan
  FaultPlan plan;            ///< the injected event timeline
  sim::SimResult fault_free;
  sim::SimResult faulted;

  /// Achieved vs. fault-free weighted JCT over the jobs that completed in
  /// the faulted run (>= 1.0 minus noise; 1.0 = faults cost nothing).
  double degradation_ratio = 1.0;
  /// 1 - busy / alive GPU-time over the faulted makespan: capacity that
  /// survived the faults but ran nothing (Mamirov's fragmentation).
  double fragmentation = 0.0;
  /// Worst per-job JCT inflation (faulted / fault-free) across completed
  /// jobs — the starvation face of a degradation that averages look hide.
  double starvation = 1.0;

  std::size_t replans_full = 0;    ///< replans through the real planner
  std::size_t replans_greedy = 0;  ///< budget-exhausted greedy repairs
  /// Sharded replans only: shards that actually planned (had displaced
  /// jobs assigned) vs. shards the partitions offered, summed over
  /// replans. planned < total proves failures replan locally.
  std::size_t replan_shards_planned = 0;
  std::size_t replan_shards_total = 0;
};

class FaultRunner {
 public:
  /// `profiled` is what planning (baseline and replans) sees; `actual` is
  /// the ground truth the simulator charges.
  FaultRunner(const cluster::Cluster& cluster, const workload::JobSet& jobs,
              const profiler::TimeTable& profiled,
              const profiler::TimeTable& actual, FaultRunnerConfig config);

  [[nodiscard]] FaultRunReport run();

 private:
  [[nodiscard]] ReplanResult replan(const ReplanRequest& request);
  [[nodiscard]] ReplanResult replan_with_planner(const ReplanRequest& request);
  [[nodiscard]] ReplanResult replan_greedy(const ReplanRequest& request);

  const cluster::Cluster& cluster_;
  const workload::JobSet& jobs_;
  const profiler::TimeTable& profiled_;
  const profiler::TimeTable& actual_;
  FaultRunnerConfig config_;
  FaultRunReport report_;
  ReplanFn replan_fn_;
};

}  // namespace hare::fault
