// Trace-driven discrete-event simulator (§7.1's simulator, in C++).
//
// Executes a `Schedule` (ordered task sequence per GPU) under the real
// constraints of §5.1:
//   * tasks cannot start before their job arrives (4);
//   * round r+1 waits for every round-r task's compute AND sync (7);
//   * one task per GPU, non-preemptible (8);
//   * a task's sync overlaps the next task on its GPU (Algorithm 1 l.16) —
//     the GPU frees at compute end, the round barrier waits for sync end.
//
// Switching cost is charged per the configured SwitchCostModel; under the
// Hare policy each GPU carries a SpeculativeMemoryManager so same-job
// revisits skip the model transfer. Actual task times come from the
// supplied (noise-free) time table, optionally jittered per-task with a
// log-normal factor to emulate the testbed ("testbed mode"); the paper's
// <5% testbed-vs-simulator gap experiment compares the two modes.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "profiler/time_table.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "switching/switch_model.hpp"
#include "workload/job.hpp"

namespace hare::sim {

struct SimConfig {
  switching::SwitchModelConfig switching{};
  /// Give each GPU a speculative memory manager (only meaningful under the
  /// Hare switch policy; the ablation bench turns it off).
  bool use_memory_manager = true;
  /// Log-normal jitter CV on actual per-task compute times; 0 = exact
  /// simulator mode, >0 = testbed mode.
  double runtime_noise_cv = 0.0;
  std::uint64_t noise_seed = 42;
  /// Model uplink contention with processor sharing instead of charging
  /// the profiled T^s as a constant.
  bool model_network_contention = false;
  /// Contention mode only: RPC/aggregation latency appended to a transfer,
  /// and payload scale on the 2×parameter-bytes push+pull volume. Must
  /// match the PerfModelConfig used for profiling for apples-to-apples.
  Time sync_latency_s = 0.010;
  double sync_volume_factor = 1.0;
  /// Record per-GPU busy intervals (utilization timelines).
  bool record_timeline = false;

  /// Fault injection: replay this plan's events inside the run (nullptr =
  /// fault-free; every field below is inert without it). The plan's events
  /// enter the event queue at init, so fault runs keep the strict
  /// (time, sequence) order that makes serial/pooled sweeps bit-identical.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Checkpoint-restart policy for jobs displaced by failures.
  fault::RetryPolicy retry{};
  /// Called on failure/recovery to plan displaced jobs onto the surviving
  /// cluster (fault::FaultRunner wires the real planner in). Jobs that
  /// cannot be replanned — no hook, or the hook returns no placement for
  /// their remaining rounds — are dead-lettered.
  const fault::ReplanFn* replan = nullptr;
};

namespace detail {
struct SimScratchImpl;
}

/// Reusable per-run working state: event queue storage, per-GPU and
/// per-job state vectors, noise draws, and the memoized per-job /
/// per-(model, GPU-type) lookup tables. A run fully re-initializes every
/// field, so reusing one scratch across runs (the sweep engine keeps one
/// per worker thread) changes nothing but the allocation count. Not
/// thread-safe: one scratch per concurrent run.
class SimScratch {
 public:
  SimScratch();
  ~SimScratch();
  SimScratch(SimScratch&&) noexcept;
  SimScratch& operator=(SimScratch&&) noexcept;
  SimScratch(const SimScratch&) = delete;
  SimScratch& operator=(const SimScratch&) = delete;

 private:
  friend class Simulator;
  std::unique_ptr<detail::SimScratchImpl> impl_;
};

class Simulator {
 public:
  /// `actual` holds the ground-truth task times (profiler::Profiler::exact);
  /// schedulers may have planned with a noisier profiled table.
  Simulator(const cluster::Cluster& cluster, const workload::JobSet& jobs,
            const profiler::TimeTable& actual, SimConfig config = {});

  /// Execute the plan; validates it structurally first.
  [[nodiscard]] SimResult run(const Schedule& schedule) const;

  /// Same, reusing `scratch`'s buffers instead of allocating fresh ones.
  [[nodiscard]] SimResult run(const Schedule& schedule,
                              SimScratch& scratch) const;

 private:
  const cluster::Cluster& cluster_;
  const workload::JobSet& jobs_;
  const profiler::TimeTable& actual_;
  SimConfig config_;
};

}  // namespace hare::sim
