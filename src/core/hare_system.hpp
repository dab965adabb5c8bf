// HareSystem — the end-to-end facade (Fig 9's system overview).
//
// Wires the preparation stage (job submission → profiler + profile DB →
// scheduling algorithm) to the training stage (executors = the simulator
// with the fast-task-switching models). One call runs a scheduler against
// the submitted workload and returns its plan and the realized metrics; a
// comparison helper runs Hare plus the four baselines of §7.1 on identical
// inputs.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/bounds.hpp"
#include "core/hare_scheduler.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/profiler.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace hare::core {

struct RunReport {
  std::string scheduler;
  sim::Schedule plan;          ///< the scheduler's plan, as simulated
  sim::SimResult result;
  double scheduling_ms = 0.0;  ///< wall time of the algorithm itself
  ApproximationReport approximation;
};

class HareSystem {
 public:
  struct Options {
    std::uint64_t seed = 42;
    workload::PerfModelConfig perf{};
    profiler::ProfilerConfig profiler{};
    sim::SimConfig sim{};
    /// Consult/extend the historical profile database.
    bool use_profile_db = true;
  };

  explicit HareSystem(cluster::Cluster cluster);
  HareSystem(cluster::Cluster cluster, Options options);

  /// Submit one job (preparation stage input).
  JobId submit(workload::JobSpec spec);
  /// Submit a whole trace.
  void submit_all(const workload::JobSet& jobs);

  /// Profiling runs lazily before the first run() after a submission and
  /// covers only the jobs submitted since the previous one: the tables
  /// read exactly as one profile()/exact() of every submitted job.
  [[nodiscard]] RunReport run(sched::Scheduler& scheduler);

  /// Same, reusing `scratch`'s simulator buffers (the sweep engine keeps
  /// one per worker thread). Never changes a result.
  [[nodiscard]] RunReport run(sched::Scheduler& scheduler,
                              sim::SimScratch& scratch);

  /// Hare + the four §7.1 baselines on the identical instance.
  [[nodiscard]] std::vector<RunReport> run_comparison(
      HareConfig hare_config = {});

  [[nodiscard]] const cluster::Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const workload::JobSet& jobs() const { return jobs_; }
  [[nodiscard]] const profiler::ProfileDb& profile_db() const { return db_; }
  /// The db profiling consults and extends. Load saved entries into it
  /// before the first run() or profiled_times() to warm-start profiling.
  [[nodiscard]] profiler::ProfileDb& profile_db() { return db_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Profiled table the schedulers plan with (profiles if stale).
  [[nodiscard]] const profiler::TimeTable& profiled_times();
  /// Ground-truth table the simulator executes with.
  [[nodiscard]] const profiler::TimeTable& actual_times();

 private:
  void ensure_profiled();

  cluster::Cluster cluster_;
  Options options_;
  workload::JobSet jobs_;
  profiler::ProfileDb db_;
  /// One profiler for the system's lifetime: its seed stream continues
  /// across incremental profiling calls.
  profiler::Profiler profiler_;
  profiler::TimeTable profiled_;
  profiler::TimeTable actual_;
  profiler::ShapeRows profiled_rows_;  ///< shape → row of profiled_
  profiler::ShapeRows actual_rows_;    ///< shape → row of actual_
  bool profiled_fresh_ = false;
};

/// The standard §7.1 line-up: Hare, Gavel_FIFO, SRTF, Sched_Homo,
/// Sched_Allox.
[[nodiscard]] std::vector<std::unique_ptr<sched::Scheduler>>
make_standard_schedulers(HareConfig hare_config = {});

}  // namespace hare::core
