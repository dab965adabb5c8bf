// Exact Hare_Sched oracle for tiny instances.
//
// Branch-and-bound over (task → GPU, per-GPU order) decisions under the
// full constraint set of §5.1 — arrivals (4), round barriers (7),
// non-preemption (8) — minimizing Σ w_n C_n. Exponential, intended for
// instances of at most ~10 tasks; it certifies the true optimum so tests
// can measure Algorithm 1's *actual* optimality gap (not just the gap to a
// lower bound) and verify Theorem 4's α(2+α) guarantee against OPT itself.
#pragma once

#include "cluster/cluster.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"

namespace hare::testing {

struct ExactScheduleResult {
  double objective = 0.0;  ///< optimal Σ w_n C_n
  /// Optimal assignment and start per task (by TaskId value).
  std::vector<GpuId> gpu;
  std::vector<Time> start;
  std::size_t nodes_explored = 0;
};

/// Throws when the instance exceeds `max_tasks` (guard against accidental
/// exponential blowups in tests).
[[nodiscard]] ExactScheduleResult solve_exact_schedule(
    const cluster::Cluster& cluster, const workload::JobSet& jobs,
    const profiler::TimeTable& times, std::size_t max_tasks = 10);

}  // namespace hare::testing
