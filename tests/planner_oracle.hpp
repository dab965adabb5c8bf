// Reference Algorithm 1: the planner the library's fast path must match.
//
// A direct implementation of §5.2 with none of core::HareScheduler's
// accelerations: the fitting matrix is rebuilt on every pass, every
// placement is an O(G) scan through TimeTable calls with a first-strict-<
// incumbent, per-job minima and maxima are rescanned rather than read from
// the table's aggregate cache, each LpCuts round fully re-sorts every
// machine's tasks (opt::separate_queyranne_cut), and π is sorted with a
// comparator that loads H per comparison. The arithmetic, comparators and
// tie-breaks are the library's, so the two must agree bit for bit: same
// task→GPU sequences, same predicted starts, same planned objective, and
// in LpCuts mode the same cut trajectory.
#pragma once

#include <vector>

#include "core/hare_scheduler.hpp"
#include "core/relaxation.hpp"
#include "linear_program.hpp"
#include "sched/scheduler.hpp"
#include "sim/schedule.hpp"

namespace hare::testing {

/// Reference core::HareRelaxation::solve (Fluid or LpCuts, per `config`).
/// Fills the same RelaxationResult fields; `sep_tasks_resorted` always
/// equals `sep_tasks_total`, since every round re-sorts every machine.
/// `program` (optional, LpCuts mode) receives the final LP in row form:
/// perturbed objective and every appended cut, stated in the library's
/// order. Its variables are x_i per task (index = task id), then per job
/// its round ends and its completion C_n.
[[nodiscard]] core::RelaxationResult oracle_relax(
    const cluster::Cluster& cluster, const workload::JobSet& jobs,
    const profiler::TimeTable& times, const core::RelaxationConfig& config,
    const core::SubProblem& sub = {}, LinearProgram* program = nullptr);

/// Reference core::HareScheduler::schedule for relaxed sync, under either
/// placement rule.
[[nodiscard]] sim::Schedule oracle_schedule(const sched::SchedulerInput& input,
                                            const core::HareConfig& config);

/// Reference core::HareScheduler::schedule_jobs: plan the `batch` jobs
/// (ascending ids) on top of the per-GPU horizons `phi` (empty = all free
/// at 0), append them to `schedule`, and advance `phi`. It relaxes into
/// fresh instance-wide arrays and builds π by a scan of every task, the
/// O(instance) way. Returns the batch's planned weighted completion.
double oracle_schedule_jobs(const sched::SchedulerInput& input,
                            const core::HareConfig& config,
                            const std::vector<JobId>& batch,
                            std::vector<Time>& phi, sim::Schedule& schedule);

}  // namespace hare::testing
