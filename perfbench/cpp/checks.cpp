#include "checks.hpp"

#include <limits>
#include <vector>

#include "common/error.hpp"

namespace perfbench {

using namespace hare;

bool identical(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences &&
         a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

bool validates(const sim::Schedule& schedule, const workload::JobSet& jobs,
               std::string* why) {
  try {
    sim::validate_schedule(schedule, jobs);
    return true;
  } catch (const common::Error& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

Quality quality_of(const sim::SimResult& result) {
  Quality q;
  q.makespan = result.makespan;
  q.jobs = result.jobs.size();
  for (const sim::JobRecord& job : result.jobs) {
    switch (job.outcome) {
      case sim::JobOutcome::Completed:
        ++q.completed;
        q.weighted_flow += job.weight * job.jct();
        q.weight += job.weight;
        break;
      case sim::JobOutcome::Cancelled:
        ++q.cancelled;
        break;
      case sim::JobOutcome::DeadLettered:
        ++q.dead_lettered;
        break;
    }
  }
  for (const sim::SwitchStat& stat : result.switch_stats) {
    q.switch_overhead_s += stat.total_switch_time;
    q.switches += stat.switch_count;
    q.resident_hits += stat.resident_hits;
  }
  return q;
}

SubInstance restrict_to(const sim::Schedule& schedule,
                        const workload::JobSet& jobs,
                        const std::vector<char>& keep) {
  SubInstance sub;
  constexpr TaskId::underlying_type kDropped =
      std::numeric_limits<TaskId::underlying_type>::max();
  std::vector<TaskId::underlying_type> new_id(jobs.task_count(), kDropped);
  for (const workload::Job& job : jobs.jobs()) {
    if (!keep[static_cast<std::size_t>(job.id.value())]) continue;
    const JobId id = sub.jobs.add_job(job.spec);
    const TaskId first = sub.jobs.job(id).first_task;
    for (std::size_t k = 0; k < job.task_count(); ++k) {
      new_id[static_cast<std::size_t>(job.first_task.value()) + k] =
          first.value() + static_cast<TaskId::underlying_type>(k);
    }
  }
  sub.schedule.sequences.resize(schedule.sequences.size());
  sub.schedule.predicted_start.assign(sub.jobs.task_count(), 0.0);
  for (std::size_t g = 0; g < schedule.sequences.size(); ++g) {
    for (TaskId task : schedule.sequences[g]) {
      const auto old = static_cast<std::size_t>(task.value());
      if (new_id[old] == kDropped) continue;
      sub.schedule.sequences[g].push_back(TaskId(new_id[old]));
      if (old < schedule.predicted_start.size()) {
        sub.schedule.predicted_start[static_cast<std::size_t>(new_id[old])] =
            schedule.predicted_start[old];
      }
    }
  }
  return sub;
}

}  // namespace perfbench
