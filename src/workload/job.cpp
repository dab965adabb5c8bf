#include "workload/job.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace hare::workload {

JobId JobSet::add_job(JobSpec spec) {
  HARE_CHECK_MSG(spec.rounds >= 1, "a job needs at least one round");
  HARE_CHECK_MSG(spec.tasks_per_round >= 1,
                 "a round needs at least one task");
  HARE_CHECK_MSG(spec.batches_per_task >= 1,
                 "a task trains at least one batch");
  HARE_CHECK_MSG(spec.weight > 0.0, "job weight must be positive");
  HARE_CHECK_MSG(spec.arrival >= 0.0, "arrival time must be non-negative");
  // Task ids are int32: refuse a job that would overflow them up front.
  const std::uint64_t job_tasks =
      std::uint64_t{spec.rounds} * spec.tasks_per_round;
  HARE_CHECK_MSG(job_tasks <= INT32_MAX - tasks_.size(),
                 "a job of " << job_tasks << " tasks overflows int32 task ids");

  Job job;
  job.id = JobId(static_cast<JobId::underlying_type>(jobs_.size()));
  job.spec = std::move(spec);
  job.first_task = TaskId(static_cast<TaskId::underlying_type>(tasks_.size()));
  for (std::uint32_t r = 0; r < job.spec.rounds; ++r) {
    for (std::uint32_t k = 0; k < job.spec.tasks_per_round; ++k) {
      Task task;
      task.id = TaskId(static_cast<TaskId::underlying_type>(tasks_.size()));
      task.job = job.id;
      task.round = static_cast<RoundIndex>(r);
      task.slot = k;
      tasks_.push_back(task);
    }
  }
  jobs_.push_back(std::move(job));
  return jobs_.back().id;
}

const Job& JobSet::job(JobId id) const {
  HARE_CHECK_MSG(id.valid() && static_cast<std::size_t>(id.value()) < jobs_.size(),
                 "job id out of range: " << id);
  return jobs_[static_cast<std::size_t>(id.value())];
}

const Task& JobSet::task(TaskId id) const {
  HARE_CHECK_MSG(
      id.valid() && static_cast<std::size_t>(id.value()) < tasks_.size(),
      "task id out of range: " << id);
  return tasks_[static_cast<std::size_t>(id.value())];
}

TaskIdRange JobSet::round_tasks(JobId job_id, RoundIndex round) const {
  const Job& j = job(job_id);
  HARE_CHECK_MSG(round >= 0 && static_cast<std::uint32_t>(round) < j.rounds(),
                 "round out of range for job " << job_id << ": " << round);
  return TaskIdRange(j.task_at(static_cast<std::uint32_t>(round), 0),
                     j.tasks_per_round());
}

Time JobSet::earliest_arrival() const {
  if (jobs_.empty()) return 0.0;
  Time earliest = jobs_.front().spec.arrival;
  for (const auto& j : jobs_) earliest = std::min(earliest, j.spec.arrival);
  return earliest;
}

}  // namespace hare::workload
