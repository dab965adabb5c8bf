#include "sim/schedule.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <queue>

#include "common/error.hpp"

namespace hare::sim {

void validate_schedule(const Schedule& schedule,
                       const workload::JobSet& jobs) {
  const std::size_t task_count = jobs.task_count();
  std::vector<int> seen(task_count, 0);
  for (const auto& sequence : schedule.sequences) {
    for (TaskId id : sequence) {
      HARE_CHECK_MSG(id.valid() &&
                         static_cast<std::size_t>(id.value()) < task_count,
                     "schedule references unknown task " << id);
      ++seen[static_cast<std::size_t>(id.value())];
    }
  }
  for (std::size_t i = 0; i < task_count; ++i) {
    HARE_CHECK_MSG(seen[i] == 1, "task " << i << " scheduled " << seen[i]
                                         << " times (expected exactly once)");
  }

  // Kahn's algorithm over per-GPU chain edges + round-precedence edges.
  // in-degree counts; round r+1 tasks depend on all round r tasks of the
  // same job, which we compress by tracking per-round completion counters.
  std::vector<int> chain_pred(task_count, 0);  // 1 if a task precedes on GPU
  std::vector<TaskId> chain_next(task_count);
  for (const auto& sequence : schedule.sequences) {
    for (std::size_t k = 0; k + 1 < sequence.size(); ++k) {
      chain_next[static_cast<std::size_t>(sequence[k].value())] =
          sequence[k + 1];
      chain_pred[static_cast<std::size_t>(sequence[k + 1].value())] = 1;
    }
  }

  // remaining_round[j][r] = tasks of round r of job j not yet "executed".
  std::vector<std::vector<int>> remaining_round(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    remaining_round[static_cast<std::size_t>(job.id.value())]
        .assign(job.rounds(), static_cast<int>(job.tasks_per_round()));
  }

  auto ready = [&](TaskId id) {
    const workload::Task& task = jobs.task(id);
    if (chain_pred[static_cast<std::size_t>(id.value())] != 0) return false;
    if (task.round == 0) return true;
    return remaining_round[static_cast<std::size_t>(task.job.value())]
                          [static_cast<std::size_t>(task.round - 1)] == 0;
  };

  std::queue<TaskId> frontier;
  for (const auto& task : jobs.tasks()) {
    if (ready(task.id)) frontier.push(task.id);
  }

  std::size_t executed = 0;
  std::vector<char> done(task_count, 0);
  while (!frontier.empty()) {
    const TaskId id = frontier.front();
    frontier.pop();
    auto& flag = done[static_cast<std::size_t>(id.value())];
    if (flag) continue;
    if (!ready(id)) continue;  // re-queued before its barrier actually fell
    flag = 1;
    ++executed;
    const workload::Task& task = jobs.task(id);
    auto& remaining = remaining_round[static_cast<std::size_t>(
        task.job.value())][static_cast<std::size_t>(task.round)];
    --remaining;

    // Chain successor may now be ready.
    const TaskId next = chain_next[static_cast<std::size_t>(id.value())];
    if (next.valid()) {
      chain_pred[static_cast<std::size_t>(next.value())] = 0;
      if (ready(next)) frontier.push(next);
    }
    // Next round of this job may now be ready.
    if (remaining == 0) {
      const workload::Job& job = jobs.job(task.job);
      const RoundIndex next_round = task.round + 1;
      if (static_cast<std::uint32_t>(next_round) < job.rounds()) {
        for (TaskId t : jobs.round_tasks(task.job, next_round)) {
          if (ready(t)) frontier.push(t);
        }
      }
    }
  }
  HARE_CHECK_MSG(executed == task_count,
                 "schedule has a dependency cycle: only "
                     << executed << " of " << task_count
                     << " tasks are executable");
}

}  // namespace hare::sim

namespace hare::sim {

namespace {
constexpr std::string_view kPlanHeader = "hare-plan-v1";
}

void save_schedule(const Schedule& schedule, std::ostream& os) {
  os << kPlanHeader << ' ' << schedule.gpu_count() << ' '
     << schedule.predicted_start.size() << ' ';
  os.precision(17);
  os << schedule.predicted_objective << '\n';
  for (const auto& sequence : schedule.sequences) {
    os << sequence.size();
    for (TaskId id : sequence) os << ' ' << id.value();
    os << '\n';
  }
  for (Time t : schedule.predicted_start) os << t << ' ';
  os << '\n';
}

Schedule load_schedule(std::istream& is, const workload::JobSet& jobs) {
  std::string header;
  std::size_t gpu_count = 0;
  std::size_t start_count = 0;
  Schedule schedule;
  is >> header >> gpu_count >> start_count >> schedule.predicted_objective;
  HARE_CHECK_MSG(header == kPlanHeader, "not a hare plan (bad header)");
  // Size fields come from the file: nothing is allocated from them ahead of
  // the data they promise, and each is bounded by the job set.
  const std::size_t task_count = jobs.task_count();
  HARE_CHECK_MSG(start_count == 0 || start_count == task_count,
                 "plan has " << start_count << " start times for "
                             << task_count << " tasks");
  for (std::size_t g = 0; g < gpu_count; ++g) {
    std::size_t length = 0;
    is >> length;
    HARE_CHECK_MSG(static_cast<bool>(is), "truncated plan (sequence length)");
    HARE_CHECK_MSG(length <= task_count, "plan sequence of "
                                             << length << " tasks exceeds the "
                                             << task_count << "-task job set");
    std::vector<TaskId>& sequence = schedule.sequences.emplace_back();
    sequence.reserve(length);
    for (std::size_t k = 0; k < length; ++k) {
      int task = -1;
      is >> task;
      HARE_CHECK_MSG(static_cast<bool>(is), "truncated plan (task id)");
      sequence.push_back(TaskId(task));
    }
  }
  schedule.predicted_start.resize(start_count);
  for (auto& t : schedule.predicted_start) {
    is >> t;
    HARE_CHECK_MSG(static_cast<bool>(is), "truncated plan (start times)");
  }
  validate_schedule(schedule, jobs);
  return schedule;
}

void save_schedule_file(const Schedule& schedule, const std::string& path) {
  std::ofstream os(path);
  HARE_CHECK_MSG(os.good(), "cannot open plan file for writing: " << path);
  save_schedule(schedule, os);
}

Schedule load_schedule_file(const std::string& path,
                            const workload::JobSet& jobs) {
  std::ifstream is(path);
  HARE_CHECK_MSG(is.good(), "cannot open plan file: " << path);
  return load_schedule(is, jobs);
}

}  // namespace hare::sim
