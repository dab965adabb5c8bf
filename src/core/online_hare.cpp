#include "core/online_hare.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hare::core {

sim::Schedule OnlineHareScheduler::schedule(
    const sched::SchedulerInput& input) {
  const auto& jobs = input.jobs;
  HARE_CHECK_MSG(config_.batching_window_s >= 0.0,
                 "batching window must be non-negative");

  // Arrival sweep.
  std::vector<JobId> by_arrival;
  by_arrival.reserve(jobs.job_count());
  for (const auto& job : jobs.jobs()) by_arrival.push_back(job.id);
  std::sort(by_arrival.begin(), by_arrival.end(), [&](JobId a, JobId b) {
    const Time aa = jobs.job(a).spec.arrival;
    const Time ab = jobs.job(b).spec.arrival;
    if (aa != ab) return aa < ab;
    return a < b;
  });

  HareScheduler planner(config_.hare);
  HareScheduler::IncrementalState state;
  sim::Schedule schedule;
  planning_rounds_ = 0;

  std::size_t cursor = 0;
  std::vector<JobId> batch;
  while (cursor < by_arrival.size()) {
    // One batch: every job arriving within the window of the first, in
    // ascending id order (the planner's batch contract).
    const Time batch_open = jobs.job(by_arrival[cursor]).spec.arrival;
    batch.clear();
    while (cursor < by_arrival.size() &&
           jobs.job(by_arrival[cursor]).spec.arrival <=
               batch_open + config_.batching_window_s) {
      batch.push_back(by_arrival[cursor]);
      ++cursor;
    }
    std::sort(batch.begin(), batch.end());
    // Plan the batch on top of the standing commitments. Per-job release
    // times inside the planner already prevent anything from starting
    // before its arrival; commitments of earlier batches are never
    // revised.
    (void)planner.schedule_jobs(input, batch, state, schedule);
    ++planning_rounds_;
  }
  return schedule;
}

}  // namespace hare::core
