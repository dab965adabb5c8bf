#include "exact_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace hare::testing {

namespace {

/// Search state: per-GPU horizons plus per-job round progress. Tasks of
/// one round are interchangeable, so only the count scheduled matters
/// (symmetry breaking); a round's tasks become schedulable once the
/// previous round is fully *scheduled* (its barrier is then known).
struct JobProgress {
  std::uint32_t current_round = 0;
  std::uint32_t scheduled_in_round = 0;
  Time release = 0.0;  ///< arrival or previous round's barrier
  Time barrier = 0.0;  ///< max finish (incl. sync) in the current round
};

struct Search {
  const cluster::Cluster& cluster;
  const workload::JobSet& jobs;
  const profiler::TimeTable& times;

  std::vector<Time> phi;
  std::vector<JobProgress> progress;
  std::vector<Time> min_round;  ///< per job: fastest possible round time

  double best = std::numeric_limits<double>::infinity();
  std::vector<GpuId> best_gpu;
  std::vector<Time> best_start;
  std::vector<GpuId> current_gpu;
  std::vector<Time> current_start;
  std::size_t nodes = 0;
  std::size_t remaining_tasks = 0;

  [[nodiscard]] double lower_bound(double partial) const {
    // Each unfinished job still needs its remaining rounds, each at least
    // the fastest single-round time, starting no earlier than its current
    // release.
    double bound = partial;
    for (const auto& job : jobs.jobs()) {
      const auto j = static_cast<std::size_t>(job.id.value());
      const JobProgress& p = progress[j];
      if (p.current_round >= job.rounds()) continue;
      const double rounds_after_current =
          static_cast<double>(job.rounds() - p.current_round - 1);
      // The current round ends no earlier than its barrier so far and no
      // earlier than release + one fastest round; each later round adds at
      // least one fastest round.
      const Time current_round_end =
          std::max(p.barrier, p.release + min_round[j]);
      bound += job.spec.weight *
               (current_round_end + rounds_after_current * min_round[j]);
    }
    return bound;
  }

  void dfs(double partial) {
    ++nodes;
    HARE_CHECK_MSG(nodes < 50'000'000,
                   "exact solver node budget exhausted; instance too large");
    if (remaining_tasks == 0) {
      if (partial < best) {
        best = partial;
        best_gpu = current_gpu;
        best_start = current_start;
      }
      return;
    }
    if (lower_bound(partial) >= best) return;

    for (const auto& job : jobs.jobs()) {
      const auto j = static_cast<std::size_t>(job.id.value());
      JobProgress& p = progress[j];
      if (p.current_round >= job.rounds()) continue;

      const TaskId task_id =
          jobs.round_tasks(job.id,
                           static_cast<RoundIndex>(p.current_round))
              [p.scheduled_in_round];
      const auto t = static_cast<std::size_t>(task_id.value());

      for (std::size_t g = 0; g < phi.size(); ++g) {
        const GpuId gpu(static_cast<int>(g));
        const Time start = std::max(p.release, phi[g]);
        const Time tc = times.tc(job.id, gpu);
        const Time ts = times.ts(job.id, gpu);

        const JobProgress saved = p;
        const Time saved_phi = phi[g];

        phi[g] = start + tc;  // sync overlaps the GPU's next task
        p.barrier = std::max(p.barrier, start + tc + ts);
        ++p.scheduled_in_round;
        current_gpu[t] = gpu;
        current_start[t] = start;

        double next_partial = partial;
        bool finished_job = false;
        if (p.scheduled_in_round == job.tasks_per_round()) {
          if (p.current_round + 1 == job.rounds()) {
            next_partial += job.spec.weight * p.barrier;
            finished_job = true;
            p.current_round = job.rounds();
          } else {
            ++p.current_round;
            p.scheduled_in_round = 0;
            p.release = p.barrier;
            p.barrier = 0.0;
          }
        }
        (void)finished_job;
        --remaining_tasks;
        dfs(next_partial);
        ++remaining_tasks;

        p = saved;
        phi[g] = saved_phi;
      }
    }
  }
};

}  // namespace

ExactScheduleResult solve_exact_schedule(const cluster::Cluster& cluster,
                                         const workload::JobSet& jobs,
                                         const profiler::TimeTable& times,
                                         std::size_t max_tasks) {
  HARE_CHECK_MSG(jobs.task_count() <= max_tasks,
                 "instance has " << jobs.task_count()
                                 << " tasks; exact solver capped at "
                                 << max_tasks);
  HARE_CHECK_MSG(cluster.gpu_count() > 0, "cluster has no GPUs");

  Search search{cluster, jobs, times,
                std::vector<Time>(cluster.gpu_count(), 0.0),
                {}, {}, std::numeric_limits<double>::infinity(),
                {}, {}, {}, {}, 0, jobs.task_count()};
  search.progress.resize(jobs.job_count());
  search.min_round.resize(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    const auto j = static_cast<std::size_t>(job.id.value());
    search.progress[j].release = job.spec.arrival;
    search.min_round[j] = times.min_total(job.id);
  }
  search.current_gpu.resize(jobs.task_count());
  search.current_start.resize(jobs.task_count(), 0.0);

  search.dfs(0.0);
  HARE_CHECK_MSG(std::isfinite(search.best), "exact search found no schedule");

  ExactScheduleResult result;
  result.objective = search.best;
  result.gpu = std::move(search.best_gpu);
  result.start = std::move(search.best_start);
  result.nodes_explored = search.nodes;
  return result;
}

}  // namespace hare::testing
