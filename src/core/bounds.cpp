#include "core/bounds.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace hare::core {

double critical_path_lower_bound(const workload::JobSet& jobs,
                                 const profiler::TimeTable& times) {
  double bound = 0.0;
  for (const auto& job : jobs.jobs()) {
    bound += job.spec.weight *
             (job.spec.arrival +
              static_cast<double>(job.rounds()) * times.min_total(job.id));
  }
  return bound;
}

double volume_lower_bound(const cluster::Cluster& cluster,
                          const workload::JobSet& jobs,
                          const profiler::TimeTable& times) {
  // Minimum possible GPU-seconds per job (every task at its fastest), then
  // WSPT completion times on a perfectly malleable |M|-machine fluid.
  const double machines = static_cast<double>(cluster.gpu_count());
  HARE_CHECK_MSG(machines > 0.0, "cluster has no GPUs");

  struct WorkItem {
    double work = 0.0;
    double weight = 1.0;
  };
  std::vector<WorkItem> items;
  items.reserve(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    const double work =
        static_cast<double>(job.rounds()) *
        static_cast<double>(job.tasks_per_round()) * times.min_tc(job.id);
    items.push_back(WorkItem{work, job.spec.weight});
  }
  // WSPT order minimizes Σ w C on the fluid machine; its value is a valid
  // lower bound for any feasible schedule of at least this much work.
  std::sort(items.begin(), items.end(), [](const WorkItem& a,
                                           const WorkItem& b) {
    return a.work * b.weight < b.work * a.weight;
  });
  double cumulative = 0.0;
  double bound = 0.0;
  for (const auto& item : items) {
    cumulative += item.work;
    bound += item.weight * cumulative / machines;
  }
  return bound;
}

double combined_lower_bound(const cluster::Cluster& cluster,
                            const workload::JobSet& jobs,
                            const profiler::TimeTable& times) {
  return std::max(critical_path_lower_bound(jobs, times),
                  volume_lower_bound(cluster, jobs, times));
}

ApproximationReport check_approximation(const cluster::Cluster& cluster,
                                        const workload::JobSet& jobs,
                                        const profiler::TimeTable& times,
                                        const sim::SimResult& result) {
  ApproximationReport report;
  report.objective = result.weighted_completion;
  report.lower_bound = combined_lower_bound(cluster, jobs, times);
  report.alpha = times.alpha();
  report.guarantee = report.alpha * (2.0 + report.alpha);
  report.ratio =
      report.lower_bound > 0.0 ? report.objective / report.lower_bound : 1.0;
  return report;
}

}  // namespace hare::core
